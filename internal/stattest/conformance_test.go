package stattest

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// fixture is one tiny graph whose connection probabilities conn.Exact can
// enumerate (2^m worlds), paired with the center the sweep estimates from.
type fixture struct {
	name   string
	g      *graph.Uncertain
	center graph.NodeID
}

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Uncertain {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fixtures builds the conformance corpus: structures chosen to put
// estimates at very different points of the [0,1] scale — near-certain
// (series of high-p edges), balanced, and rare-event — because the
// empirical-Bernstein half of the bound only earns its keep away from
// p = 1/2.
func fixtures(t *testing.T) []fixture {
	t.Helper()
	var fs []fixture

	// 6-node path, alternating strong/weak edges.
	path := []graph.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.4},
		{U: 2, V: 3, P: 0.85}, {U: 3, V: 4, P: 0.5},
		{U: 4, V: 5, P: 0.95},
	}
	fs = append(fs, fixture{"path6", mustGraph(t, 6, path), 0})

	// Diamond with a chord: redundant routes, probabilities near 1.
	diamond := []graph.Edge{
		{U: 0, V: 1, P: 0.8}, {U: 0, V: 2, P: 0.7},
		{U: 1, V: 3, P: 0.75}, {U: 2, V: 3, P: 0.8},
		{U: 1, V: 2, P: 0.6}, {U: 0, V: 3, P: 0.3},
	}
	fs = append(fs, fixture{"diamond", mustGraph(t, 4, diamond), 0})

	// Two 4-cliques joined by one weak bridge: within-clique probabilities
	// near 1, cross-clique near 0 — the extremes where Hoeffding alone
	// would be loose and the EB term must still cover.
	var cliq []graph.Edge
	for c := 0; c < 2; c++ {
		base := int32(c * 4)
		for i := int32(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				cliq = append(cliq, graph.Edge{U: base + i, V: base + j, P: 0.9})
			}
		}
	}
	cliq = append(cliq, graph.Edge{U: 0, V: 4, P: 0.1})
	fs = append(fs, fixture{"cliques", mustGraph(t, 8, cliq), 1})

	// Seeded random sparse graph: no structure to hide behind.
	x := rng.NewXoshiro256(1234)
	seen := map[[2]int32]bool{}
	var rnd []graph.Edge
	for len(rnd) < 14 {
		u, v := int32(x.Intn(9)), int32(x.Intn(9))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		rnd = append(rnd, graph.Edge{U: u, V: v, P: 0.05 + 0.9*x.Float64()})
	}
	fs = append(fs, fixture{"random9", mustGraph(t, 9, rnd), 2})

	return fs
}

// maxViolations is the acceptance line for an observed Binomial(trials,
// delta) violation count: mean + 3 standard deviations, floored at the
// mean rounded up. The adaptive guarantee is an upper bound (union bound
// over rounds and quantities, each interval conservative), so in practice
// the count sits far below even delta*trials; three sigmas keeps the test
// deterministic-in-spirit without ever excusing a broken bound.
func maxViolations(trials int, delta float64) int {
	mean := float64(trials) * delta
	sd := math.Sqrt(float64(trials) * delta * (1 - delta))
	return int(math.Ceil(mean + 3*sd))
}

// TestAdaptiveCenterCoverage sweeps AdaptiveFromCenters over 25 world
// seeds per fixture and checks the (eps, delta) contract against exact
// truth: on converged runs, every per-node estimate must sit within eps
// of its true connection probability, except with frequency <= delta
// (plus binomial tolerance).
func TestAdaptiveCenterCoverage(t *testing.T) {
	const (
		trials = 25
		eps    = 0.1
		delta  = 0.1
	)
	params := conn.AdaptiveParams{Eps: eps, Delta: delta, MaxWorlds: 1 << 16}
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			ex, err := conn.NewExact(fx.g)
			if err != nil {
				t.Fatal(err)
			}
			truth := ex.FromCenter(fx.center, conn.Unlimited, 0)
			violations := 0
			for seed := uint64(1); seed <= trials; seed++ {
				mc := conn.NewMonteCarlo(fx.g, seed)
				ests, st, err := conn.AdaptiveFromCenters(context.Background(), mc,
					[]graph.NodeID{fx.center}, conn.Unlimited, nil, params, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Converged {
					t.Fatalf("seed %d did not converge within %d worlds", seed, params.MaxWorlds)
				}
				worst := 0.0
				for v, p := range ests[0] {
					if d := math.Abs(p - truth[v]); d > worst {
						worst = d
						_ = v
					}
				}
				if worst > eps {
					violations++
					t.Logf("seed %d violates: max |est-truth| = %v > eps %v (after %d worlds)", seed, worst, eps, st.Worlds)
				}
			}
			if max := maxViolations(trials, delta); violations > max {
				t.Fatalf("%d of %d trials violate eps=%v — above the delta=%v line (allowed %d)",
					violations, trials, eps, delta, max)
			}
		})
	}
}

// TestAdaptivePairCoverage is the pair-query form of the sweep, at a
// tighter eps and across two (eps, delta) settings: the half-width math
// must hold at whatever target the caller picks, not just the default.
// The relative settings run AdaptivePairRelative, whose contract is
// |estimate - p| <= eps*p.
func TestAdaptivePairCoverage(t *testing.T) {
	const trials = 20
	settings := []struct {
		eps, delta float64
		relative   bool
	}{
		{0.1, 0.1, false},
		{0.05, 0.2, false},
		{0.1, 0.1, true},
		{0.2, 0.05, true},
	}
	for _, s := range settings {
		s := s
		name, run := fmt.Sprintf("eps=%v,delta=%v", s.eps, s.delta), conn.AdaptivePairInterval
		if s.relative {
			name, run = "relative,"+name, conn.AdaptivePairRelative
		}
		t.Run(name, func(t *testing.T) {
			params := conn.AdaptiveParams{Eps: s.eps, Delta: s.delta, MaxWorlds: 1 << 17}
			for _, fx := range fixtures(t) {
				ex, err := conn.NewExact(fx.g)
				if err != nil {
					t.Fatal(err)
				}
				u := fx.center
				v := graph.NodeID((int(fx.center) + fx.g.NumNodes() - 1) % fx.g.NumNodes())
				truth := ex.Pair(u, v)
				tol := s.eps
				if s.relative {
					tol = s.eps * truth
				}
				violations := 0
				for seed := uint64(100); seed < 100+trials; seed++ {
					mc := conn.NewMonteCarlo(fx.g, seed)
					p, st, err := run(context.Background(), mc, u, v, conn.Unlimited, params, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !st.Converged {
						t.Fatalf("fixture %s seed %d unconverged", fx.name, seed)
					}
					hwMax := s.eps
					if s.relative {
						hwMax = s.eps * (p - st.HalfWidth)
					}
					if st.HalfWidth > hwMax {
						t.Fatalf("fixture %s seed %d: converged with half-width %v > %v", fx.name, seed, st.HalfWidth, hwMax)
					}
					if math.Abs(p-truth) > tol {
						violations++
						t.Logf("fixture %s seed %d violates: |%v - %v| > %v", fx.name, seed, p, truth, tol)
					}
				}
				if max := maxViolations(trials, s.delta); violations > max {
					t.Fatalf("fixture %s: %d of %d pair trials violate tolerance %v (allowed %d)",
						fx.name, violations, trials, tol, max)
				}
			}
		})
	}
}

// TestAdaptiveIntervalIsHonest checks the certificate itself, not just the
// point estimate: on every converged run the reported half-width must
// actually cover the true error for all tracked quantities at the claimed
// confidence — the interval [est-hw, est+hw] contains the truth.
func TestAdaptiveIntervalIsHonest(t *testing.T) {
	const (
		trials = 25
		eps    = 0.08
		delta  = 0.1
	)
	params := conn.AdaptiveParams{Eps: eps, Delta: delta, MaxWorlds: 1 << 16}
	fx := fixtures(t)[2] // cliques: mixes near-0 and near-1 truths
	ex, err := conn.NewExact(fx.g)
	if err != nil {
		t.Fatal(err)
	}
	truth := ex.FromCenter(fx.center, conn.Unlimited, 0)
	violations := 0
	for seed := uint64(1); seed <= trials; seed++ {
		mc := conn.NewMonteCarlo(fx.g, seed*31)
		ests, st, err := conn.AdaptiveFromCenters(context.Background(), mc,
			[]graph.NodeID{fx.center}, conn.Unlimited, nil, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		covered := true
		for v, p := range ests[0] {
			if math.Abs(p-truth[v]) > st.HalfWidth {
				covered = false
			}
		}
		if !covered {
			violations++
		}
	}
	if max := maxViolations(trials, delta); violations > max {
		t.Fatalf("%d of %d certificates fail to cover the truth (allowed %d)", violations, trials, max)
	}
}
