package conn

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"ucgraph/internal/graph"
)

func TestAdaptiveParamsValidate(t *testing.T) {
	bad := []AdaptiveParams{
		{Eps: 0, Delta: 0.1},
		{Eps: 1, Delta: 0.1},
		{Eps: -0.1, Delta: 0.1},
		{Eps: 0.1, Delta: 0},
		{Eps: 0.1, Delta: 1},
		{Eps: math.NaN(), Delta: 0.1},
		{Eps: 0.1, Delta: math.NaN()},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted eps=%v delta=%v", p.Eps, p.Delta)
		}
	}
	if err := (AdaptiveParams{Eps: 0.1, Delta: 0.05}).Validate(); err != nil {
		t.Fatalf("Validate rejected valid params: %v", err)
	}
}

func TestAdaptiveSchedule(t *testing.T) {
	cases := []struct {
		block, budget, min int
		want               []int
	}{
		{256, 2048, 0, []int{256, 512, 1024, 2048}},
		{256, 1000, 0, []int{256, 512, 1000}},
		{64, 50, 0, []int{50}},
		{64, 4096, 100, []int{128, 256, 512, 1024, 2048, 4096}},
		{1, 7, 3, []int{3, 6, 7}},
	}
	for _, c := range cases {
		got := adaptiveSchedule(c.block, c.budget, c.min)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("adaptiveSchedule(%d, %d, %d) = %v, want %v", c.block, c.budget, c.min, got, c.want)
		}
	}
}

func TestHalfWidthShrinksWithWorlds(t *testing.T) {
	for _, phat := range []float64{0, 0.03, 0.5, 0.97, 1} {
		prev := halfWidth(phat, 64, 0.01)
		for _, r := range []int{128, 256, 512, 1024, 4096} {
			hw := halfWidth(phat, r, 0.01)
			if hw >= prev {
				t.Fatalf("halfWidth(%v, %d) = %v did not shrink from %v", phat, r, hw, prev)
			}
			prev = hw
		}
	}
	// Extreme probabilities converge faster than p = 1/2 at the same r:
	// the empirical-Bernstein variance term is what buys early stopping.
	if halfWidth(0.95, 1024, 0.01) >= halfWidth(0.5, 1024, 0.01) {
		t.Fatal("empirical-Bernstein bound not tighter at extreme probabilities")
	}
}

// adaptiveTestGraph builds a small two-lobe graph with a weak bridge:
// within-lobe pairs connect with high probability, cross-lobe pairs with
// low probability, so adaptive queries see both easy extremes.
func adaptiveTestGraph(t *testing.T) *graph.Uncertain {
	t.Helper()
	var edges []graph.Edge
	for lobe := 0; lobe < 2; lobe++ {
		base := int32(lobe * 4)
		for i := int32(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, P: 0.9})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 4, P: 0.05})
	g, err := graph.FromEdges(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAdaptiveFromCentersConvergesAndIsAccurate(t *testing.T) {
	g := adaptiveTestGraph(t)
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	truth := ex.FromCenter(0, Unlimited, 0)
	mc := NewMonteCarlo(g, 41)
	p := AdaptiveParams{Eps: 0.08, Delta: 0.1, MaxWorlds: 1 << 16}
	ests, st, err := AdaptiveFromCenters(context.Background(), mc, []graph.NodeID{0}, Unlimited, nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge within %d worlds (hw=%v)", st.Budget, st.HalfWidth)
	}
	if st.Worlds >= st.Budget {
		t.Fatalf("no early stopping: consumed %d of %d", st.Worlds, st.Budget)
	}
	for v, want := range truth {
		if math.Abs(ests[0][v]-want) > p.Eps {
			t.Errorf("node %d: |%v - %v| > eps=%v", v, ests[0][v], want, p.Eps)
		}
	}
}

func TestAdaptiveFinalEqualsFixedBudget(t *testing.T) {
	g := adaptiveTestGraph(t)
	mc := NewMonteCarlo(g, 17)
	cs := []graph.NodeID{0, 5}
	p := AdaptiveParams{Eps: 0.1, Delta: 0.1, MaxWorlds: 1 << 15}
	ests, st, err := AdaptiveFromCenters(context.Background(), mc, cs, Unlimited, nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh estimator over the same (graph, seed) asked for exactly the
	// consumed world count must answer bit-identically: the adaptive path
	// is the fixed-budget path evaluated at its stopping point.
	fixed := NewMonteCarlo(g, 17).FromCenters(cs, Unlimited, st.Worlds)
	if !reflect.DeepEqual(ests, fixed) {
		t.Fatalf("adaptive final != fixed budget at r=%d", st.Worlds)
	}
}

func TestAdaptiveRunIsDeterministic(t *testing.T) {
	g := adaptiveTestGraph(t)
	run := func() []AdaptiveSnapshot {
		mc := NewMonteCarlo(g, 99)
		var snaps []AdaptiveSnapshot
		_, _, err := AdaptiveFromCenters(context.Background(), mc, []graph.NodeID{1}, Unlimited, nil,
			AdaptiveParams{Eps: 0.09, Delta: 0.1, MaxWorlds: 1 << 15},
			func(s AdaptiveSnapshot) error { snaps = append(snaps, s); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical adaptive runs produced different snapshot sequences")
	}
	if len(a) == 0 || !a[len(a)-1].Final {
		t.Fatal("last snapshot not marked final")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Worlds <= a[i-1].Worlds {
			t.Fatal("worlds not strictly increasing across rounds")
		}
		if a[i].HalfWidth >= a[i-1].HalfWidth {
			t.Fatalf("half-width did not shrink: round %d %v -> %v", i, a[i-1].HalfWidth, a[i].HalfWidth)
		}
	}
}

func TestAdaptiveBudgetCapReportsUnconverged(t *testing.T) {
	g := adaptiveTestGraph(t)
	mc := NewMonteCarlo(g, 5)
	// eps far below what the budget can certify: the run must stop at the
	// cap and say so, never claim convergence.
	_, st, err := AdaptiveFromCenters(context.Background(), mc, []graph.NodeID{0}, Unlimited, nil,
		AdaptiveParams{Eps: 0.0005, Delta: 0.05, MaxWorlds: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Fatal("claimed convergence at eps=0.0005 with 512 worlds")
	}
	if st.Worlds != 512 {
		t.Fatalf("consumed %d worlds, want the full budget 512", st.Worlds)
	}
}

func TestAdaptiveProgressAbort(t *testing.T) {
	g := adaptiveTestGraph(t)
	mc := NewMonteCarlo(g, 5)
	boom := errors.New("client went away")
	_, _, err := AdaptiveFromCenters(context.Background(), mc, []graph.NodeID{0}, Unlimited, nil,
		AdaptiveParams{Eps: 0.01, Delta: 0.05, MaxWorlds: 1 << 15},
		func(AdaptiveSnapshot) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the progress abort error", err)
	}
}

func TestAdaptivePairIntervalMatchesCenterTally(t *testing.T) {
	g := adaptiveTestGraph(t)
	mc := NewMonteCarlo(g, 23)
	p, st, err := AdaptivePairInterval(context.Background(), mc, 0, 3, Unlimited,
		AdaptiveParams{Eps: 0.05, Delta: 0.05, MaxWorlds: 1 << 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("pair did not converge (hw=%v)", st.HalfWidth)
	}
	want := NewMonteCarlo(g, 23).FromCenter(0, Unlimited, st.Worlds)[3]
	if p != want {
		t.Fatalf("adaptive pair %v != fixed-budget %v at r=%d", p, want, st.Worlds)
	}
	// The relative rule stops at a different round of the same schedule,
	// and its answer is the center tally at that round, limited or not.
	for _, depth := range []int{Unlimited, 2} {
		p, st, err := AdaptivePairRelative(context.Background(), mc, 0, 3, depth,
			AdaptiveParams{Eps: 0.1, Delta: 0.05, MaxWorlds: 1 << 16}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("depth %d: relative pair did not converge (hw=%v)", depth, st.HalfWidth)
		}
		want := NewMonteCarlo(g, 23).FromCenter(0, depth, st.Worlds)[3]
		if p != want {
			t.Fatalf("depth %d: relative pair %v != fixed-budget %v at r=%d", depth, p, want, st.Worlds)
		}
	}
}

// singleEdge builds the 2-node graph 0 -p- 1, where Pr(0 ~ 1) = p.
func singleEdge(t *testing.T, p float64) *graph.Uncertain {
	t.Helper()
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, P: p}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAdaptivePairAccuracy(t *testing.T) {
	const eps = 0.1
	for _, p := range []float64{0.8, 0.4, 0.1} {
		mc := NewMonteCarlo(singleEdge(t, p), uint64(100*p))
		est, st, err := AdaptivePairRelative(context.Background(), mc, 0, 1, Unlimited,
			AdaptiveParams{Eps: eps, Delta: 0.01}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("p=%v: did not converge within %d worlds", p, st.Budget)
		}
		if st.HalfWidth > eps*(est-st.HalfWidth) {
			t.Fatalf("p=%v: converged with half-width %v above eps*(%v - hw)", p, st.HalfWidth, est)
		}
		if math.Abs(est-p) > eps*p {
			t.Fatalf("p=%v: estimate %v outside relative error %v", p, est, eps)
		}
	}
}

func TestAdaptivePairSampleCountScales(t *testing.T) {
	// The world count grows like ln(1/delta)(1-p)/(eps^2 p): the p = 0.05
	// pair needs ~19x the worlds of the p = 0.5 pair, rounded to the
	// doubling schedule.
	run := func(p float64) AdaptiveStats {
		_, st, err := AdaptivePairRelative(context.Background(), NewMonteCarlo(singleEdge(t, p), 7), 0, 1, Unlimited,
			AdaptiveParams{Eps: 0.2, Delta: 0.05}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("p=%v did not converge", p)
		}
		return st
	}
	hi, lo := run(0.5), run(0.05)
	if ratio := float64(lo.Worlds) / float64(hi.Worlds); ratio < 8 || ratio > 64 {
		t.Fatalf("world ratio %v (%d / %d), want ~19: adaptive cost must track 1/p", ratio, lo.Worlds, hi.Worlds)
	}
}

func TestAdaptivePairCapsOnDisconnected(t *testing.T) {
	// Nodes in different components never connect: no interval ever
	// clears zero, so the cap applies and Converged is false with
	// estimate 0.
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, P: 0.9}, {U: 2, V: 3, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	est, st, err := AdaptivePairRelative(context.Background(), NewMonteCarlo(g, 3), 0, 2, Unlimited,
		AdaptiveParams{Eps: 0.1, Delta: 0.01, MaxWorlds: 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Fatal("converged on a disconnected pair")
	}
	if est != 0 || st.Worlds != 2000 {
		t.Fatalf("estimate %v after %d worlds, want 0 after 2000", est, st.Worlds)
	}
}

func TestAdaptivePairSelfIsImmediate(t *testing.T) {
	mc := NewMonteCarlo(singleEdge(t, 0.5), 5)
	est, st, err := AdaptivePairRelative(context.Background(), mc, 0, 0, Unlimited,
		AdaptiveParams{Eps: 0.1, Delta: 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Rounds != 1 {
		t.Fatalf("self pair: converged=%v after %d rounds, want the first", st.Converged, st.Rounds)
	}
	if est != 1 {
		t.Fatalf("Pr(u ~ u) estimated as %v", est)
	}
}

func TestAdaptiveRejectsBadInput(t *testing.T) {
	g := adaptiveTestGraph(t)
	mc := NewMonteCarlo(g, 1)
	if _, _, err := AdaptiveFromCenters(context.Background(), mc, nil, Unlimited, nil,
		AdaptiveParams{Eps: 0.1, Delta: 0.1}, nil); err == nil {
		t.Fatal("accepted an empty center list")
	}
	if _, _, err := AdaptiveFromCenters(context.Background(), mc, []graph.NodeID{0}, Unlimited, nil,
		AdaptiveParams{Eps: math.NaN(), Delta: 0.1}, nil); err == nil {
		t.Fatal("accepted NaN eps")
	}
}
