package conn

import (
	"math"
	"runtime"
	"testing"

	"ucgraph/internal/graph"
)

// The batched depth-limited engine contract (the per-world edge-bitmap
// path behind FromCenters with depth >= 0): estimates must be bit-identical
// to a serial per-center FromCenter loop, for every worker count and every
// world-store memory budget, and statistically consistent with exact
// enumeration on tiny graphs.

// depthSerialReference answers every center with its own single-worker
// estimator — the per-center loop the batched path replaced.
func depthSerialReference(g *graph.Uncertain, seed uint64, cs []graph.NodeID, depth, r int) [][]float64 {
	serial := NewMonteCarlo(g, seed)
	out := make([][]float64, len(cs))
	withProcs(1, func() {
		for j, c := range cs {
			out[j] = serial.FromCenter(c, depth, r)
		}
	})
	return out
}

// TestDepthBatchBitIdenticalAcrossWorkersAndBudgets is the headline
// guarantee for this engine: worker count and memory budget must not leak
// into depth-limited batched estimates.
func TestDepthBatchBitIdenticalAcrossWorkersAndBudgets(t *testing.T) {
	g := gridGraph(t, 11, 9, 0.6)
	const seed = 41
	cs := make([]graph.NodeID, 24)
	for i := range cs {
		cs[i] = graph.NodeID(i * 4)
	}
	const depth, r = 2, 500
	want := depthSerialReference(g, seed, cs, depth, r)

	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		for _, bounded := range []bool{false, true} {
			// A fresh graph value per configuration keeps the shared-store
			// registry from handing every estimator the same store.
			g2 := identicalGraph(t, g)
			mc := NewMonteCarlo(g2, seed)
			if bounded {
				// One resident block of any family: every batch chunk churns
				// bitmap blocks through eviction and recompute.
				mc.Store().SetBudget(1)
			}
			var got [][]float64
			withProcs(workers, func() {
				mc.FromCenters(cs[:6], depth, 64) // prime a prefix, then extend
				got = mc.FromCenters(cs, depth, r)
			})
			for j := range want {
				for u := range want[j] {
					if got[j][u] != want[j][u] {
						t.Fatalf("workers=%d bounded=%v center %d node %d: %v != serial %v",
							workers, bounded, cs[j], u, got[j][u], want[j][u])
					}
				}
			}
			if bounded {
				if st := mc.Store().Stats(); st.Evictions == 0 {
					t.Fatalf("bounded run evicted nothing (stats %+v)", st)
				}
			}
		}
	}
}

// TestDepthBatchMixedTallyStates exercises the chunked batch extension
// with tallies at unequal precisions: fresh, partially covered and
// over-covered centers must all match the serial loop's answers.
func TestDepthBatchMixedTallyStates(t *testing.T) {
	g := gridGraph(t, 9, 7, 0.55)
	const seed, depth, r = 43, 3, 300
	mc := NewMonteCarlo(g, seed)
	mc.FromCenter(3, depth, 40)   // below r: must extend to exactly r
	mc.FromCenter(10, depth, 900) // above r: batch serves the higher precision

	cs := []graph.NodeID{0, 3, 7, 10, 3, 21, 45} // includes a duplicate
	got := mc.FromCenters(cs, depth, r)

	serial := NewMonteCarlo(g, seed)
	for j, c := range cs {
		rWant := r
		if c == 10 {
			rWant = 900
		}
		var want []float64
		withProcs(1, func() { want = serial.FromCenter(c, depth, rWant) })
		for u := range want {
			if got[j][u] != want[u] {
				t.Fatalf("center %d node %d: batched %v != serial %v", c, u, got[j][u], want[u])
			}
		}
	}
}

// TestDepthBatchMatchesExact cross-checks the batched depth-limited
// estimates against exact enumeration on a tiny graph: the Monte Carlo
// answers must sit within binomial sampling error of the true
// d-connection probabilities.
func TestDepthBatchMatchesExact(t *testing.T) {
	// 8 nodes, 9 edges: a cycle with a chord, small enough for Exact.
	edges := []graph.Edge{
		{U: 0, V: 1, P: 0.7}, {U: 1, V: 2, P: 0.6}, {U: 2, V: 3, P: 0.8},
		{U: 3, V: 4, P: 0.5}, {U: 4, V: 5, P: 0.7}, {U: 5, V: 6, P: 0.6},
		{U: 6, V: 7, P: 0.9}, {U: 7, V: 0, P: 0.5}, {U: 1, V: 5, P: 0.4},
	}
	g, err := graph.FromEdges(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	const r = 30000
	mc := NewMonteCarlo(g, 3)
	cs := []graph.NodeID{0, 2, 5}
	for _, depth := range []int{1, 2, 4} {
		got := mc.FromCenters(cs, depth, r)
		want := ex.FromCenters(cs, depth, 0)
		for j := range cs {
			for u := range want[j] {
				p := want[j][u]
				sigma := math.Sqrt(p*(1-p)/r) + 1e-9
				if math.Abs(got[j][u]-p) > 6*sigma {
					t.Fatalf("depth %d center %d node %d: estimate %v, exact %v (6σ=%v)",
						depth, cs[j], u, got[j][u], p, 6*sigma)
				}
			}
		}
	}
}
