package conn

import (
	"reflect"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// kernelTestGraph builds a 128-node ring with pseudo-random chords — large
// enough that a depth-limited batch exercises real BFS frontiers.
func kernelTestGraph(t *testing.T) *graph.Uncertain {
	t.Helper()
	const n = 128
	x := rng.NewXoshiro256(41)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%n), 0.25+0.7*x.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		u, v := int32(x.Intn(n)), int32(x.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v, 0.2+0.6*x.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDepthLimitedBatchKernelBitIdentity pins the batched depth-limited
// path — MonteCarlo.FromCenters → worldstore.CountWithinMulti → the
// bit-sliced accumulate mode of sampler.MultiReachCounter — against
// per-center FromCenter on cold edge bitmaps, which runs the implicit
// sampler.ReachCounter BFS instead. 70 centers span two 64-center mask
// groups, and 600 worlds force multiple AccumCapacity flushes, so every
// ripple-carry plane level and the flush cadence are both exercised. Both
// paths add the same per-world reach indicators, so the estimates must be
// bit-identical — not merely close.
func TestDepthLimitedBatchKernelBitIdentity(t *testing.T) {
	g := kernelTestGraph(t)
	cs := make([]graph.NodeID, 70)
	for i := range cs {
		cs[i] = graph.NodeID((i * 13) % g.NumNodes())
	}
	const depth, r, seed = 3, 600, 97

	// The per-center loop runs first, while the store's bitmaps are still
	// cold; each estimator has its own tally cache, so the batch below
	// re-executes its counting kernel instead of replaying these tallies.
	single := NewMonteCarlo(g, seed)
	if single.Store().BitsWarm(0, r) {
		t.Fatal("edge bitmaps warm before the per-center loop")
	}
	perCenter := make([][]float64, len(cs))
	for j, c := range cs {
		perCenter[j] = single.FromCenter(c, depth, r)
	}
	sliced := NewMonteCarlo(g, seed).FromCenters(cs, depth, r)

	if !reflect.DeepEqual(sliced, perCenter) {
		for j := range sliced {
			for v := range sliced[j] {
				if sliced[j][v] != perCenter[j][v] {
					t.Fatalf("kernel mismatch at center %d node %d: batched %v, per-center %v",
						cs[j], v, sliced[j][v], perCenter[j][v])
				}
			}
		}
		t.Fatal("kernel outputs differ in shape")
	}
	// Guard against a vacuously green test: the batch must produce real
	// probability mass away from the centers themselves.
	mass := 0.0
	for _, est := range sliced {
		for _, p := range est {
			mass += p
		}
	}
	if mass <= float64(len(cs)) {
		t.Fatalf("implausibly small probability mass %v for %d centers", mass, len(cs))
	}
}
