package conn

import (
	"reflect"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
)

// kernelTestGraph builds an n-node ring with n/2 pseudo-random chords —
// large enough that a depth-limited batch exercises real BFS frontiers.
func kernelTestGraph(t *testing.T, n int) *graph.Uncertain {
	t.Helper()
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
// path — MonteCarlo.FromCenters → worldstore.CountWithinMulti → the lane
// traversal over bitmap blocks — and per-center FromCenter on cold edge
// bitmaps against estimates built from sampler.ReachCounter, one
// breadth-first search per (world, center) on the implicit stream. Two
// block shapes run: 128 nodes (256-world blocks, four 64-world rows) and
// 5,000 nodes (32-world blocks, two lanes to a word), where a cold
// per-center tally counts on the implicit stream and the batch on lanes.
// 70 centers over 600 worlds span several blocks and every lane position.
// Every kernel adds the same per-world reach indicators, so the estimates
// must be bit-identical — not merely close.
func TestDepthLimitedBatchKernelBitIdentity(t *testing.T) {
	for _, tc := range []struct{ n, bw int }{{128, 256}, {5000, 32}} {
		g := kernelTestGraph(t, tc.n)
		cs := make([]graph.NodeID, 70)
		for i := range cs {
			cs[i] = graph.NodeID((i * 13 * tc.n / 128) % tc.n)
		}
		const depth, r, seed = 3, 600, 97
		want := make([][]float64, len(cs))
		rc := sampler.NewReachCounter(g, seed)
		inv := 1 / float64(r)
		for j, c := range cs {
			counts := make([]int32, tc.n)
			rc.CountWithin(c, depth, 0, r, counts)
			want[j] = make([]float64, tc.n)
			for v, cnt := range counts {
				want[j][v] = float64(cnt) * inv
			}
		}

		// The per-center loop runs first, while the store's bitmaps are
		// still cold; each estimator has its own tally cache, so the batch
		// below re-executes its counting kernel instead of replaying these
		// tallies.
		single := NewMonteCarlo(g, seed)
		if bw := single.Store().BlockWorlds(); bw != tc.bw {
			t.Fatalf("%d nodes: %d-world blocks, want %d", tc.n, bw, tc.bw)
		}
		if single.Store().BitsWarm(0, r) {
			t.Fatal("edge bitmaps warm before the per-center loop")
		}
		perCenter := make([][]float64, len(cs))
		for j, c := range cs {
			perCenter[j] = single.FromCenter(c, depth, r)
		}
		batched := NewMonteCarlo(g, seed).FromCenters(cs, depth, r)

		for name, got := range map[string][][]float64{"batched": batched, "per-center": perCenter} {
			if reflect.DeepEqual(got, want) {
				continue
			}
			for j := range got {
				for v := range got[j] {
					if got[j][v] != want[j][v] {
						t.Fatalf("%d nodes: %s kernel at center %d node %d: %v, ReachCounter %v",
							tc.n, name, cs[j], v, got[j][v], want[j][v])
					}
				}
			}
			t.Fatalf("%d nodes: %s outputs differ in shape", tc.n, name)
		}
		// Guard against a vacuously green test: the batch must produce
		// real probability mass away from the centers themselves.
		mass := 0.0
		for _, est := range batched {
			for _, p := range est {
				mass += p
			}
		}
		if mass <= float64(len(cs)) {
			t.Fatalf("%d nodes: implausibly small probability mass %v for %d centers", tc.n, mass, len(cs))
		}
	}
}
