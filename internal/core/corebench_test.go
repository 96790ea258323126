package core

// Benchmarks of the MCP/ACP drivers end to end, and of the min-partial
// candidate-scoring shape comparing the batched FromCenters oracle query
// against the per-center FromCenter loop it replaced. No file records
// them; `make bench-smoke` runs each once.

import (
	"runtime"
	"testing"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/worldstore"
)

// BenchmarkMCPEndToEnd times a full MCP run (guess schedule + binary
// search) on the 600-node planted-community graph with a fixed seed, so
// runs are comparable across changes.
func BenchmarkMCPEndToEnd(b *testing.B) {
	g := benchGraph(b)
	opt := Options{Seed: 1, Schedule: conn.Schedule{Min: 50, Max: 512, Coef: 8}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := conn.NewMonteCarlo(g, 1)
		if _, _, err := MCP(oracle, 40, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACPEndToEnd times a full ACP sweep on the same graph.
func BenchmarkACPEndToEnd(b *testing.B) {
	g := benchGraph(b)
	opt := Options{Seed: 1, Schedule: conn.Schedule{Min: 50, Max: 512, Coef: 8}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := conn.NewMonteCarlo(g, 1)
		if _, _, err := ACP(oracle, 40, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCandidates is the candidate batch the scoring benchmarks query:
// alpha=64 spread across the communities, the shape min-partial produces
// with a large candidate set.
func benchCandidates(g *graph.Uncertain) []graph.NodeID {
	cs := make([]graph.NodeID, 64)
	for i := range cs {
		cs[i] = graph.NodeID((i * g.NumNodes()) / len(cs))
	}
	return cs
}

// BenchmarkFromCentersBatched scores 64 candidate centers with ONE batched
// oracle query: all centers answered in one pass over each world block.
// Each iteration uses a fresh estimator (empty tally cache) over the
// shared, already-materialized world store, so the timer sees pure tally
// accumulation — the min-partial candidate-scoring hot path.
func BenchmarkFromCentersBatched(b *testing.B) {
	g := benchGraph(b)
	cs := benchCandidates(g)
	const r = 512
	// Keep the shared store referenced for the whole benchmark: the
	// registry only holds it weakly, so without this a GC between
	// iterations could drop the materialized worlds and put their
	// recomputation back inside the timed loop.
	ws := worldstore.Shared(g, 1)
	conn.NewMonteCarlo(g, 1).FromCenter(0, conn.Unlimited, r) // materialize worlds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := conn.NewMonteCarlo(g, 1)
		oracle.FromCenters(cs, conn.Unlimited, r)
	}
	runtime.KeepAlive(ws)
}

// BenchmarkFromCentersSerialLoop is the pre-batching baseline: the same 64
// candidates scored with one FromCenter query each (one full label scan
// per center per world).
func BenchmarkFromCentersSerialLoop(b *testing.B) {
	g := benchGraph(b)
	cs := benchCandidates(g)
	const r = 512
	ws := worldstore.Shared(g, 1)                             // see BenchmarkFromCentersBatched
	conn.NewMonteCarlo(g, 1).FromCenter(0, conn.Unlimited, r) // materialize worlds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := conn.NewMonteCarlo(g, 1)
		for _, c := range cs {
			oracle.FromCenter(c, conn.Unlimited, r)
		}
	}
	runtime.KeepAlive(ws)
}

// benchDepthGraph builds the graph the depth-limited scoring benchmarks
// run on: 512 nodes with a ring plus nineteen random chords each (average
// degree ~40), mixed probabilities — the dense-neighborhood regime where
// depth-limited scoring is actually expensive. Depth-2 balls cover a large
// fraction of the graph, so a 64-center batch touches each world's edges
// many times over and the candidates' balls overlap heavily — exactly
// what the per-world bitmap (hash each coin once) and the shared
// multi-center frontier (scan each node's adjacency once per layer, not
// once per covering center) amortize.
func benchDepthGraph(b *testing.B) *graph.Uncertain {
	b.Helper()
	x := rng.NewXoshiro256(3)
	const n = 512
	gb := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		_ = gb.AddEdge(int32(i), int32((i+1)%n), 0.3+0.5*x.Float64())
		for c := 0; c < 19; c++ {
			v := int32(x.Intn(n))
			if v != int32(i) {
				_ = gb.AddEdge(int32(i), v, 0.3+0.5*x.Float64())
			}
		}
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// Depth-limited scoring shape: alpha=64 candidates, depth=2, matching the
// min-partial-d (Algorithm 4) selection step. Both benchmarks start from a
// cold estimator AND a cold world store (per-iteration seed), so the
// batched timing includes materializing each world's edge bitmap — the
// full price of the amortization, not just its payoff.

// BenchmarkFromCentersDepth2Batched answers all 64 candidates through ONE
// batched depth-limited query: each world's edge coins are hashed once
// into a bitmap and every center's bounded BFS tests bits.
func BenchmarkFromCentersDepth2Batched(b *testing.B) {
	g := benchDepthGraph(b)
	cs := benchCandidates(g)
	const r = 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := conn.NewMonteCarlo(g, uint64(i+1))
		oracle.FromCenters(cs, 2, r)
	}
}

// BenchmarkFromCentersDepth2SerialLoop is the pre-batching baseline: one
// FromCenter query per candidate, each re-evaluating the hash coin for
// every edge its BFS touches, per world — the 64x edge-coin bill the
// batched path deletes.
func BenchmarkFromCentersDepth2SerialLoop(b *testing.B) {
	g := benchDepthGraph(b)
	cs := benchCandidates(g)
	const r = 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := conn.NewMonteCarlo(g, uint64(i+1))
		for _, c := range cs {
			oracle.FromCenter(c, 2, r)
		}
	}
}

// BenchmarkMinPartialDepth2Alpha64 runs one depth-limited min-partial
// invocation (Algorithm 4 shape) — the end-to-end consumer of the batched
// depth engine.
func BenchmarkMinPartialDepth2Alpha64(b *testing.B) {
	g := benchDepthGraph(b)
	oracle := conn.NewMonteCarlo(g, 1)
	rnd := rng.NewXoshiro256(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinPartial(oracle, rnd, PartialParams{
			K: 40, Q: 0.3, QBar: 0.3, Alpha: 64,
			Depth: 2, DepthSel: 2, R: 128,
		})
	}
}

// BenchmarkMinPartialAlpha64 runs one min-partial invocation with a large
// candidate set — the end-to-end consumer of the batched scoring path.
func BenchmarkMinPartialAlpha64(b *testing.B) {
	g := benchGraph(b)
	oracle := conn.NewMonteCarlo(g, 1)
	rnd := rng.NewXoshiro256(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinPartial(oracle, rnd, PartialParams{
			K: 40, Q: 0.3, QBar: 0.3, Alpha: 64,
			Depth: conn.Unlimited, DepthSel: conn.Unlimited, R: 128,
		})
	}
}
