package shard

import (
	"context"
	"fmt"
	"testing"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/obs"
)

// The scatter benchmarks time the scatter/gather overhead of the
// coordinator against in-process execution over the same (warm) world
// stream: each iteration answers a fresh 32-center batch (a private tally
// cache, like one clustering run's scoring query), and workers hold no
// tally state, so the measured cost is per-query — partition, wire
// round-trips, the workers' counts, merge — not amortized cache hits.
// Workers run in-process over loopback, so the measured overhead is a
// floor: real deployments add network latency but also real parallel
// hardware.

func benchCenters(n int) []graph.NodeID {
	cs := make([]graph.NodeID, 32)
	for i := range cs {
		cs[i] = graph.NodeID((i * 7) % n)
	}
	return cs
}

const (
	benchNodes  = 128
	benchSeed   = 21
	benchWorlds = 2048
)

// BenchmarkScatterLocal is the in-process baseline: a fresh estimator
// (private tally cache, shared warm store) per iteration.
func BenchmarkScatterLocal(b *testing.B) {
	g := testGraph(b, benchNodes, 2)
	cs := benchCenters(benchNodes)
	warm := conn.NewMonteCarlo(g, benchSeed)
	warm.FromCenters(cs, conn.Unlimited, benchWorlds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := conn.NewMonteCarlo(g, benchSeed)
		mc.FromCenters(cs, conn.Unlimited, benchWorlds)
	}
}

// BenchmarkScatterWorkers measures the same batch through a coordinator
// over 1, 2 and 4 loopback workers (forked per iteration for a private
// tally cache; worker stores stay warm across iterations).
func BenchmarkScatterWorkers(b *testing.B) {
	g := testGraph(b, benchNodes, 2)
	cs := benchCenters(benchNodes)
	for _, nw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			coord := NewCoordinator("bg", g, benchSeed, startWorkers(b, "bg", g, benchSeed, nw), CoordinatorOptions{})
			coord.FromCenters(cs, conn.Unlimited, benchWorlds) // warm the worker stores
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coord.Fork().FromCenters(cs, conn.Unlimited, benchWorlds)
			}
		})
	}
}

// BenchmarkScatterWorkersTraced is the 4-worker scatter with a live
// trace per iteration: span tree on the coordinator, flagTrace ref +
// annotation sections on the wire, worker-side Stats diffing. Compared
// against ScatterWorkers/workers=4 it is the end-to-end cost of
// tracing a query (the acceptance bar is <5% on this warm path).
func BenchmarkScatterWorkersTraced(b *testing.B) {
	g := testGraph(b, benchNodes, 2)
	cs := benchCenters(benchNodes)
	coord := NewCoordinator("bg", g, benchSeed, startWorkers(b, "bg", g, benchSeed, 4), CoordinatorOptions{})
	coord.FromCenters(cs, conn.Unlimited, benchWorlds) // warm the worker stores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("bench-query")
		ctx := obs.ContextWithSpan(context.Background(), tr.Root())
		if _, err := coord.Fork().FromCentersCtx(ctx, cs, conn.Unlimited, benchWorlds); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// BenchmarkScatterRepeat repeats one identical DistancesCtx and one
// identical GreedyCtx call, on the local path and over 2 loopback
// workers. Workers hold no tally state, so a sharded repeat recomputes
// every tally it scatters; the local greedy run keeps per-world component
// sizes across its CELF rounds, which the sharded marginal tallies rebuild
// on the workers for every evaluation.
func BenchmarkScatterRepeat(b *testing.B) {
	g := testGraph(b, benchNodes, 2)
	ctx := context.Background()
	for _, nw := range []int{0, 2} {
		var addrs []string
		if nw > 0 {
			addrs = startWorkers(b, "bg", g, benchSeed, nw)
		}
		coord := NewCoordinator("bg", g, benchSeed, addrs, CoordinatorOptions{})
		path := "local"
		if nw > 0 {
			path = fmt.Sprintf("workers=%d", nw)
		}
		queries := []struct {
			name string
			run  func() error
		}{
			{"distances", func() error { _, err := coord.DistancesCtx(ctx, 5, benchWorlds); return err }},
			{"greedy", func() error { _, err := coord.GreedyCtx(ctx, 3, 64); return err }},
		}
		for _, q := range queries {
			b.Run(q.name+"/"+path, func(b *testing.B) {
				if err := q.run(); err != nil { // warm the stores
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := q.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
