package core

import (
	"runtime"
	"testing"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// communityGraph builds c dense communities of size s joined by weak
// bridges — enough structure that MCP/ACP make nontrivial choices.
func communityGraph(t *testing.T, c, s int, seed uint64) *graph.Uncertain {
	t.Helper()
	x := rng.NewXoshiro256(seed)
	b := graph.NewBuilder(c * s)
	for ci := 0; ci < c; ci++ {
		base := int32(ci * s)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if x.Float64() < 0.5 {
					if err := b.AddEdge(base+int32(i), base+int32(j), 0.6+0.3*x.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if ci > 0 {
			if err := b.AddEdge(base-int32(s), base, 0.15); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClusteringDeterministicAcrossParallelism runs MCP and ACP with
// GOMAXPROCS, the worker budget, set to 1, 4 and 16 and requires
// bit-identical clusterings: the concurrent oracle engine and the
// candidate fan-out must not leak the worker count into results. Alpha > 1
// makes the candidate fan-out real.
func TestClusteringDeterministicAcrossParallelism(t *testing.T) {
	g := communityGraph(t, 4, 12, 9)
	sched := conn.Schedule{Min: 32, Max: 256, Coef: 8}

	for _, algo := range []string{"mcp", "acp", "acp-geometric"} {
		var ref *Clustering
		for _, par := range []int{1, 4, 16} {
			oracle := conn.NewMonteCarlo(g, 77)
			opt := Options{Seed: 5, Alpha: 4, Schedule: sched}
			var (
				cl  *Clustering
				err error
			)
			prev := runtime.GOMAXPROCS(par)
			switch algo {
			case "mcp":
				cl, _, err = MCP(oracle, 4, opt)
			case "acp":
				cl, _, err = ACP(oracle, 4, opt)
			case "acp-geometric":
				opt.Geometric = true
				cl, _, err = ACP(oracle, 4, opt)
			}
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s par=%d: %v", algo, par, err)
			}
			if ref == nil {
				ref = cl
				continue
			}
			if len(cl.Centers) != len(ref.Centers) {
				t.Fatalf("%s par=%d: %d centers != %d", algo, par, len(cl.Centers), len(ref.Centers))
			}
			for i := range ref.Centers {
				if cl.Centers[i] != ref.Centers[i] {
					t.Fatalf("%s par=%d: center %d is node %d, serial picked %d",
						algo, par, i, cl.Centers[i], ref.Centers[i])
				}
			}
			for u := range ref.Assign {
				if cl.Assign[u] != ref.Assign[u] || cl.Prob[u] != ref.Prob[u] {
					t.Fatalf("%s par=%d node %d: (%d, %v) != serial (%d, %v)",
						algo, par, u, cl.Assign[u], cl.Prob[u], ref.Assign[u], ref.Prob[u])
				}
			}
		}
	}
}
