package sampler

import (
	"math"
	"testing"

	"ucgraph/internal/graph"
)

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Uncertain {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pathGraph(t *testing.T, n int, p float64) *graph.Uncertain {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1), P: p})
	}
	return mustGraph(t, n, edges)
}

func TestWorldDeterministic(t *testing.T) {
	g := pathGraph(t, 10, 0.5)
	w1 := World{G: g, Seed: 42, Index: 3}
	w2 := World{G: g, Seed: 42, Index: 3}
	for id := int32(0); id < int32(g.NumEdges()); id++ {
		if w1.Contains(id) != w2.Contains(id) {
			t.Fatalf("same world disagrees on edge %d", id)
		}
	}
}

func TestWorldsDiffer(t *testing.T) {
	g := pathGraph(t, 50, 0.5)
	w1 := World{G: g, Seed: 42, Index: 0}
	w2 := World{G: g, Seed: 42, Index: 1}
	diff := 0
	for id := int32(0); id < int32(g.NumEdges()); id++ {
		if w1.Contains(id) != w2.Contains(id) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("two different worlds have identical edge sets (49 coin flips)")
	}
}

func TestWorldEdgeFrequency(t *testing.T) {
	g := pathGraph(t, 2, 0.3)
	const r = 20000
	hits := 0
	for i := 0; i < r; i++ {
		if (World{G: g, Seed: 7, Index: uint64(i)}).Contains(0) {
			hits++
		}
	}
	got := float64(hits) / r
	sigma := math.Sqrt(0.3 * 0.7 / r)
	if math.Abs(got-0.3) > 6*sigma {
		t.Fatalf("edge frequency %v, want ~0.3", got)
	}
}

func TestCertainEdgesAlwaysPresent(t *testing.T) {
	g := pathGraph(t, 5, 1.0)
	for i := 0; i < 500; i++ {
		w := World{G: g, Seed: 9, Index: uint64(i)}
		if w.NumEdgesPresent() != g.NumEdges() {
			t.Fatalf("world %d dropped a p=1 edge", i)
		}
	}
}

func TestComponentLabelsMatchContains(t *testing.T) {
	// Labels must agree with a reachability check done via Contains.
	g := mustGraph(t, 6, []graph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 3, V: 4, P: 0.5},
		{U: 2, V: 3, P: 0.5}, {U: 4, V: 5, P: 0.5}, {U: 0, V: 5, P: 0.5},
	})
	uf := graph.NewUnionFind(6)
	labels := make([]int32, 6)
	for i := 0; i < 200; i++ {
		w := World{G: g, Seed: 11, Index: uint64(i)}
		w.ComponentLabels(uf, labels)
		// Reference: build adjacency from Contains, BFS from each node.
		reach := worldReachability(g, w)
		for u := int32(0); u < 6; u++ {
			for v := int32(0); v < 6; v++ {
				if (labels[u] == labels[v]) != reach[u][v] {
					t.Fatalf("world %d: labels and BFS disagree on (%d,%d)", i, u, v)
				}
			}
		}
	}
}

// worldReachability computes the full reachability matrix of a world by BFS
// over Contains — a slow reference implementation for tests.
func worldReachability(g *graph.Uncertain, w World) [][]bool {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for s := 0; s < n; s++ {
		reach[s] = make([]bool, n)
		seen := make([]bool, n)
		queue := []graph.NodeID{int32(s)}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			reach[s][u] = true
			nodes, ids, _ := g.NeighborSlices(u)
			for j, v := range nodes {
				if !seen[v] && w.Contains(ids[j]) {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return reach
}

func TestBFSWithinDepthLimit(t *testing.T) {
	// Certain path graph: BFSWithin(0, d) must reach exactly nodes 0..d.
	g := pathGraph(t, 10, 1.0)
	w := World{G: g, Seed: 1, Index: 0}
	seen := make([]uint32, 10)
	queue := make([]graph.NodeID, 0, 10)
	for d := 0; d < 10; d++ {
		reached := map[graph.NodeID]int32{}
		w.BFSWithin(0, d, seen, uint32(d+1), queue, func(v graph.NodeID, depth int32) {
			reached[v] = depth
		})
		if len(reached) != d+1 {
			t.Fatalf("depth %d reached %d nodes, want %d", d, len(reached), d+1)
		}
		for v, depth := range reached {
			if depth != int32(v) {
				t.Fatalf("node %d reported depth %d", v, depth)
			}
		}
	}
}

func TestBFSWithinUnlimitedMatchesLabels(t *testing.T) {
	g := mustGraph(t, 8, []graph.Edge{
		{U: 0, V: 1, P: 0.6}, {U: 1, V: 2, P: 0.6}, {U: 2, V: 3, P: 0.6},
		{U: 4, V: 5, P: 0.6}, {U: 5, V: 6, P: 0.6}, {U: 3, V: 4, P: 0.6},
		{U: 6, V: 7, P: 0.6}, {U: 0, V: 7, P: 0.6},
	})
	uf := graph.NewUnionFind(8)
	labels := make([]int32, 8)
	seen := make([]uint32, 8)
	queue := make([]graph.NodeID, 0, 8)
	for i := 0; i < 300; i++ {
		w := World{G: g, Seed: 5, Index: uint64(i)}
		w.ComponentLabels(uf, labels)
		got := make([]bool, 8)
		w.BFSWithin(0, -1, seen, uint32(i+1), queue, func(v graph.NodeID, _ int32) {
			got[v] = true
		})
		for v := int32(0); v < 8; v++ {
			want := labels[v] == labels[0]
			if got[v] != want {
				t.Fatalf("world %d node %d: BFS=%v labels=%v", i, v, got[v], want)
			}
		}
	}
}

func TestPresentEdgesMatchesContains(t *testing.T) {
	g := pathGraph(t, 12, 0.5)
	for i := 0; i < 50; i++ {
		w := World{G: g, Seed: 19, Index: uint64(i)}
		kept := w.PresentEdges()
		set := map[int32]bool{}
		for _, id := range kept {
			set[id] = true
		}
		for id := int32(0); id < int32(g.NumEdges()); id++ {
			if set[id] != w.Contains(id) {
				t.Fatalf("world %d edge %d: PresentEdges=%v Contains=%v",
					i, id, set[id], w.Contains(id))
			}
		}
	}
}

func TestReachCounterMatchesLabelsUnlimited(t *testing.T) {
	// With maxDepth < 0 the ReachCounter must agree exactly with the
	// component labels, world by world, because they share the coin stream.
	g := mustGraph(t, 7, []graph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.4}, {U: 2, V: 3, P: 0.6},
		{U: 3, V: 4, P: 0.7}, {U: 4, V: 5, P: 0.5}, {U: 5, V: 6, P: 0.3},
		{U: 6, V: 0, P: 0.5},
	})
	const seed, r = 31, 500
	uf := graph.NewUnionFind(7)
	lab := make([]int32, 7)
	rc := NewReachCounter(g, seed)
	for _, c := range []graph.NodeID{0, 3, 6} {
		want := make([]int32, 7)
		for i := 0; i < r; i++ {
			w := World{G: g, Seed: seed, Index: uint64(i)}
			w.ComponentLabels(uf, lab)
			for u := range want {
				if lab[u] == lab[c] {
					want[u]++
				}
			}
		}
		got := make([]int32, 7)
		rc.CountWithin(c, -1, 0, r, got)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("center %d node %d: reach=%d labels=%d", c, u, got[u], want[u])
			}
		}
	}
}

func TestReachCounterDepthMonotone(t *testing.T) {
	// Counts must be nondecreasing in depth and bounded by unlimited.
	g := pathGraph(t, 8, 0.7)
	rc := NewReachCounter(g, 13)
	const r = 300
	prev := make([]int32, 8)
	rc.CountWithin(0, 0, 0, r, prev)
	for d := 1; d <= 8; d++ {
		cur := make([]int32, 8)
		rc.CountWithin(0, d, 0, r, cur)
		for u := range cur {
			if cur[u] < prev[u] {
				t.Fatalf("depth %d decreased count at node %d: %d -> %d", d, u, prev[u], cur[u])
			}
		}
		prev = cur
	}
	unlimited := make([]int32, 8)
	rc.CountWithin(0, -1, 0, r, unlimited)
	for u := range unlimited {
		if prev[u] != unlimited[u] {
			t.Fatalf("depth-8 counts differ from unlimited on an 8-path at node %d", u)
		}
	}
}

func TestReachCounterDepthLimitedPathProbability(t *testing.T) {
	// On a path, Pr(0 ~d i) = p^i for i <= d and 0 for i > d.
	g := pathGraph(t, 6, 0.6)
	rc := NewReachCounter(g, 17)
	const r = 30000
	counts := make([]int32, 6)
	rc.CountWithin(0, 2, 0, r, counts)
	wants := []float64{1, 0.6, 0.36, 0, 0, 0}
	for i, want := range wants {
		est := float64(counts[i]) / r
		sigma := math.Sqrt(want*(1-want)/r) + 1e-9
		if math.Abs(est-want) > 6*sigma {
			t.Fatalf("d=2 est[%d] = %v, want ~%v", i, est, want)
		}
	}
}

func TestReachCounterEpochWraparound(t *testing.T) {
	// Force epoch wraparound by setting it near the max and verify queries
	// still work. (White-box: manipulates the internal epoch.)
	g := pathGraph(t, 4, 1.0)
	rc := NewReachCounter(g, 21)
	rc.epoch = ^uint32(0) - 2
	counts := make([]int32, 4)
	rc.CountWithin(0, -1, 0, 10, counts)
	for u, c := range counts {
		if c != 10 {
			t.Fatalf("after epoch wrap, node %d count = %d, want 10", u, c)
		}
	}
}

func TestFillEdgeBitmapMatchesContains(t *testing.T) {
	// The bitmap is just a materialization of Contains: every bit must
	// agree with the hash coin, including edges past the last full word.
	g := pathGraph(t, 70, 0.5) // 69 edges: exercises a ragged final word
	bits := make([]uint64, EdgeBitmapWords(g.NumEdges()))
	for i := 0; i < 100; i++ {
		w := World{G: g, Seed: 23, Index: uint64(i)}
		w.FillEdgeBitmap(bits)
		for id := int32(0); id < int32(g.NumEdges()); id++ {
			if BitmapContains(bits, id) != w.Contains(id) {
				t.Fatalf("world %d edge %d: bitmap=%v Contains=%v",
					i, id, BitmapContains(bits, id), w.Contains(id))
			}
		}
	}
}

func TestFillEdgeBitmapClearsStaleBits(t *testing.T) {
	// Refilling a buffer for a different world must not leak bits.
	g := pathGraph(t, 40, 0.5)
	bits := make([]uint64, EdgeBitmapWords(g.NumEdges()))
	for i := range bits {
		bits[i] = ^uint64(0)
	}
	w := World{G: g, Seed: 3, Index: 5}
	w.FillEdgeBitmap(bits)
	for id := int32(0); id < int32(g.NumEdges()); id++ {
		if BitmapContains(bits, id) != w.Contains(id) {
			t.Fatalf("stale bit survived refill at edge %d", id)
		}
	}
}

func TestMultiReachCounterMatchesReachCounter(t *testing.T) {
	// The batched contract: looping CountWithinWorld over worlds must be
	// bit-identical to a per-center ReachCounter over the same range, for
	// limited and unlimited depths.
	g := mustGraph(t, 9, []graph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.4}, {U: 2, V: 3, P: 0.6},
		{U: 3, V: 4, P: 0.7}, {U: 4, V: 5, P: 0.5}, {U: 5, V: 6, P: 0.3},
		{U: 6, V: 7, P: 0.5}, {U: 7, V: 8, P: 0.8}, {U: 8, V: 0, P: 0.4},
		{U: 1, V: 7, P: 0.6},
	})
	const seed, r = 29, 400
	cs := []graph.NodeID{0, 4, 7, 4} // includes a duplicate
	bits := make([]uint64, EdgeBitmapWords(g.NumEdges()))
	for _, depth := range []int{0, 1, 2, 3, -1} {
		mrc := NewMultiReachCounter(g)
		got := make([][]int32, len(cs))
		for j := range got {
			got[j] = make([]int32, g.NumNodes())
		}
		for i := 0; i < r; i++ {
			w := World{G: g, Seed: seed, Index: uint64(i)}
			w.FillEdgeBitmap(bits)
			mrc.CountWithinWorld(bits, cs, depth, got)
		}
		for j, c := range cs {
			rc := NewReachCounter(g, seed)
			want := make([]int32, g.NumNodes())
			rc.CountWithin(c, depth, 0, r, want)
			for u := range want {
				if got[j][u] != want[u] {
					t.Fatalf("depth=%d center %d node %d: multi=%d single=%d",
						depth, c, u, got[j][u], want[u])
				}
			}
		}
	}
}

func TestMultiReachCounterEpochWraparound(t *testing.T) {
	// White-box: force the shared epoch counter to wrap mid-batch and
	// verify the seen array is cleared rather than poisoned.
	g := pathGraph(t, 5, 1.0)
	mrc := NewMultiReachCounter(g)
	mrc.epoch = ^uint32(0) - 1
	bits := make([]uint64, EdgeBitmapWords(g.NumEdges()))
	cs := []graph.NodeID{0, 2, 4}
	counts := make([][]int32, len(cs))
	for j := range counts {
		counts[j] = make([]int32, 5)
	}
	for i := 0; i < 4; i++ {
		w := World{G: g, Seed: 7, Index: uint64(i)}
		w.FillEdgeBitmap(bits)
		mrc.CountWithinWorld(bits, cs, -1, counts)
	}
	for j := range cs {
		for u, c := range counts[j] {
			if c != 4 {
				t.Fatalf("after epoch wrap, center %d node %d count = %d, want 4",
					cs[j], u, c)
			}
		}
	}
}

func BenchmarkComponentLabels(b *testing.B) {
	edges := make([]graph.Edge, 0, 3000)
	for i := 0; i < 1000; i++ {
		edges = append(edges,
			graph.Edge{U: int32(i), V: int32((i + 1) % 1000), P: 0.5},
			graph.Edge{U: int32(i), V: int32((i + 37) % 1000), P: 0.3},
			graph.Edge{U: int32(i), V: int32((i + 111) % 1000), P: 0.7})
	}
	g, err := graph.FromEdges(1000, edges)
	if err != nil {
		b.Fatal(err)
	}
	uf := graph.NewUnionFind(1000)
	out := make([]int32, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := World{G: g, Seed: uint64(i), Index: uint64(i)}
		w.ComponentLabels(uf, out)
	}
}
