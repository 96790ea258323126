package graph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ucgraph/internal/rng"
)

// pathGraph returns the path 0-1-2-...-(n-1) with probability p on each edge.
func pathGraph(t *testing.T, n int, p float64) *Uncertain {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	mustAdd := func(u, v NodeID, p float64) {
		t.Helper()
		if err := b.AddEdge(u, v, p); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1, 0.5)
	mustAdd(1, 2, 0.9)
	mustAdd(2, 3, 1.0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if d := g.Degree(1); d != 2 {
		t.Fatalf("Degree(1) = %d, want 2", d)
	}
	if p, ok := g.HasEdge(0, 1); !ok || p != 0.5 {
		t.Fatalf("HasEdge(0,1) = %v,%v want 0.5,true", p, ok)
	}
	if p, ok := g.HasEdge(1, 0); !ok || p != 0.5 {
		t.Fatalf("HasEdge(1,0) = %v,%v want 0.5,true (undirected)", p, ok)
	}
	if _, ok := g.HasEdge(0, 3); ok {
		t.Fatal("HasEdge(0,3) reported a nonexistent edge")
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1, 0.5); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if err := b.AddEdge(0, 1, 1.5); err == nil {
		t.Fatal("p>1 accepted")
	}
	if err := b.AddEdge(0, 1, -0.2); err == nil {
		t.Fatal("negative p accepted")
	}
	if err := b.AddEdge(-1, 1, 0.2); err == nil {
		t.Fatal("negative node accepted")
	}
}

func TestBuilderDuplicateEdgeLastWins(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0, 0.8); err != nil { // same undirected edge
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after duplicate add", g.NumEdges())
	}
	if p, _ := g.HasEdge(0, 1); p != 0.8 {
		t.Fatalf("duplicate edge probability = %v, want last write 0.8", p)
	}
}

func TestBuildEmptyGraphFails(t *testing.T) {
	if _, err := NewBuilder(0).Build(); err == nil {
		t.Fatal("building a 0-node graph must fail")
	}
}

func TestBuilderEnsureNodeGrows(t *testing.T) {
	b := NewBuilder(1)
	if err := b.AddEdge(0, 5, 0.4); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", g.NumNodes())
	}
}

func TestEdgeIDsSharedBetweenDirections(t *testing.T) {
	g := pathGraph(t, 5, 0.7)
	// The edge ID seen from u and from v must be identical.
	type rec struct {
		id int32
		ok bool
	}
	ids := make(map[[2]NodeID]rec)
	for u := NodeID(0); u < 5; u++ {
		g.Neighbors(u, func(v NodeID, id int32, p float64) {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if r, ok := ids[[2]NodeID{a, b}]; ok && r.id != id {
				t.Fatalf("edge {%d,%d} has two ids %d and %d", a, b, r.id, id)
			}
			ids[[2]NodeID{a, b}] = rec{id: id, ok: true}
		})
	}
	if len(ids) != 4 {
		t.Fatalf("saw %d distinct edges, want 4", len(ids))
	}
}

func TestCoinThresholdMatchesRNG(t *testing.T) {
	g := pathGraph(t, 3, 0.25)
	for i := 0; i < g.NumEdges(); i++ {
		if g.CoinThreshold(int32(i)) != rng.CoinThreshold(0.25) {
			t.Fatal("CoinThreshold mismatch with rng.CoinThreshold")
		}
	}
}

func TestExpectedDegreeAndMaxDegree(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range []Edge{{0, 1, 0.5}, {0, 2, 0.25}, {0, 3, 0.75}, {1, 2, 1}} {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d := g.ExpectedDegree(0); math.Abs(d-1.5) > 1e-12 {
		t.Fatalf("ExpectedDegree(0) = %v, want 1.5", d)
	}
	if d := g.MaxDegree(); d != 3 {
		t.Fatalf("MaxDegree = %d, want 3", d)
	}
}

func TestBFSAllPath(t *testing.T) {
	g := pathGraph(t, 6, 0.5)
	dist := g.BFSAll(0)
	for i := 0; i < 6; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
}

func TestBFSAllDisconnected(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3, 0.5); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFSAll(0)
	if dist[1] != 1 || dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("BFS on disconnected graph: %v", dist)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	edges := []Edge{{0, 1, 0.5}, {1, 2, 0.5}, {3, 4, 0.5}}
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels, count := g.Components()
	if count != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("Components count = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("nodes 0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Fatal("nodes 3,4 should share a component")
	}
	if labels[0] == labels[3] || labels[0] == labels[5] || labels[5] == labels[6] {
		t.Fatal("distinct components share a label")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(10)
	// Component A: 0..4 (size 5), component B: 5..7 (size 3), isolated 8, 9.
	for i := 0; i < 4; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(5, 6, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(6, 7, 0.5); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lc := g.LargestComponent()
	if len(lc) != 5 {
		t.Fatalf("LargestComponent size = %d, want 5", len(lc))
	}
	for i, u := range lc {
		if u != NodeID(i) {
			t.Fatalf("LargestComponent = %v, want [0 1 2 3 4]", lc)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := NewBuilder(6)
	edges := []Edge{{0, 1, 0.1}, {1, 2, 0.2}, {2, 3, 0.3}, {3, 4, 0.4}, {4, 5, 0.5}, {1, 4, 0.9}}
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, newToOld, err := g.InducedSubgraph([]NodeID{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 {
		t.Fatalf("subgraph nodes = %d, want 3", sub.NumNodes())
	}
	// Edges inside {1,2,4}: {1,2} and {1,4}.
	if sub.NumEdges() != 2 {
		t.Fatalf("subgraph edges = %d, want 2", sub.NumEdges())
	}
	if newToOld[0] != 1 || newToOld[1] != 2 || newToOld[2] != 4 {
		t.Fatalf("newToOld = %v", newToOld)
	}
	if p, ok := sub.HasEdge(0, 2); !ok || p != 0.9 { // old {1,4}
		t.Fatalf("subgraph edge {0,2} = %v,%v want 0.9,true", p, ok)
	}
}

func TestDijkstraPathProbabilities(t *testing.T) {
	// On a path with probabilities p1, p2, ..., the Dijkstra distance is
	// sum of -ln(pi) and exp(-dist) recovers the path probability product.
	b := NewBuilder(4)
	ps := []float64{0.5, 0.25, 0.8}
	for i, p := range ps {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist := g.Dijkstra(0)
	wantProd := 1.0
	for i, p := range ps {
		wantProd *= p
		if got := math.Exp(-dist[i+1]); math.Abs(got-wantProd) > 1e-12 {
			t.Fatalf("exp(-dist[%d]) = %v, want %v", i+1, got, wantProd)
		}
	}
}

func TestDijkstraPicksMostProbablePath(t *testing.T) {
	// Two routes 0->3: direct edge p=0.1 vs path 0-1-2-3 with 0.9 each
	// (product 0.729 > 0.1), so Dijkstra must choose the longer route.
	b := NewBuilder(4)
	for _, e := range []Edge{{0, 3, 0.1}, {0, 1, 0.9}, {1, 2, 0.9}, {2, 3, 0.9}} {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist := g.Dijkstra(0)
	if got := math.Exp(-dist[3]); math.Abs(got-0.729) > 1e-12 {
		t.Fatalf("best path probability to 3 = %v, want 0.729", got)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist := g.Dijkstra(0)
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("dist to unreachable node = %v, want +Inf", dist[2])
	}
}

func TestDijkstraFromMultiSource(t *testing.T) {
	g := pathGraph(t, 7, 0.5)
	dist, owner := g.DijkstraFrom([]NodeID{0, 6})
	if owner[1] != 0 || owner[5] != 1 {
		t.Fatalf("owner = %v, want node1->src0, node5->src1", owner)
	}
	if dist[0] != 0 || dist[6] != 0 {
		t.Fatal("sources must have distance 0")
	}
	// Node 3 is equidistant; its owner must be one of the two sources.
	if owner[3] != 0 && owner[3] != 1 {
		t.Fatalf("owner[3] = %d", owner[3])
	}
}

func TestUnionFindBasic(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Connected(0, 1) {
		t.Fatal("fresh union-find has connected elements")
	}
	if !uf.Union(0, 1) {
		t.Fatal("first union reported no merge")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union reported a merge")
	}
	if !uf.Connected(0, 1) {
		t.Fatal("union did not connect")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if !uf.Connected(1, 2) {
		t.Fatal("transitive connectivity broken")
	}
	if uf.SetSize(1) != 4 {
		t.Fatalf("SetSize = %d, want 4", uf.SetSize(1))
	}
	if uf.Connected(0, 4) {
		t.Fatal("element 4 must stay separate")
	}
}

func TestUnionFindReset(t *testing.T) {
	uf := NewUnionFind(4)
	uf.Union(0, 1)
	uf.Union(2, 3)
	uf.Reset()
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if uf.Connected(i, j) {
				t.Fatalf("Reset left %d and %d connected", i, j)
			}
		}
	}
}

func TestUnionFindLabels(t *testing.T) {
	uf := NewUnionFind(6)
	uf.Union(0, 1)
	uf.Union(1, 2)
	uf.Union(4, 5)
	labels := make([]int32, 6)
	uf.Labels(labels)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("labels of a merged set differ")
	}
	if labels[4] != labels[5] {
		t.Fatal("labels of a merged set differ")
	}
	if labels[3] == labels[0] || labels[3] == labels[4] {
		t.Fatal("labels of distinct sets coincide")
	}
}

// TestQuickUnionFindMatchesNaive cross-checks union-find connectivity against
// a naive reachability matrix on random union sequences.
func TestQuickUnionFindMatchesNaive(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 12
		uf := NewUnionFind(n)
		adj := [n][n]bool{}
		for _, op := range ops {
			a := int32(op % n)
			b := int32((op / n) % n)
			uf.Union(a, b)
			adj[a][b], adj[b][a] = true, true
		}
		// Floyd-Warshall style closure.
		reach := adj
		for i := 0; i < n; i++ {
			reach[i][i] = true
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !reach[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				if uf.Connected(i, j) != reach[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBFSDijkstraAgreeOnUniformWeights: with all probabilities equal,
// Dijkstra hop ordering must match BFS hop counts (dist = hops * -ln p).
func TestQuickBFSDijkstraAgreeOnUniformWeights(t *testing.T) {
	f := func(seed uint64) bool {
		x := rng.NewXoshiro256(seed)
		n := 8 + x.Intn(8)
		b := NewBuilder(n)
		// Random connected-ish graph: a random spanning tree + extras.
		for i := 1; i < n; i++ {
			if err := b.AddEdge(NodeID(x.Intn(i)), NodeID(i), 0.5); err != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			u, v := NodeID(x.Intn(n)), NodeID(x.Intn(n))
			if u != v {
				_ = b.AddEdge(u, v, 0.5)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		hops := g.BFSAll(0)
		dist := g.Dijkstra(0)
		w := -math.Log(0.5)
		for i := 0; i < n; i++ {
			if hops[i] < 0 {
				if !math.IsInf(dist[i], 1) {
					return false
				}
				continue
			}
			if math.Abs(dist[i]-float64(hops[i])*w) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborSlicesConsistent(t *testing.T) {
	g := pathGraph(t, 5, 0.3)
	for u := NodeID(0); u < 5; u++ {
		nodes, ids, probs := g.NeighborSlices(u)
		if len(nodes) != g.Degree(u) || len(ids) != len(nodes) || len(probs) != len(nodes) {
			t.Fatalf("NeighborSlices lengths inconsistent at node %d", u)
		}
		i := 0
		g.Neighbors(u, func(v NodeID, id int32, p float64) {
			if nodes[i] != v || ids[i] != id || probs[i] != p {
				t.Fatalf("NeighborSlices disagree with Neighbors at node %d pos %d", u, i)
			}
			i++
		})
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 0.5}, {1, 2, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("FromEdges produced %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if _, err := FromEdges(2, []Edge{{0, 0, 0.5}}); err == nil {
		t.Fatal("FromEdges accepted a self loop")
	}
}

func TestDigestStableAndDiscriminates(t *testing.T) {
	build := func(p float64) *Uncertain {
		g, err := FromEdges(4, []Edge{{0, 1, p}, {1, 2, 0.5}, {2, 3, 0.7}})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := build(0.3), build(0.3)
	if a.Digest() == 0 {
		t.Fatal("digest must be non-zero")
	}
	if a.Digest() != a.Digest() {
		t.Fatal("digest not stable across calls")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("identical graphs disagree on digest")
	}
	if c := build(0.31); c.Digest() == a.Digest() {
		t.Fatal("changing an edge probability left the digest unchanged")
	}
	d, err := FromEdges(4, []Edge{{0, 1, 0.3}, {1, 2, 0.5}, {1, 3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Digest() == a.Digest() {
		t.Fatal("changing an endpoint left the digest unchanged")
	}
}

// TestBuildRejectsOverflowingNodeCount: a node count that the int32 CSR
// arrays cannot hold is an error naming the count, not a panic in Build's
// allocation or a truncated count. Build checks before it allocates.
func TestBuildRejectsOverflowingNodeCount(t *testing.T) {
	ensured := NewBuilder(1)
	ensured.EnsureNode(math.MaxInt32 - 1)
	for _, c := range []struct {
		b     *Builder
		count string
	}{
		{NewBuilder(math.MaxInt32), "2147483647"},
		{ensured, "2147483647"},
		{NewBuilder(1 << 31), "2147483648"},
		{NewBuilder(-3), "-3"},
	} {
		if _, err := c.b.Build(); err == nil || !strings.Contains(err.Error(), c.count) {
			t.Errorf("Build() with %s nodes: error %v, want one naming the count", c.count, err)
		}
	}
}
