package mcl

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Uncertain {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cliquePair builds two p-cliques of the given size joined by a weak edge.
func cliquePair(t *testing.T, size int, pIn, pBridge float64) *graph.Uncertain {
	t.Helper()
	var edges []graph.Edge
	for c := 0; c < 2; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, graph.Edge{U: int32(base + i), V: int32(base + j), P: pIn})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: int32(size), P: pBridge})
	return mustGraph(t, 2*size, edges)
}

func TestMatrixBasics(t *testing.T) {
	m := newMatrix(3)
	m.cols[0] = []entry{{row: 0, val: 2}, {row: 1, val: 2}}
	m.cols[1] = []entry{{row: 1, val: 5}}
	m.cols[2] = []entry{{row: 0, val: 1}, {row: 2, val: 3}}
	if m.nnz() != 5 {
		t.Fatalf("nnz = %d, want 5", m.nnz())
	}
	if m.at(1, 0) != 2 || m.at(2, 0) != 0 || m.at(2, 2) != 3 {
		t.Fatal("at() returned wrong values")
	}
	m.normalize()
	for j := int32(0); j < 3; j++ {
		s := 0.0
		for _, e := range m.cols[j] {
			s += e.val
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("column %d sums to %v after normalize", j, s)
		}
	}
}

func TestSquareColumnMatchesDense(t *testing.T) {
	// Compare sparse M*M column against a dense reference on a small
	// random-ish matrix.
	const n = 6
	m := newMatrix(n)
	dense := [n][n]float64{}
	vals := []float64{0.3, 0.7, 0.1, 0.9, 0.5, 0.2, 0.4, 0.8}
	vi := 0
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if (i*7+j*3)%4 == 0 {
				v := vals[vi%len(vals)]
				vi++
				dense[i][j] = v
				m.cols[j] = append(m.cols[j], entry{row: int32(i), val: v})
			}
		}
	}
	var want [n][n]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				want[i][j] += dense[i][k] * dense[k][j]
			}
		}
	}
	acc := make([]float64, n)
	touched := make([]int32, 0, n)
	for j := int32(0); j < n; j++ {
		col := m.squareColumn(j, acc, touched, nil)
		got := [n]float64{}
		for _, e := range col {
			got[e.row] = e.val
		}
		for i := 0; i < n; i++ {
			if math.Abs(got[i]-want[i][j]) > 1e-12 {
				t.Fatalf("M^2[%d][%d] = %v, want %v", i, j, got[i], want[i][j])
			}
		}
		// Rows must be sorted.
		for x := 1; x < len(col); x++ {
			if col[x].row <= col[x-1].row {
				t.Fatal("squareColumn output not row-sorted")
			}
		}
	}
}

func TestInflateColumn(t *testing.T) {
	col := []entry{{row: 0, val: 0.5}, {row: 1, val: 0.25}, {row: 2, val: 0.25}}
	out := inflateColumn(col, 2, 0)
	// Squares: 0.25, 0.0625, 0.0625; normalized: 2/3, 1/6, 1/6.
	if math.Abs(out[0].val-2.0/3) > 1e-12 || math.Abs(out[1].val-1.0/6) > 1e-12 {
		t.Fatalf("inflation wrong: %v", out)
	}
	// Inflation must keep the column stochastic.
	s := 0.0
	for _, e := range out {
		s += e.val
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("inflated column sums to %v", s)
	}
}

func TestInflateColumnPrunesButKeepsMax(t *testing.T) {
	col := []entry{{row: 0, val: 0.999}, {row: 1, val: 0.001}}
	out := inflateColumn(col, 2, 1e-3)
	if len(out) != 1 || out[0].row != 0 {
		t.Fatalf("pruning kept %v", out)
	}
	if math.Abs(out[0].val-1) > 1e-12 {
		t.Fatalf("pruned column not renormalized: %v", out[0].val)
	}
	// A uniform tiny column keeps its max even below the floor.
	col2 := []entry{{row: 3, val: 1e-9}}
	out2 := inflateColumn(col2, 2, 1e-3)
	if len(out2) != 1 {
		t.Fatal("recovery rule dropped the max entry")
	}
}

func TestTruncateColumn(t *testing.T) {
	col := []entry{
		{row: 0, val: 0.1}, {row: 1, val: 0.4}, {row: 2, val: 0.05},
		{row: 3, val: 0.3}, {row: 4, val: 0.15},
	}
	out := truncateColumn(col, 2)
	if len(out) != 2 {
		t.Fatalf("kept %d entries, want 2", len(out))
	}
	if out[0].row != 1 || out[1].row != 3 {
		t.Fatalf("kept wrong rows: %v", out)
	}
	s := out[0].val + out[1].val
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("truncated column sums to %v", s)
	}
	// Ratio preserved: 0.4/0.3.
	if math.Abs(out[0].val/out[1].val-0.4/0.3) > 1e-9 {
		t.Fatalf("truncation distorted ratios: %v", out)
	}
}

func TestTruncateColumnTies(t *testing.T) {
	col := []entry{{row: 0, val: 0.25}, {row: 1, val: 0.25}, {row: 2, val: 0.25}, {row: 3, val: 0.25}}
	out := truncateColumn(col, 2)
	if len(out) != 2 {
		t.Fatalf("tie handling kept %d entries, want 2", len(out))
	}
}

func TestTruncateColumnNoop(t *testing.T) {
	col := []entry{{row: 0, val: 0.5}, {row: 1, val: 0.5}}
	if got := truncateColumn(col, 5); len(got) != 2 {
		t.Fatal("truncate below nnz must be a no-op")
	}
	if got := truncateColumn(col, -1); len(got) != 2 {
		t.Fatal("negative maxNNZ must disable truncation")
	}
}

func TestMCLSeparatesCliquePair(t *testing.T) {
	g := cliquePair(t, 5, 0.9, 0.05)
	res := Cluster(g, Options{})
	if !res.Converged {
		t.Fatalf("MCL did not converge in %d iterations (chaos %v)", res.Iterations, res.Chaos)
	}
	cl := res.Clustering
	if cl.K() != 2 {
		t.Fatalf("K = %d, want 2 clusters for a weakly-bridged clique pair", cl.K())
	}
	for u := 1; u < 5; u++ {
		if cl.Assign[u] != cl.Assign[0] {
			t.Fatalf("clique A split at node %d", u)
		}
	}
	for u := 6; u < 10; u++ {
		if cl.Assign[u] != cl.Assign[5] {
			t.Fatalf("clique B split at node %d", u)
		}
	}
	if cl.Assign[0] == cl.Assign[5] {
		t.Fatal("cliques merged")
	}
	if msg := cl.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

func TestMCLDisjointCliques(t *testing.T) {
	// Three disjoint certain triangles must give exactly 3 clusters.
	var edges []graph.Edge
	for c := 0; c < 3; c++ {
		b := int32(c * 3)
		edges = append(edges,
			graph.Edge{U: b, V: b + 1, P: 1}, graph.Edge{U: b + 1, V: b + 2, P: 1},
			graph.Edge{U: b, V: b + 2, P: 1})
	}
	g := mustGraph(t, 9, edges)
	res := Cluster(g, Options{})
	if res.Clustering.K() != 3 {
		t.Fatalf("K = %d, want 3", res.Clustering.K())
	}
}

func TestMCLInflationControlsGranularity(t *testing.T) {
	// A ring of weakly linked triangles: higher inflation must give at
	// least as many clusters as lower inflation.
	var edges []graph.Edge
	const blocks = 6
	for c := 0; c < blocks; c++ {
		b := int32(c * 3)
		edges = append(edges,
			graph.Edge{U: b, V: b + 1, P: 0.9}, graph.Edge{U: b + 1, V: b + 2, P: 0.9},
			graph.Edge{U: b, V: b + 2, P: 0.9},
			graph.Edge{U: b + 2, V: (b + 3) % (3 * blocks), P: 0.4})
	}
	g := mustGraph(t, 3*blocks, edges)
	kLow := Cluster(g, Options{Inflation: 1.2}).Clustering.K()
	kHigh := Cluster(g, Options{Inflation: 2.5}).Clustering.K()
	if kHigh < kLow {
		t.Fatalf("inflation 2.5 gave %d clusters < inflation 1.2's %d", kHigh, kLow)
	}
	if kHigh < 2 {
		t.Fatalf("high inflation found only %d clusters on %d blocks", kHigh, blocks)
	}
}

func TestMCLSingleNodeAndTinyGraphs(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{{U: 0, V: 1, P: 0.5}})
	res := Cluster(g, Options{})
	cl := res.Clustering
	if cl.N() != 2 {
		t.Fatalf("N = %d", cl.N())
	}
	if msg := cl.Validate(); msg != "" {
		t.Fatal(msg)
	}
	if !cl.IsFull() {
		t.Fatal("MCL must assign every node")
	}
}

func TestMCLIsolatedNodes(t *testing.T) {
	// Node 3 has no edges: it must end up in its own cluster.
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}})
	res := Cluster(g, Options{})
	cl := res.Clustering
	if !cl.IsFull() {
		t.Fatal("isolated node unassigned")
	}
	own := cl.Assign[3]
	for u := 0; u < 3; u++ {
		if cl.Assign[u] == own {
			t.Fatal("isolated node clustered with the path")
		}
	}
}

func TestMCLDeterministic(t *testing.T) {
	g := cliquePair(t, 4, 0.8, 0.2)
	a := Cluster(g, Options{}).Clustering
	b := Cluster(g, Options{}).Clustering
	for u := range a.Assign {
		if a.Assign[u] != b.Assign[u] {
			t.Fatal("MCL is not deterministic")
		}
	}
}

func TestMCLAttractorCenters(t *testing.T) {
	g := cliquePair(t, 5, 0.9, 0.05)
	cl := Cluster(g, Options{}).Clustering
	// Each center must belong to its own cluster (Validate checks), and
	// centers must be distinct.
	seen := map[graph.NodeID]bool{}
	for _, c := range cl.Centers {
		if seen[c] {
			t.Fatalf("duplicate center %d", c)
		}
		seen[c] = true
	}
	if msg := cl.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

// TestMCLDeterministicAcrossWorkers runs MCL with GOMAXPROCS, the worker
// budget of the expansion step, at 1, 2 and 4 and requires identical
// clusterings, iteration counts and chaos.
func TestMCLDeterministicAcrossWorkers(t *testing.T) {
	// Twelve 25-node communities with random inner edges and a ring of
	// weak bridges: enough columns that every share expands several.
	x := rng.NewXoshiro256(11)
	var edges []graph.Edge
	const groups, size = 12, 25
	for c := 0; c < groups; c++ {
		base := int32(c * size)
		for i := int32(0); i < size; i++ {
			for j := i + 1; j < size; j++ {
				if x.Float64() < 0.3 {
					edges = append(edges, graph.Edge{U: base + i, V: base + j, P: 0.4 + 0.5*x.Float64()})
				}
			}
		}
		edges = append(edges, graph.Edge{U: base, V: int32((c + 1) % groups * size), P: 0.1})
	}
	g := mustGraph(t, groups*size, edges)

	var ref *Result
	for _, procs := range []int{1, 2, 4} {
		var res *Result
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res = Cluster(g, Options{})
		}()
		if ref == nil {
			ref = res
			continue
		}
		if res.Iterations != ref.Iterations || res.Chaos != ref.Chaos || res.Converged != ref.Converged {
			t.Fatalf("GOMAXPROCS=%d: %d iterations, chaos %v, converged %v; serial %d, %v, %v",
				procs, res.Iterations, res.Chaos, res.Converged, ref.Iterations, ref.Chaos, ref.Converged)
		}
		if !slices.Equal(res.Clustering.Centers, ref.Clustering.Centers) ||
			!slices.Equal(res.Clustering.Assign, ref.Clustering.Assign) {
			t.Fatalf("GOMAXPROCS=%d: clustering differs from the serial run", procs)
		}
	}
	if ref.Clustering.K() < 2 {
		t.Fatalf("fixture clustered into %d cluster(s); the comparison needs several", ref.Clustering.K())
	}
}
