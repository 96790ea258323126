package worldstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ucgraph/internal/datasets"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// scanConnectedFrom is the reference single-center kernel the indexed
// CountConnectedFrom must reproduce: one label compare per node per world.
func scanConnectedFrom(s *Store, c graph.NodeID, lo, hi int, counts []int32) {
	s.Scan(lo, hi, func(_ int, lab []int32) {
		lc := lab[c]
		for u, lu := range lab {
			if lu == lc {
				counts[u]++
			}
		}
	})
}

// indexShape is one graph shape the index must answer exactly on.
type indexShape struct {
	name string
	g    *graph.Uncertain
}

// indexShapes returns the three shapes of the kernel's cost model:
//   - krogan: one giant component, so almost every world is popcounts;
//   - ring: 60 communities of 10 joined in a ring by weak edges, the
//     fixture of internal/core's benchmarks, with no giant component, so
//     most worlds walk a small component;
//   - halves: two disjoint random graphs of equal size, each with its own
//     giant component, so the center is outside the largest component in
//     about half of the worlds and its walk runs out of budget.
func indexShapes(tb testing.TB) []indexShape {
	tb.Helper()
	ds, err := datasets.Krogan(1)
	if err != nil {
		tb.Fatal(err)
	}
	return []indexShape{
		{"krogan", ds.Graph},
		{"ring", communityRing(tb)},
		{"halves", twoHalves(tb, 2000)},
	}
}

// communityRing is internal/core's benchGraph: 60 communities of 10,
// dense inside, one weak edge to the next community.
func communityRing(tb testing.TB) *graph.Uncertain {
	tb.Helper()
	x := rng.NewXoshiro256(1)
	gb := graph.NewBuilder(600)
	for c := 0; c < 60; c++ {
		base := int32(c * 10)
		for i := int32(0); i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				if x.Float64() < 0.5 {
					_ = gb.AddEdge(base+i, base+j, 0.3+0.6*x.Float64())
				}
			}
		}
		next := int32(((c + 1) % 60) * 10)
		_ = gb.AddEdge(base+int32(x.Intn(10)), next+int32(x.Intn(10)), 0.1+0.3*x.Float64())
	}
	g, err := gb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// twoHalves builds two disjoint copies of one random graph on half nodes
// each (a ring plus random chords, edge probability 0.8): the same shape
// on both sides, independent coins.
func twoHalves(tb testing.TB, half int) *graph.Uncertain {
	tb.Helper()
	x := rng.NewXoshiro256(2)
	var edges [][2]int32
	for i := 0; i < half; i++ {
		edges = append(edges, [2]int32{int32(i), int32((i + 1) % half)})
		u, v := int32(x.Intn(half)), int32(x.Intn(half))
		if u != v {
			edges = append(edges, [2]int32{u, v})
		}
	}
	gb := graph.NewBuilder(2 * half)
	for side := int32(0); side < 2; side++ {
		off := side * int32(half)
		for _, e := range edges {
			_ = gb.AddEdge(off+e[0], off+e[1], 0.8)
		}
	}
	g, err := gb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// countCase is one single-center tally: worlds [lo, hi) from center c.
type countCase struct {
	c      graph.NodeID
	lo, hi int
}

// randomCases draws single-center tallies over the first blocks blocks of
// s: half of them inside one block, half across block boundaries.
func randomCases(s *Store, seed uint64, cases, blocks int) []countCase {
	x := rng.NewXoshiro256(seed)
	bw := s.BlockWorlds()
	out := make([]countCase, cases)
	for i := range out {
		cc := countCase{c: graph.NodeID(x.Intn(s.NumNodes()))}
		if i%2 == 0 {
			base := x.Intn(blocks) * bw
			cc.lo = base + x.Intn(bw)
			cc.hi = cc.lo + 1 + x.Intn(base+bw-cc.lo)
		} else {
			cc.lo = x.Intn(bw)
			cc.hi = bw + 1 + x.Intn((blocks-1)*bw)
		}
		out[i] = cc
	}
	return out
}

// checkCases compares the indexed kernel on s with the reference scan on
// ref (a separate store over the same worlds) for every case.
func checkCases(t *testing.T, tag string, s, ref *Store, cases []countCase) {
	t.Helper()
	n := s.NumNodes()
	for _, cc := range cases {
		got, want := make([]int32, n), make([]int32, n)
		s.CountConnectedFrom(cc.c, cc.lo, cc.hi, got)
		scanConnectedFrom(ref, cc.c, cc.lo, cc.hi, want)
		sameCounts(t, fmt.Sprintf("%s center %d worlds [%d,%d)", tag, cc.c, cc.lo, cc.hi),
			[][]int32{want}, [][]int32{got})
	}
}

func TestCountConnectedFromMatchesScan(t *testing.T) {
	const seed = 13
	for _, sh := range indexShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			ref := New(sh.g, seed)
			s := New(sh.g, seed)
			checkCases(t, "unbounded", s, ref, randomCases(s, 1, 16, 3))

			// Bounded, with a disk tier: room for two index blocks and no
			// label block, so the cases evict, spill and reload index
			// blocks, and every label block an index build or a walk's
			// fallback reads is evicted again right after.
			tiered := New(sh.g, seed)
			if err := tiered.AttachCache(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			budget := 2 * tiered.blockBytes(famComponents)
			tiered.SetBudget(budget)
			cases := randomCases(tiered, 2, 12, 4)
			for pass := 0; pass < 2; pass++ {
				checkCases(t, fmt.Sprintf("tiered pass %d", pass), tiered, ref, cases)
			}
			st := tiered.Stats()
			if st.Evictions == 0 || st.SpillWrites == 0 || st.DiskHits == 0 {
				t.Fatalf("tiered store did not evict, spill and reload: %+v", st)
			}
			if st.ResidentBytes > budget {
				t.Fatalf("ResidentBytes %d above budget %d", st.ResidentBytes, budget)
			}
		})
	}
}

// TestCountConnectedFromGrowingStream tallies on a stream that grows under
// the index: each call extends a running tally the way the estimator's
// tally cache does, and label scans extend block prefixes in between, so
// the indexes must be rebuilt as their blocks' prefixes grow.
func TestCountConnectedFromGrowingStream(t *testing.T) {
	const seed = 5
	for _, sh := range indexShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			ref := New(sh.g, seed)
			s := New(sh.g, seed)
			n, bw := s.NumNodes(), s.BlockWorlds()
			x := rng.NewXoshiro256(3)
			centers := []graph.NodeID{0, graph.NodeID(x.Intn(n)), graph.NodeID(x.Intn(n))}
			got := make([][]int32, len(centers))
			done := make([]int, len(centers))
			for j := range got {
				got[j] = make([]int32, n)
			}
			for r := 1; r <= 2*bw+bw/2; r += 1 + x.Intn(bw/4+1) {
				j := x.Intn(len(centers))
				s.CountConnectedFrom(centers[j], done[j], r, got[j])
				done[j] = r
				if x.Intn(3) == 0 {
					s.Scan(r, r+1+x.Intn(bw/4+1), func(int, []int32) {})
				}
				want := make([]int32, n)
				scanConnectedFrom(ref, centers[j], 0, r, want)
				sameCounts(t, fmt.Sprintf("center %d after %d worlds", centers[j], r),
					[][]int32{want}, [][]int32{got[j]})
			}
		})
	}
}

// TestCountConnectedFromConcurrent has many callers race on the first
// block of fresh stores — unbounded and with a budget of one label block
// and one index block — so they build and rebuild its index and evict it
// at once. Run it under -race.
func TestCountConnectedFromConcurrent(t *testing.T) {
	const seed, workers, calls = 21, 8, 12
	g := indexShapes(t)[0].g
	ref := New(g, seed)
	probe := New(g, seed)
	bw := probe.BlockWorlds()
	cases := make([]countCase, workers*calls)
	x := rng.NewXoshiro256(4)
	for i := range cases {
		lo := x.Intn(bw)
		cases[i] = countCase{c: graph.NodeID(x.Intn(g.NumNodes())), lo: lo, hi: lo + 1 + x.Intn(bw-lo)}
	}
	want := make([][]int32, len(cases))
	for i, cc := range cases {
		want[i] = make([]int32, g.NumNodes())
		scanConnectedFrom(ref, cc.c, cc.lo, cc.hi, want[i])
	}
	oneBlock := probe.blockBytes(famLabels) + probe.blockBytes(famComponents)
	for _, budget := range []int64{0, oneBlock} {
		s := New(g, seed)
		s.SetBudget(budget)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(cases); i += workers {
					cc := cases[i]
					got := make([]int32, g.NumNodes())
					s.CountConnectedFrom(cc.c, cc.lo, cc.hi, got)
					for u := range got {
						if got[u] != want[i][u] {
							t.Errorf("budget %d center %d worlds [%d,%d) node %d: %d, want %d",
								budget, cc.c, cc.lo, cc.hi, u, got[u], want[i][u])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if st := s.Stats(); budget > 0 && st.ResidentBytes > budget {
			t.Fatalf("ResidentBytes %d above budget %d after the callers finished", st.ResidentBytes, budget)
		}
	}
}

// TestCountConnectedFromChargesIndex checks the index's byte accounting:
// an index block is charged 8·ceil(bw/64)·n bytes and a label block
// 4·bw·n; the first tally over a block charges its index block and the
// label block the build read, a scan charges the label block alone, a
// second tally over an indexed block charges nothing more, eviction frees
// everything, and a batch over two blocks charges two of each.
func TestCountConnectedFromChargesIndex(t *testing.T) {
	g := indexShapes(t)[0].g
	s := New(g, 3)
	n, bw := g.NumNodes(), s.BlockWorlds()
	index := s.blockBytes(famComponents)
	if want := int64(8 * ((bw + 63) / 64) * n); index != want {
		t.Fatalf("index block bytes %d, want 8*ceil(bw/64)*n = %d", index, want)
	}
	labels := s.blockBytes(famLabels)
	if want := int64(4 * bw * n); labels != want {
		t.Fatalf("label block bytes %d, want 4*bw*n = %d", labels, want)
	}
	s.CountConnectedFrom(0, 0, bw/2, make([]int32, n))
	if st := s.Stats(); st.ResidentBytes != labels+index || st.ResidentComponentBlocks != 1 {
		t.Fatalf("tallied block: %+v, want one index block and its labels, %d bytes", st, labels+index)
	}
	s.CountConnectedFrom(0, bw/2, bw, make([]int32, n))
	s.Scan(bw, 2*bw, func(int, []int32) {})
	if st := s.Stats(); st.ResidentBytes != 2*labels+index || st.ResidentBlocks != 3 {
		t.Fatalf("one tallied and one scanned block: %+v, want %d bytes in 3 blocks", st, 2*labels+index)
	}
	s.SetBudget(1)
	if st := s.Stats(); st.ResidentBytes != 0 || st.ResidentBlocks != 0 {
		t.Fatalf("eviction left %d bytes in %d blocks", st.ResidentBytes, st.ResidentBlocks)
	}
	// A batch charges every index block it reads once, and the label
	// block each one is built from.
	s.SetBudget(0)
	s.CountConnectedFromMulti([]graph.NodeID{0, 1}, []int{0, bw}, 2*bw,
		[][]int32{make([]int32, n), make([]int32, n)})
	if st := s.Stats(); st.ResidentBytes != 2*(labels+index) || st.ResidentComponentBlocks != 2 {
		t.Fatalf("batch over two blocks: %+v, want 2 blocks of each family, %d bytes", st, 2*(labels+index))
	}
}

// notLargestGraph builds worlds whose indexed component is not the
// largest: the probed nodes i*n/componentProbes are joined by p = 1 edges
// into one small component of 64 nodes, and every other node lies on one
// p = 1 path of 448 nodes. Every world is the same, and a coin walk from
// the path outgrows walkBudget (n/8 = 64 adjacency entries).
func notLargestGraph(t testing.TB) *graph.Uncertain {
	t.Helper()
	const n, stride = 8 * componentProbes, 8
	var edges []graph.Edge
	for u := int32(stride); u < n; u += stride {
		edges = append(edges, graph.Edge{U: u - stride, V: u, P: 1})
	}
	prev := int32(1)
	for u := int32(2); u < n; u++ {
		if u%stride != 0 {
			edges = append(edges, graph.Edge{U: prev, V: u, P: 1})
			prev = u
		}
	}
	return mustGraph(t, n, edges)
}

// TestCountConnectedFromIndexNotLargest tallies on notLargestGraph: the
// index holds the small probed component, and centers on both sides,
// single and batched, must still count exactly.
func TestCountConnectedFromIndexNotLargest(t *testing.T) {
	g := notLargestGraph(t)
	n := g.NumNodes()
	ref, s := New(g, 3), New(g, 3)
	bw := s.BlockWorlds()
	s.CountConnectedFrom(0, 0, 1, make([]int32, n))
	comps := s.blocks[famComponents][0].comps
	probe, path := comps[0]&1, comps[1]&1
	if probe != 1 || path != 0 {
		t.Fatalf("world 0 indexes node 0: %d, node 1: %d; want the probed component", probe, path)
	}
	cs := []graph.NodeID{0, 1, graph.NodeID(n - 8), graph.NodeID(n - 1)}
	lo := []int{0, 3, bw - 1, bw + 7}
	hi := 2*bw + 5
	got, want := make([][]int32, len(cs)), make([][]int32, len(cs))
	for j, c := range cs {
		got[j], want[j] = make([]int32, n), make([]int32, n)
		scanConnectedFrom(ref, c, lo[j], hi, want[j])
		single := make([]int32, n)
		s.CountConnectedFrom(c, lo[j], hi, single)
		sameCounts(t, fmt.Sprintf("single center %d", c), want[j:j+1], [][]int32{single})
	}
	s.CountConnectedFromMulti(cs, lo, hi, got)
	sameCounts(t, "batch", want, got)
}

// scanPair is the reference pair kernel CountPairCtx must reproduce: one
// label compare per world, aborting at a block boundary like the kernel.
func scanPair(ctx context.Context, s *Store, u, v graph.NodeID, lo, hi int) (int64, error) {
	var cnt int64
	err := s.ScanCtx(ctx, lo, hi, func(_ int, lab []int32) {
		if lab[u] == lab[v] {
			cnt++
		}
	})
	return cnt, err
}

// withIsolated returns g with one more node, n, that has no edge.
func withIsolated(t testing.TB, g *graph.Uncertain) *graph.Uncertain {
	t.Helper()
	return mustGraph(t, g.NumNodes()+1, g.Edges())
}

// TestCountPairMatchesLabels compares CountPairCtx with the reference
// label compare on the three index shapes, on notLargestGraph (whose walks
// from the path outgrow walkBudget) and on Krogan with an isolated node:
// random pairs, neighbor pairs (both endpoints off the index and joined by
// a present edge in some worlds), u == v, the last node (the isolated one
// on the last shape), ranges that start or end mid-block, and a cancelled
// context. The first count on a fresh store builds the index blocks of
// its range: pairs read the index family.
func TestCountPairMatchesLabels(t *testing.T) {
	const seed = 31
	shapes := indexShapes(t)
	shapes = append(shapes,
		indexShape{"not-largest", notLargestGraph(t)},
		indexShape{"krogan+isolated", withIsolated(t, shapes[0].g)})
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref, s := New(sh.g, seed), New(sh.g, seed)
			n, bw := s.NumNodes(), s.BlockWorlds()
			last := graph.NodeID(n - 1)
			x := rng.NewXoshiro256(6)
			pairs := [][2]graph.NodeID{{0, 0}, {last, last}, {0, last}, {last, 1}, {1, last - 1}}
			for range 6 {
				u := graph.NodeID(x.Intn(n))
				pairs = append(pairs, [2]graph.NodeID{u, graph.NodeID(x.Intn(n))})
				if nodes, _, _ := sh.g.NeighborSlices(u); len(nodes) > 0 {
					pairs = append(pairs, [2]graph.NodeID{u, nodes[x.Intn(len(nodes))]})
				}
			}
			ranges := [][2]int{{0, 3 * bw}, {bw / 2, bw/2 + 1}, {5, 2*bw - 3}, {bw - 1, 2*bw + bw/2}, {-4, bw}}
			ctx := context.Background()
			s.CountPairCtx(ctx, 0, 1, 0, 3*bw)
			if st := s.Stats(); st.ResidentComponentBlocks != 3 {
				t.Fatalf("a pair count over 3 blocks left %d index blocks resident, want 3", st.ResidentComponentBlocks)
			}
			for _, p := range pairs {
				for _, rg := range ranges {
					got, err := s.CountPairCtx(ctx, p[0], p[1], rg[0], rg[1])
					want, _ := scanPair(ctx, ref, p[0], p[1], rg[0], rg[1])
					if err != nil || got != want {
						t.Fatalf("pair %v worlds [%d,%d): %d (err %v), want %d", p, rg[0], rg[1], got, err, want)
					}
				}
			}
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			got, err := s.CountPairCtx(cancelled, 0, 1, 0, 2*bw)
			want, werr := scanPair(cancelled, ref, 0, 1, 0, 2*bw)
			if got != want || !errors.Is(err, context.Canceled) || !errors.Is(werr, context.Canceled) {
				t.Fatalf("cancelled context: %d (err %v), want %d (err %v)", got, err, want, werr)
			}
		})
	}
}

// TestIndexedCountsReadNoLabels: under a budget that holds the index
// blocks of a store's worlds and one label block for their builds, a tally
// builds every index block and keeps them all, because each build releases
// its label block as the least recently used block and the next build
// evicts that one instead of an index block. Once the budget shrinks to
// the index blocks (the shape of dblp-tiered's store), unlimited-depth
// pairs and a 2-center tally materialize no block, so they read no label:
// on Krogan and on DBLP at 6,000 authors every world has a giant
// component, and the walks off the index stay within walkBudget.
func TestIndexedCountsReadNoLabels(t *testing.T) {
	shapes := []indexShape{indexShapes(t)[0], {"dblp-6k", dblpGraph(t, 6000)}}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			const seed, blocks = 7, 3
			ref, s := New(sh.g, seed), New(sh.g, seed)
			n, bw := s.NumNodes(), s.BlockWorlds()
			r := blocks * bw
			cs := []graph.NodeID{0, graph.NodeID(n / 2)}
			lo := []int{0, bw / 2}
			indexBlocks := blocks * s.blockBytes(famComponents)
			s.SetBudget(indexBlocks + s.blockBytes(famLabels))
			s.CountConnectedFromMulti(cs, lo, r, [][]int32{make([]int32, n), make([]int32, n)})
			if st := s.Stats(); st.ResidentComponentBlocks != blocks {
				t.Fatalf("building %d index blocks left %d resident: %+v", blocks, st.ResidentComponentBlocks, st)
			}
			s.SetBudget(indexBlocks)
			before := s.Stats()
			if before.ResidentComponentBlocks != blocks || before.ResidentLabelBlocks != 0 {
				t.Fatalf("%+v, want %d index blocks and no label block", before, blocks)
			}
			ctx := context.Background()
			nodes, _, _ := sh.g.NeighborSlices(cs[1])
			for _, p := range [][2]graph.NodeID{{0, graph.NodeID(n - 1)}, {cs[1], nodes[0]}, {3, 3}} {
				got, _ := s.CountPairCtx(ctx, p[0], p[1], 1, r)
				if want, _ := scanPair(ctx, ref, p[0], p[1], 1, r); got != want {
					t.Fatalf("pair %v: %d, want %d", p, got, want)
				}
			}
			got, want := make([][]int32, len(cs)), make([][]int32, len(cs))
			for j, c := range cs {
				got[j], want[j] = make([]int32, n), make([]int32, n)
				scanConnectedFrom(ref, c, lo[j], r, want[j])
			}
			s.CountConnectedFromMulti(cs, lo, r, got)
			sameCounts(t, "indexed tally", want, got)
			if after := s.Stats(); after.Materializations != before.Materializations || after.ResidentLabelBlocks != 0 {
				t.Fatalf("pairs and a tally over resident index blocks materialized %d blocks: %+v",
					after.Materializations-before.Materializations, after)
			}
		})
	}
}

// TestCoinWalkOverBudgetReadsLabels: on notLargestGraph a center on the
// long path lies off the index in a component that a coin walk cannot
// finish within walkBudget. Such a tally and a pair along the path fall
// back to the labels — the label block is materialized again under a
// budget that holds only the index block — and count exactly.
func TestCoinWalkOverBudgetReadsLabels(t *testing.T) {
	g := notLargestGraph(t)
	n := g.NumNodes()
	ref, s := New(g, 5), New(g, 5)
	bw := s.BlockWorlds()
	s.SetBudget(s.blockBytes(famComponents))
	s.CountConnectedFrom(0, 0, bw, make([]int32, n))
	before := s.Stats()
	if before.ResidentComponentBlocks != 1 || before.ResidentLabelBlocks != 0 {
		t.Fatalf("%+v, want the index block resident and the label block evicted", before)
	}
	got, want := make([]int32, n), make([]int32, n)
	s.CountConnectedFrom(1, 0, bw, got)
	scanConnectedFrom(ref, 1, 0, bw, want)
	sameCounts(t, "over-budget walk", [][]int32{want}, [][]int32{got})
	ctx := context.Background()
	pair, _ := s.CountPairCtx(ctx, 1, graph.NodeID(n-1), 0, bw)
	if wantPair, _ := scanPair(ctx, ref, 1, graph.NodeID(n-1), 0, bw); pair != wantPair || pair != int64(bw) {
		t.Fatalf("pair along the path: %d, want %d (every world)", pair, wantPair)
	}
	if d := s.Stats().Materializations - before.Materializations; d != 2 {
		t.Fatalf("the tally and the pair materialized %d blocks, want their label block twice", d)
	}
}

// TestCountOutOfRangeNodePanics: a pair endpoint or a center outside the
// graph panics, as a label compare does, instead of reading the next
// index row. Krogan's blocks hold more than 64 worlds, so node n would
// fall inside the second row of a flat read.
func TestCountOutOfRangeNodePanics(t *testing.T) {
	s := New(indexShapes(t)[0].g, 3)
	n := graph.NodeID(s.NumNodes())
	if s.BlockWorlds() <= 64 {
		t.Fatalf("blocks of %d worlds have one index row; the test needs two", s.BlockWorlds())
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		count func()
	}{
		{"pair (n, 0)", func() { s.CountPairCtx(ctx, n, 0, 0, 1) }},
		{"pair (0, n)", func() { s.CountPairCtx(ctx, 0, n, 0, 1) }},
		{"center n", func() { s.CountConnectedFrom(n, 0, 1, make([]int32, n)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a graph of %d nodes did not panic", tc.name, n)
				}
			}()
			tc.count()
		}()
	}
}

// BenchmarkCountConnectedFrom times center tallies over the first r worlds
// of a warm store (labels materialized, index built) on the three shapes
// of indexShapes: one center indexed and with the reference scan, and a
// 16-center CountConnectedFromMulti batch.
func BenchmarkCountConnectedFrom(b *testing.B) {
	for _, sh := range indexShapes(b) {
		for _, r := range []int{50, 512} {
			s := New(sh.g, 7)
			n := s.NumNodes()
			counts := make([]int32, n)
			s.CountConnectedFrom(0, 0, r, counts)
			cs, lo, batch := make([]graph.NodeID, 16), make([]int, 16), make([][]int32, 16)
			for j := range cs {
				cs[j], batch[j] = graph.NodeID(j*n/len(cs)), make([]int32, n)
			}
			for _, k := range []struct {
				name  string
				count func()
			}{
				{"indexed", func() { clear(counts); s.CountConnectedFrom(0, 0, r, counts) }},
				{"scan", func() { clear(counts); scanConnectedFrom(s, 0, 0, r, counts) }},
				{"multi16", func() {
					for _, row := range batch {
						clear(row)
					}
					s.CountConnectedFromMulti(cs, lo, r, batch)
				}},
			} {
				b.Run(fmt.Sprintf("%s/r=%d/%s", sh.name, r, k.name), func(b *testing.B) {
					for b.Loop() {
						k.count()
					}
					b.ReportMetric(float64(r), "worlds/op")
				})
			}
		}
	}
}

// BenchmarkCountPair times one unlimited-depth pair count, CountPairCtx,
// in two cache states. Warm: 1,024 worlds of a store whose blocks are all
// resident, on the three shapes of indexShapes. Disk: 64 worlds of DBLP at
// 40,000 authors (8-world blocks) on a store with a disk tier that has
// spilled every block, under a budget that holds the 8 index blocks of
// those worlds but no label block, after one count has reloaded them;
// loads/op counts the blocks each count reloads from the disk tier.
func BenchmarkCountPair(b *testing.B) {
	ctx := context.Background()
	for _, sh := range indexShapes(b) {
		const r = 1024
		s := New(sh.g, 7)
		u, v := graph.NodeID(0), graph.NodeID(s.NumNodes()/2)
		s.CountPairCtx(ctx, u, v, 0, r)
		b.Run(fmt.Sprintf("%s/r=%d", sh.name, r), func(b *testing.B) {
			for b.Loop() {
				s.CountPairCtx(ctx, u, v, 0, r)
			}
			b.ReportMetric(r, "worlds/op")
		})
	}
	const worlds = 64
	s := New(dblpGraph(b, 40000), 7)
	if err := s.AttachCache(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	u, v := graph.NodeID(0), graph.NodeID(s.NumNodes()/2)
	s.CountPairCtx(ctx, u, v, 0, worlds)
	s.SetBudget(1) // spill every block
	s.SetBudget(int64(worlds/s.BlockWorlds()) * s.blockBytes(famComponents))
	s.CountPairCtx(ctx, u, v, 0, worlds)
	b.Run("dblp-40k/spilled", func(b *testing.B) {
		before := s.Stats()
		for b.Loop() {
			s.CountPairCtx(ctx, u, v, 0, worlds)
		}
		b.ReportMetric(float64(s.Stats().DiskHits-before.DiskHits)/float64(b.N), "loads/op")
		b.ReportMetric(worlds, "worlds/op")
	})
}
