package worldstore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
)

func mustGraph(t testing.TB, n int, edges []graph.Edge) *graph.Uncertain {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pathGraph(t testing.TB, n int, p float64) *graph.Uncertain {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1), P: p})
	}
	return mustGraph(t, n, edges)
}

// ringGraph builds a ring with a few chords, sized so that several label
// blocks exist at small block sizes.
func ringGraph(t testing.TB, n int, seed uint64) *graph.Uncertain {
	t.Helper()
	x := rng.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%n), 0.2+0.7*x.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/4; i++ {
		u, v := int32(x.Intn(n)), int32(x.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v, 0.1+0.8*x.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// snapshotLabels collects the labels of worlds [0, r) into a copy.
func snapshotLabels(s *Store, r int) [][]int32 {
	out := make([][]int32, r)
	s.Scan(0, r, func(i int, lab []int32) {
		cp := make([]int32, len(lab))
		copy(cp, lab)
		out[i] = cp
	})
	return out
}

func TestScanDeterministicAndLazy(t *testing.T) {
	g := ringGraph(t, 40, 1)
	a := New(g, 7)
	b := New(g, 7)
	if st := a.Stats(); st.ResidentBlocks != 0 || st.Materializations != 0 {
		t.Fatalf("fresh store already materialized: %+v", st)
	}
	a.Grow(500)
	if st := a.Stats(); st.Materializations != 0 {
		t.Fatalf("Grow materialized blocks eagerly: %+v", st)
	}
	la := snapshotLabels(a, 500)
	lb := snapshotLabels(b, 500)
	for i := range la {
		for u := range la[i] {
			if la[i][u] != lb[i][u] {
				t.Fatalf("world %d node %d: labels differ across stores", i, u)
			}
		}
	}
	if a.Worlds() != 500 {
		t.Fatalf("Worlds() = %d, want 500", a.Worlds())
	}
	a.Grow(100)
	if a.Worlds() != 500 {
		t.Fatalf("Grow never shrinks; Worlds() = %d", a.Worlds())
	}
}

func TestBoundedModeBitIdentical(t *testing.T) {
	// The headline guarantee of bounded-memory mode: evicting and
	// recomputing label blocks returns bit-identical labels and counts.
	g := ringGraph(t, 60, 3)
	const r = 400

	unbounded := New(g, 11)
	want := snapshotLabels(unbounded, r)
	wantCounts := make([]int32, g.NumNodes())
	unbounded.CountConnectedFrom(0, 0, r, wantCounts)

	bounded := New(g, 11)
	bounded.SetBudget(1) // degenerate budget: one resident block
	if bounded.Stats().BlockWorlds >= r {
		t.Skip("graph too small for multiple blocks at this r")
	}
	// Two full passes plus interleaved re-reads force eviction churn.
	for pass := 0; pass < 2; pass++ {
		got := snapshotLabels(bounded, r)
		for i := range want {
			for u := range want[i] {
				if got[i][u] != want[i][u] {
					t.Fatalf("pass %d world %d node %d: bounded label %d != unbounded %d",
						pass, i, u, got[i][u], want[i][u])
				}
			}
		}
	}
	gotCounts := make([]int32, g.NumNodes())
	bounded.CountConnectedFrom(0, 0, r, gotCounts)
	for u := range wantCounts {
		if gotCounts[u] != wantCounts[u] {
			t.Fatalf("node %d: bounded count %d != unbounded %d", u, gotCounts[u], wantCounts[u])
		}
	}
	st := bounded.Stats()
	if st.Evictions == 0 {
		t.Fatalf("bounded run evicted nothing (stats %+v); budget not exercised", st)
	}
	if st.ResidentBlocks > 1 {
		t.Fatalf("budget of one block left %d resident", st.ResidentBlocks)
	}
}

func TestSetBudgetShrinkEvictsImmediately(t *testing.T) {
	g := ringGraph(t, 50, 5)
	s := New(g, 9)
	snapshotLabels(s, 600)
	before := s.Stats()
	if before.ResidentBlocks < 2 {
		t.Skipf("only %d blocks materialized", before.ResidentBlocks)
	}
	s.SetBudget(s.blockBytes(famLabels)) // exactly one block
	after := s.Stats()
	if after.ResidentBlocks != 1 {
		t.Fatalf("shrink left %d blocks resident", after.ResidentBlocks)
	}
}

func TestCountConnectedFromMultiMatchesSingle(t *testing.T) {
	g := ringGraph(t, 35, 13)
	s := New(g, 17)
	const hi = 300
	centers := []graph.NodeID{0, 5, 5, 12, 34, 1} // includes a duplicate
	lo := []int{0, 40, 0, 250, 7, 299}
	multi := make([][]int32, len(centers))
	for j := range multi {
		multi[j] = make([]int32, g.NumNodes())
	}
	s.CountConnectedFromMulti(centers, lo, hi, multi)
	for j, c := range centers {
		single := make([]int32, g.NumNodes())
		scanConnectedFrom(s, c, lo[j], hi, single)
		for u := range single {
			if multi[j][u] != single[u] {
				t.Fatalf("center %d (lo %d) node %d: multi %d != scan %d",
					c, lo[j], u, multi[j][u], single[u])
			}
		}
	}
}

func TestCountConnectedFromMultiEmptyRanges(t *testing.T) {
	g := pathGraph(t, 6, 0.5)
	s := New(g, 1)
	counts := [][]int32{make([]int32, 6)}
	s.CountConnectedFromMulti([]graph.NodeID{2}, []int{100}, 100, counts)
	for u, c := range counts[0] {
		if c != 0 {
			t.Fatalf("empty range counted node %d: %d", u, c)
		}
	}
	s.CountConnectedFromMulti(nil, nil, 50, nil)
}

func TestEstimatePairSingleEdge(t *testing.T) {
	g := pathGraph(t, 2, 0.42)
	s := New(g, 123)
	got := s.EstimatePair(0, 1, 30000)
	sigma := math.Sqrt(0.42 * 0.58 / 30000)
	if math.Abs(got-0.42) > 6*sigma {
		t.Fatalf("EstimatePair = %v, want ~0.42", got)
	}
}

func TestEstimateFromPathProduct(t *testing.T) {
	// On a tree, Pr(u ~ v) is the product of edge probabilities on the
	// unique path. Check the estimator against the closed form.
	g := pathGraph(t, 4, 0.8)
	s := New(g, 99)
	const r = 40000
	counts := make([]int32, 4)
	s.CountConnectedFrom(0, 0, r, counts)
	for i, want := range []float64{1, 0.8, 0.64, 0.512} {
		est := float64(counts[i]) / r
		sigma := math.Sqrt(want*(1-want)/r) + 1e-9
		if math.Abs(est-want) > 6*sigma {
			t.Fatalf("est[%d] = %v, want ~%v", i, est, want)
		}
	}
	if counts[0] != r {
		t.Fatalf("Pr(c ~ c) counted in %d of %d worlds, want all", counts[0], r)
	}
}

func TestSharedReturnsSameStore(t *testing.T) {
	g := pathGraph(t, 8, 0.5)
	a := Shared(g, 42)
	b := Shared(g, 42)
	if a != b {
		t.Fatal("Shared returned two stores for one (graph, seed)")
	}
	if c := Shared(g, 43); c == a {
		t.Fatal("different seeds share a store")
	}
	g2 := pathGraph(t, 8, 0.5)
	if d := Shared(g2, 42); d == a {
		t.Fatal("different graph values share a store")
	}
}

func TestConcurrentScansShareOneMaterialization(t *testing.T) {
	g := ringGraph(t, 30, 21)
	s := New(g, 33)
	const r = 500
	want := snapshotLabels(New(g, 33), r)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Scan(0, r, func(i int, lab []int32) {
				for u := range lab {
					if lab[u] != want[i][u] {
						select {
						case errs <- "concurrent scan observed wrong labels":
						default:
						}
						return
					}
				}
			})
		}()
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	blocks := (r + s.bw - 1) / s.bw
	if st := s.Stats(); st.Materializations != uint64(blocks) {
		t.Fatalf("8 concurrent scans materialized %d blocks, want %d (one per block)",
			st.Materializations, blocks)
	}
}

func TestScanBitsMatchesImplicitWorlds(t *testing.T) {
	// Bitmap blocks are just materializations of the implicit world
	// stream: every bit must agree with World.Contains, in fresh stores
	// and after partial-prefix extension.
	g := ringGraph(t, 40, 2)
	s := New(g, 7)
	check := func(lo, hi int) {
		s.ScanBits(lo, hi, func(i int, bits []uint64) {
			w := s.World(i)
			for id := int32(0); id < int32(g.NumEdges()); id++ {
				if sampler.BitmapContains(bits, id) != w.Contains(id) {
					t.Fatalf("world %d edge %d: bitmap disagrees with coin", i, id)
				}
			}
		})
	}
	check(0, 3)   // partial prefix
	check(0, 40)  // extended prefix of the same block
	check(37, 90) // crossing a block boundary
}

func TestCountWithinMultiMatchesReachCounter(t *testing.T) {
	// The batched depth-limited counts must be bit-identical to a serial
	// per-center ReachCounter over the same (seed, range), including
	// per-center lo offsets and duplicate centers.
	g := ringGraph(t, 35, 13)
	const seed, hi = 17, 300
	s := New(g, seed)
	centers := []graph.NodeID{0, 5, 5, 12, 34, 1} // includes a duplicate
	lo := []int{0, 40, 0, 250, 7, 299}
	for _, depth := range []int{0, 1, 2, 5, -1} {
		multi := make([][]int32, len(centers))
		for j := range multi {
			multi[j] = make([]int32, g.NumNodes())
		}
		s.CountWithinMulti(centers, depth, lo, hi, multi)
		rc := sampler.NewReachCounter(g, seed)
		for j, c := range centers {
			single := make([]int32, g.NumNodes())
			rc.CountWithin(c, depth, lo[j], hi, single)
			for u := range single {
				if multi[j][u] != single[u] {
					t.Fatalf("depth %d center %d (lo %d) node %d: multi %d != single %d",
						depth, c, lo[j], u, multi[j][u], single[u])
				}
			}
		}
	}
}

// TestCountWithinMultiReadsLaneBlocks pins the routing of the batched
// depth-limited path: on 256-world blocks and on 32-world lanes (a graph
// above 4,096 nodes) CountWithinMulti reads each bitmap block of its range
// once, materializing it on the first call and hitting it on the second,
// and touches no other family. AccumWorlds and DirectWorlds, the counters
// of the per-world kernel the lanes replaced, stay 0.
func TestCountWithinMultiReadsLaneBlocks(t *testing.T) {
	const seed, hi = 17, 300
	centers := []graph.NodeID{0, 5, 12}
	lo := []int{0, 40, 0}
	for _, tc := range []struct {
		g  *graph.Uncertain
		bw int
	}{{ringGraph(t, 35, 13), 256}, {ringGraph(t, 4200, 13), 32}} {
		s := New(tc.g, seed)
		if s.BlockWorlds() != tc.bw {
			t.Fatalf("BlockWorlds = %d on %d nodes, want %d", s.BlockWorlds(), tc.g.NumNodes(), tc.bw)
		}
		blocks := uint64((hi + tc.bw - 1) / tc.bw)
		for pass := uint64(0); pass < 2; pass++ {
			counts := make([][]int32, len(centers))
			for j := range counts {
				counts[j] = make([]int32, tc.g.NumNodes())
			}
			s.CountWithinMulti(centers, 2, lo, hi, counts)
			st := s.Stats()
			if st.Materializations != blocks || st.Hits != pass*blocks || st.ResidentBitmapBlocks != int(blocks) ||
				st.ResidentLabelBlocks+st.ResidentComponentBlocks != 0 {
				t.Fatalf("%d-world blocks, pass %d: %+v, want %d bitmap blocks read once each", tc.bw, pass, st, blocks)
			}
			if st.AccumWorlds != 0 || st.DirectWorlds != 0 {
				t.Fatalf("%d-world blocks: AccumWorlds %d, DirectWorlds %d, want 0", tc.bw, st.AccumWorlds, st.DirectWorlds)
			}
		}
	}
}

func TestCountWithinMultiEmptyRanges(t *testing.T) {
	g := pathGraph(t, 6, 0.5)
	s := New(g, 1)
	counts := [][]int32{make([]int32, 6)}
	s.CountWithinMulti([]graph.NodeID{2}, 2, []int{100}, 100, counts)
	for u, c := range counts[0] {
		if c != 0 {
			t.Fatalf("empty range counted node %d: %d", u, c)
		}
	}
	s.CountWithinMulti(nil, 2, nil, 50, nil)
}

func TestBoundedModeBitmapsBitIdentical(t *testing.T) {
	// The bounded-memory guarantee extends to the edge-bitmap family:
	// evicting and recomputing bitmap blocks returns bit-identical counts,
	// with label and bitmap blocks churning under ONE shared byte budget.
	g := ringGraph(t, 60, 3)
	const seed, hi = 11, 400
	centers := []graph.NodeID{0, 17, 33, 58}
	lo := make([]int, len(centers))
	const depth = 2

	unbounded := New(g, seed)
	want := make([][]int32, len(centers))
	for j := range want {
		want[j] = make([]int32, g.NumNodes())
	}
	unbounded.CountWithinMulti(centers, depth, lo, hi, want)

	bounded := New(g, seed)
	bounded.SetBudget(1) // degenerate budget: one resident block of any family
	for pass := 0; pass < 2; pass++ {
		got := make([][]int32, len(centers))
		for j := range got {
			got[j] = make([]int32, g.NumNodes())
		}
		bounded.CountWithinMulti(centers, depth, lo, hi, got)
		// Interleave label scans so both families compete for the budget.
		bounded.CountConnectedFrom(0, 0, hi, make([]int32, g.NumNodes()))
		for j := range want {
			for u := range want[j] {
				if got[j][u] != want[j][u] {
					t.Fatalf("pass %d center %d node %d: bounded %d != unbounded %d",
						pass, centers[j], u, got[j][u], want[j][u])
				}
			}
		}
	}
	st := bounded.Stats()
	if st.Evictions == 0 {
		t.Fatalf("bounded run evicted nothing (stats %+v)", st)
	}
	if st.ResidentBlocks > 1 {
		t.Fatalf("budget of one block left %d resident (stats %+v)", st.ResidentBlocks, st)
	}
}

func TestStatsSplitsFamilies(t *testing.T) {
	g := ringGraph(t, 50, 5)
	s := New(g, 9)
	s.Scan(0, 10, func(int, []int32) {})
	s.ScanBits(0, 10, func(int, []uint64) {})
	st := s.Stats()
	if st.ResidentLabelBlocks != 1 || st.ResidentBitmapBlocks != 1 {
		t.Fatalf("family split wrong: %+v", st)
	}
	if st.ResidentBlocks != 2 {
		t.Fatalf("ResidentBlocks must cover both families: %+v", st)
	}
	if st.ResidentBytes != s.blockBytes(famLabels)+s.blockBytes(famBits) {
		t.Fatalf("ResidentBytes %d != sum of nominal block sizes", st.ResidentBytes)
	}
}

func BenchmarkScan(b *testing.B) {
	x := rng.NewXoshiro256(1)
	gb := graph.NewBuilder(1000)
	for i := 0; i < 1000; i++ {
		_ = gb.AddEdge(int32(i), int32((i+1)%1000), 0.5)
		_ = gb.AddEdge(int32(i), int32((i+37)%1000), 0.3+0.4*x.Float64())
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	s := New(g, 1)
	snapshotLabels(s, 256) // materialize outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		s.Scan(0, 256, func(_ int, lab []int32) { total += int(lab[0]) })
	}
}

func TestStatsHitsAndRecomputes(t *testing.T) {
	g := ringGraph(t, 4096, 11) // large n -> minBlockWorlds-sized blocks
	s := New(g, 1)
	bw := s.Stats().BlockWorlds

	// First pass over two blocks: two materializations, zero hits.
	s.Scan(0, 2*bw, func(int, []int32) {})
	st := s.Stats()
	if st.Materializations != 2 || st.Hits != 0 || st.Recomputes != 0 {
		t.Fatalf("after cold scan: %+v", st)
	}

	// Second pass: both blocks resident, two hits.
	s.Scan(0, 2*bw, func(int, []int32) {})
	if st = s.Stats(); st.Hits != 2 || st.Materializations != 2 {
		t.Fatalf("after warm scan: %+v", st)
	}

	// Shrink to one block, touch the evicted one again: a recompute.
	s.SetBudget(s.blockBytes(famLabels))
	if st = s.Stats(); st.Evictions != 1 {
		t.Fatalf("after shrink: %+v", st)
	}
	s.Scan(0, bw, func(int, []int32) {})
	st = s.Stats()
	if st.Recomputes != 1 {
		t.Fatalf("after re-touch: %+v", st)
	}
	if st.Materializations != 3 {
		t.Fatalf("recomputes must count inside materializations: %+v", st)
	}
}

func TestScanCtxCancellation(t *testing.T) {
	g := ringGraph(t, 4096, 12)
	s := New(g, 1)
	bw := s.Stats().BlockWorlds

	// A cancelled context stops the scan at a block boundary.
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := s.ScanCtx(ctx, 0, 3*bw, func(i int, _ []int32) {
		seen++
		if i == 0 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if seen == 0 || seen > bw {
		t.Fatalf("scan should stop after the first block, saw %d worlds", seen)
	}

	// A live context delivers everything and reports nil.
	seen = 0
	if err := s.ScanCtx(context.Background(), 0, 3*bw, func(int, []int32) { seen++ }); err != nil {
		t.Fatal(err)
	}
	if seen != 3*bw {
		t.Fatalf("full scan saw %d of %d worlds", seen, 3*bw)
	}
}

// TestScanMaterializesWholeBlocks: the first reader of a block
// materializes all of its worlds, so the bitmap block reads as warm over
// its whole range (and no further) and a later read of the rest of either
// block materializes nothing. Label blocks never satisfy the bitmap probe,
// and an empty range is never warm.
func TestScanMaterializesWholeBlocks(t *testing.T) {
	g := ringGraph(t, 48, 3)
	s := New(g, 5)
	bw := s.BlockWorlds()
	s.Scan(0, 1, func(int, []int32) {})
	if got := len(s.blocks[famLabels][0].labels); got != bw*s.NumNodes() {
		t.Fatalf("a one-world read materialized %d labels, want the whole block's %d", got, bw*s.NumNodes())
	}
	if s.BitsWarm(0, 1) || s.BitsWarm(5, 5) || s.BitsWarm(-3, 0) {
		t.Fatal("a label block or an empty range satisfied the bitmap probe")
	}
	s.ScanBits(0, 1, func(int, []uint64) {})
	if !s.BitsWarm(0, bw) {
		t.Fatal("a one-world read left the rest of the bitmap block cold")
	}
	if s.BitsWarm(0, bw+1) {
		t.Fatal("a range past the first bitmap block reported warm")
	}
	s.ScanBits(0, bw, func(int, []uint64) {})
	s.Scan(0, bw, func(int, []int32) {})
	if st := s.Stats(); st.Materializations != 2 || st.Hits != 2 {
		t.Fatalf("reading the rest of both blocks: %+v, want 2 materializations and 2 hits", st)
	}
}

// TestReusedBuffersConcurrentReaders runs Scan, CountPairCtx,
// CountConnectedFromMulti and CountWithinMulti readers at once on stores
// whose budget holds about one block per family, with and without a disk
// tier, so nearly every acquisition evicts a block and materializes into
// its buffers, index blocks included. Every count must be bit-identical
// to an unbounded store's: a buffer is handed over only once no reader
// holds its block and its spill write has finished. Both block shapes
// run: 256-world blocks and 32-world lanes. Run it under -race.
func TestReusedBuffersConcurrentReaders(t *testing.T) {
	for _, g := range []*graph.Uncertain{ringGraph(t, 60, 3), ringGraph(t, 4200, 13)} {
		const seed, depth, readers = 19, 2, 2
		ref := New(g, seed)
		n, bw := ref.NumNodes(), ref.BlockWorlds()
		r := 3*bw + bw/2
		cs := []graph.NodeID{0, graph.NodeID(n / 3), graph.NodeID(n - 1)}
		lo := []int{0, bw / 2, bw + 1}
		pairs := [][2]graph.NodeID{{0, 1}, {2, graph.NodeID(n / 2)}}
		wantLabels := snapshotLabels(ref, r)
		wantPairs := make([]int64, len(pairs))
		for i, p := range pairs {
			wantPairs[i], _ = ref.CountPairCtx(context.Background(), p[0], p[1], 0, r)
		}
		tally := func(s *Store, within bool) [][]int32 {
			counts := make([][]int32, len(cs))
			for j := range counts {
				counts[j] = make([]int32, n)
			}
			if within {
				s.CountWithinMulti(cs, depth, lo, r, counts)
			} else {
				s.CountConnectedFromMulti(cs, lo, r, counts)
			}
			return counts
		}
		wantConn, wantWithin := tally(ref, false), tally(ref, true)
		same := func(a, b [][]int32) bool {
			for j := range a {
				if !slices.Equal(a[j], b[j]) {
					return false
				}
			}
			return true
		}

		for _, disk := range []bool{false, true} {
			s := New(g, seed)
			if disk {
				if err := s.AttachCache(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			s.SetBudget(s.blockBytes(famLabels) + s.blockBytes(famBits) + s.blockBytes(famComponents))
			tag := fmt.Sprintf("%d-world blocks, disk tier %v", bw, disk)
			work := []func(){
				func() {
					s.Scan(0, r, func(i int, lab []int32) {
						if !slices.Equal(lab, wantLabels[i]) {
							t.Errorf("%s: Scan world %d differs from the unbounded store", tag, i)
						}
					})
				},
				func() {
					for i, p := range pairs {
						if got, _ := s.CountPairCtx(context.Background(), p[0], p[1], 0, r); got != wantPairs[i] {
							t.Errorf("%s: CountPairCtx %v = %d, want %d", tag, p, got, wantPairs[i])
						}
					}
				},
				func() {
					if !same(tally(s, false), wantConn) {
						t.Errorf("%s: CountConnectedFromMulti differs from the unbounded store", tag)
					}
				},
				func() {
					if !same(tally(s, true), wantWithin) {
						t.Errorf("%s: CountWithinMulti differs from the unbounded store", tag)
					}
				},
			}
			var wg sync.WaitGroup
			for _, w := range work {
				for range readers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range 3 {
							w()
						}
					}()
				}
			}
			wg.Wait()
			st := s.Stats()
			if st.Evictions == 0 || disk && st.DiskHits == 0 {
				t.Fatalf("%s: readers neither evicted nor reloaded: %+v", tag, st)
			}
		}
	}
}
