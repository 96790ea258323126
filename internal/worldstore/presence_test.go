package worldstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
)

// reachWithin is the reference kernel the lane traversal must reproduce:
// one breadth-first search per world on the implicit stream.
func reachWithin(s *Store, c graph.NodeID, depth, lo, hi int) []int32 {
	counts := make([]int32, s.NumNodes())
	sampler.NewReachCounter(s.Graph(), s.Seed()).CountWithin(c, depth, lo, hi, counts)
	return counts
}

// laneShapes returns one graph per block width of the lane layout, each
// with the block width it must get:
//   - krogan: 100-world blocks, so the second row of each block is only
//     36 worlds full;
//   - ring: internal/core's community ring, 600 nodes, with 256-world
//     blocks of four full rows;
//   - ring-32, ring-16, ring-8: rings with chords above 4,096 nodes, whose
//     blocks are one row of 32, 16 and 8 worlds, 2, 4 and 8 lanes to a
//     word.
//
// With short set only krogan and ring-8 run.
func laneShapes(tb testing.TB, short bool) []indexShape {
	tb.Helper()
	shapes := indexShapes(tb)[:2]
	for _, sh := range []struct {
		name string
		n    int
	}{{"ring-32", 4200}, {"ring-16", 9000}, {"ring-8", 17000}} {
		shapes = append(shapes, indexShape{sh.name, ringGraph(tb, sh.n, 13)})
	}
	for i, bw := range []int{100, 256, 32, 16, 8} {
		if got := New(shapes[i].g, 1).BlockWorlds(); got != bw {
			tb.Fatalf("%s: %d-world blocks, want %d", shapes[i].name, got, bw)
		}
	}
	if short {
		return []indexShape{shapes[0], shapes[4]}
	}
	return shapes
}

// withinDepths are the depths every lane test checks; -1 is unlimited.
var withinDepths = []int{0, 1, 2, 3, 4, 6, -1}

// withinRanges returns world ranges of a store with bw-world blocks:
// inside one word, across the 64-world boundary inside a block, across
// two blocks, over several blocks, and a single world of a block's
// second word.
func withinRanges(bw int) [][2]int {
	return [][2]int{{3, 40}, {60, 70}, {bw - 1, bw + 1}, {10, 2*bw + bw/2}, {bw + 64, bw + 65}}
}

// laneBit reads world w (of its block) and edge e from the lanes of a
// bitmap block: bit (e·L mod 64) + (w mod 64) of word ⌊w/64⌋·W + ⌊e·L/64⌋.
func laneBit(s *Store, lanes []uint64, w, e int) bool {
	p := e*min(s.BlockWorlds(), 64) + w%64
	return lanes[(w/64)*s.rowWords+p/64]>>(p%64)&1 == 1
}

// checkLanes compares every lane bit of the resident bitmap blocks
// covering worlds [0, hi) with World.FillEdgeBitmap.
func checkLanes(t *testing.T, tag string, s *Store, hi int) {
	t.Helper()
	m, bw := s.Graph().NumEdges(), s.BlockWorlds()
	want := make([]uint64, s.wpw)
	for bi := 0; bi*bw < hi; bi++ {
		b := s.acquire(famBits, bi)
		for w := 0; w < bw; w++ {
			s.World(bi*bw + w).FillEdgeBitmap(want)
			for e := 0; e < m; e++ {
				if got := laneBit(s, b.bits, w, e); got != sampler.BitmapContains(want, int32(e)) {
					s.release(b)
					t.Fatalf("%s: world %d edge %d: lane bit %v, FillEdgeBitmap %v", tag, bi*bw+w, e, got, !got)
				}
			}
		}
		s.release(b)
	}
}

// TestLaneBlocksMatchReachCounter checks the lane layout and the one
// depth-limited kernel on every block width (8, 16, 32, 100 and 256
// worlds) at depths 0–4, 6 and unlimited, in three states of the bitmap
// blocks: warm (materialized from the coins), reloaded from the disk tier
// and recomputed after eviction. In each state the lanes equal
// FillEdgeBitmap bit for bit, and CountWithinFrom and CountWithinMulti
// (staggered lo, a duplicate center) equal sampler.ReachCounter.
func TestLaneBlocksMatchReachCounter(t *testing.T) {
	const seed = 37
	for _, sh := range laneShapes(t, testing.Short()) {
		t.Run(sh.name, func(t *testing.T) {
			g := sh.g
			n, bw := g.NumNodes(), New(g, seed).BlockWorlds()
			hi := 2*bw + bw/2 + 3
			cs := []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n / 2), graph.NodeID(n - 1), 7}
			lo := []int{0, 1, bw - 1, bw + 3, hi - 1}
			ref := New(g, seed)
			want := make(map[int][][]int32)
			for _, depth := range withinDepths {
				for j, c := range cs {
					want[depth] = append(want[depth], reachWithin(ref, c, depth, lo[j], hi))
				}
			}
			check := func(tag string, s *Store) {
				t.Helper()
				for _, depth := range withinDepths {
					got := make([][]int32, len(cs))
					for j := range got {
						got[j] = make([]int32, n)
					}
					s.CountWithinMulti(cs, depth, lo, hi, got)
					sameCounts(t, fmt.Sprintf("%s: multi depth %d", tag, depth), want[depth], got)
					for j, c := range cs {
						one := make([]int32, n)
						s.CountWithinFrom(c, depth, lo[j], hi, one)
						sameCounts(t, fmt.Sprintf("%s: center %d depth %d worlds [%d,%d)", tag, c, depth, lo[j], hi),
							want[depth][j:j+1], [][]int32{one})
					}
				}
				checkLanes(t, tag, s, hi)
			}
			blocks := uint64((hi + bw - 1) / bw)

			disk := New(g, seed)
			if err := disk.AttachCache(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			check("warm", disk)
			disk.SetBudget(1) // spill every block
			disk.SetBudget(0)
			before := disk.Stats()
			check("reloaded", disk)
			if st := disk.Stats(); st.DiskHits-before.DiskHits != blocks || st.Recomputes != 0 {
				t.Fatalf("reload: %d disk hits over %d spilled blocks, %d recomputes: %+v",
					st.DiskHits-before.DiskHits, blocks, st.Recomputes, st)
			}

			recomputed := New(g, seed)
			recomputed.ScanBits(0, hi, func(int, []uint64) {})
			recomputed.SetBudget(1)
			recomputed.SetBudget(0)
			check("recomputed", recomputed)
			if st := recomputed.Stats(); st.Recomputes != blocks || st.DiskHits != 0 {
				t.Fatalf("recompute: %d recomputes over %d evicted blocks: %+v", st.Recomputes, blocks, st)
			}
		})
	}
}

// TestPresenceIndexMatchesBitmaps: the lanes a bitmap block holds, which
// are its presence index, and the world-major bitmaps ScanBits transposes
// them into describe the same worlds.
func TestPresenceIndexMatchesBitmaps(t *testing.T) {
	for _, sh := range laneShapes(t, false) {
		s := New(sh.g, 3)
		bw, m := s.BlockWorlds(), sh.g.NumEdges()
		b := s.acquire(famBits, 0)
		s.release(b)
		s.ScanBits(0, bw, func(w int, bm []uint64) {
			for e := 0; e < m; e++ {
				if got, want := laneBit(s, b.bits, w, e), sampler.BitmapContains(bm, int32(e)); got != want {
					t.Fatalf("%s: world %d edge %d: lane %v, bitmap %v", sh.name, w, e, got, want)
				}
			}
			for e := m; e < 64*len(bm); e++ {
				if sampler.BitmapContains(bm, int32(e)) {
					t.Fatalf("%s: world %d: bitmap sets padding bit %d", sh.name, w, e)
				}
			}
		})
	}
}

func TestCountWithinFromMatchesReachCounter(t *testing.T) {
	const seed = 13
	for _, sh := range laneShapes(t, false) {
		t.Run(sh.name, func(t *testing.T) {
			s := New(sh.g, seed)
			n, bw := s.NumNodes(), s.BlockWorlds()
			centers := []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)}
			ranges := withinRanges(bw)
			for _, depth := range withinDepths {
				for _, rg := range ranges {
					for _, c := range centers {
						got := make([]int32, n)
						s.CountWithinFrom(c, depth, rg[0], rg[1], got)
						sameCounts(t, fmt.Sprintf("depth %d center %d worlds [%d,%d)", depth, c, rg[0], rg[1]),
							[][]int32{reachWithin(s, c, depth, rg[0], rg[1])}, [][]int32{got})
					}
				}
				// One batch: per-center lo values from every range, a
				// duplicate center, one common hi.
				hi := ranges[3][1]
				cs := []graph.NodeID{centers[0], centers[1], centers[1], centers[2], centers[0]}
				lo := []int{ranges[0][0], ranges[1][0], ranges[2][0], ranges[3][0], ranges[4][0]}
				got := make([][]int32, len(cs))
				want := make([][]int32, len(cs))
				for j := range cs {
					got[j] = make([]int32, n)
					want[j] = reachWithin(s, cs[j], depth, lo[j], hi)
				}
				s.CountWithinMulti(cs, depth, lo, hi, got)
				sameCounts(t, fmt.Sprintf("multi depth %d", depth), want, got)
			}
		})
	}
}

// TestCountWithinFromGrowingPrefix extends a running tally the way the
// estimator's tally cache does, over a growing prefix of the worlds (50,
// then 100), so the second count reads the blocks the first one read.
func TestCountWithinFromGrowingPrefix(t *testing.T) {
	const seed = 5
	for _, sh := range laneShapes(t, false)[:2] {
		t.Run(sh.name, func(t *testing.T) {
			s := New(sh.g, seed)
			n := s.NumNodes()
			for _, depth := range withinDepths {
				got := make([]int32, n)
				done := 0
				for _, r := range []int{50, 100} {
					s.CountWithinFrom(7, depth, done, r, got)
					done = r
					sameCounts(t, fmt.Sprintf("depth %d after %d worlds", depth, r),
						[][]int32{reachWithin(s, 7, depth, 0, r)}, [][]int32{got})
				}
			}
		})
	}
}

// TestCountWithinFromTiered runs the lane kernel on a bounded store with
// a disk tier: room for two bitmap blocks, so the ranges evict, spill and
// reload blocks, and every reloaded block is read as it was loaded.
func TestCountWithinFromTiered(t *testing.T) {
	const seed = 9
	for _, sh := range laneShapes(t, false)[:2] {
		t.Run(sh.name, func(t *testing.T) {
			s := New(sh.g, seed)
			if err := s.AttachCache(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			n, bw := s.NumNodes(), s.BlockWorlds()
			budget := 2 * s.blockBytes(famBits)
			s.SetBudget(budget)
			ranges := append(withinRanges(bw), [2]int{0, 4 * bw}, [2]int{3*bw + 5, 3*bw + 70})
			for pass := 0; pass < 2; pass++ {
				for _, rg := range ranges {
					got := make([]int32, n)
					s.CountWithinFrom(3, 2, rg[0], rg[1], got)
					sameCounts(t, fmt.Sprintf("pass %d worlds [%d,%d)", pass, rg[0], rg[1]),
						[][]int32{reachWithin(s, 3, 2, rg[0], rg[1])}, [][]int32{got})
				}
			}
			st := s.Stats()
			if st.Evictions == 0 || st.SpillWrites == 0 || st.DiskHits == 0 {
				t.Fatalf("tiered store did not evict, spill and reload: %+v", st)
			}
			if st.ResidentBytes > budget {
				t.Fatalf("ResidentBytes %d above budget %d", st.ResidentBytes, budget)
			}
		})
	}
}

// TestBitmapBlockSpilledWhole: an evicted bitmap block spills its lanes
// whole, and the block reloaded from disk is the block that spilled: the
// record is the block's payload byte for byte, the reload is charged the
// same bytes, rebuilds nothing and counts the same integers.
func TestBitmapBlockSpilledWhole(t *testing.T) {
	g := laneShapes(t, false)[0].g
	s := New(g, 4)
	dir := t.TempDir()
	if err := s.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	bw := s.BlockWorlds()
	want := reachWithin(s, 11, 3, 0, bw)
	got := make([]int32, g.NumNodes())
	s.CountWithinFrom(11, 3, 0, bw, got)
	sameCounts(t, "resident", [][]int32{want}, [][]int32{got})
	lanes := slices.Clone(s.blocks[famBits][0].bits)
	s.SetBudget(1)
	s.SetBudget(0)
	seg, err := os.ReadFile(filepath.Join(dir, spillBitsName))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seg, uint64Bytes(lanes)) {
		t.Fatalf("bits.seg holds %d bytes, want the block's %d bytes of lanes", len(seg), s.blockBytes(famBits))
	}
	clear(got)
	s.CountWithinFrom(11, 3, 0, bw, got)
	sameCounts(t, "reloaded", [][]int32{want}, [][]int32{got})
	st := s.Stats()
	if st.DiskHits != 1 || st.Recomputes != 0 {
		t.Fatalf("reload did not come from disk alone: %+v", st)
	}
	if st.ResidentBytes != s.blockBytes(famBits) {
		t.Fatalf("reloaded block: ResidentBytes %d, want the block's %d", st.ResidentBytes, s.blockBytes(famBits))
	}
	if !slices.Equal(s.blocks[famBits][0].bits, lanes) {
		t.Fatal("the reloaded lanes differ from the spilled ones")
	}
}

// TestCountWithinFromConcurrent has many callers race on the first block
// of fresh stores — unbounded and with a one-block budget — so they
// materialize, read and evict it at once. Run it under -race.
func TestCountWithinFromConcurrent(t *testing.T) {
	const seed, workers, calls = 21, 8, 8
	g := laneShapes(t, false)[0].g
	probe := New(g, seed)
	bw := probe.BlockWorlds()
	type call struct {
		c             graph.NodeID
		depth, lo, hi int
	}
	cases := make([]call, workers*calls)
	want := make([][]int32, len(cases))
	x := rng.NewXoshiro256(4)
	for i := range cases {
		lo := x.Intn(bw)
		cases[i] = call{graph.NodeID(x.Intn(g.NumNodes())), 1 + x.Intn(3), lo, lo + 1 + x.Intn(bw-lo)}
		want[i] = reachWithin(probe, cases[i].c, cases[i].depth, cases[i].lo, cases[i].hi)
	}
	for _, budget := range []int64{0, probe.blockBytes(famBits)} {
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
					s.CountWithinFrom(cc.c, cc.depth, cc.lo, cc.hi, got)
					for u := range got {
						if got[u] != want[i][u] {
							t.Errorf("budget %d center %d depth %d worlds [%d,%d) node %d: %d, want %d",
								budget, cc.c, cc.depth, cc.lo, cc.hi, u, got[u], want[i][u])
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

// TestCountWithinFromChargesIndex checks a bitmap block's byte accounting
// on a 100-world and an 8-world shape: the block, which is its own
// presence index, is charged blockBytes(famBits) once, at insertion —
// 8·m·ceil(bw/64) bytes from 64 worlds up, 8·ceil(m·bw/64) under 64 —
// and the charge does not move whatever reads the block; eviction frees
// it.
func TestCountWithinFromChargesIndex(t *testing.T) {
	shapes := laneShapes(t, false)
	for _, sh := range []indexShape{shapes[0], shapes[len(shapes)-1]} {
		g := sh.g
		s := New(g, 3)
		bw, m, n := s.BlockWorlds(), g.NumEdges(), g.NumNodes()
		bitmap := s.blockBytes(famBits)
		want := int64(8 * m * ((bw + 63) / 64))
		if bw < 64 {
			want = int64(8 * ((m*bw + 63) / 64))
		}
		if bitmap != want {
			t.Fatalf("%s: bitmap block bytes %d, want %d", sh.name, bitmap, want)
		}
		for i, read := range []func(){
			func() { s.ScanBits(0, 1, func(int, []uint64) {}) },
			func() { s.CountWithinFrom(0, 2, 0, bw/2, make([]int32, n)) },
			func() { s.CountWithinFrom(0, 2, bw/2, bw, make([]int32, n)) },
			func() {
				s.CountWithinMulti([]graph.NodeID{0, 1}, -1, []int{0, 1}, bw, [][]int32{make([]int32, n), make([]int32, n)})
			},
		} {
			read()
			if st := s.Stats(); st.ResidentBytes != bitmap || st.ResidentBitmapBlocks != 1 {
				t.Fatalf("%s: after read %d: ResidentBytes %d in %d bitmap blocks, want one block of %d",
					sh.name, i, st.ResidentBytes, st.ResidentBitmapBlocks, bitmap)
			}
		}
		s.ScanBits(bw, 2*bw, func(int, []uint64) {})
		if st := s.Stats(); st.ResidentBytes != 2*bitmap {
			t.Fatalf("%s: two blocks: ResidentBytes %d, want %d", sh.name, st.ResidentBytes, 2*bitmap)
		}
		s.SetBudget(1)
		if st := s.Stats(); st.ResidentBytes != 0 || st.ResidentBlocks != 0 {
			t.Fatalf("%s: eviction left %d bytes in %d blocks", sh.name, st.ResidentBytes, st.ResidentBlocks)
		}
	}
}

// BenchmarkCountWithinFrom times depth-limited tallies on warm stores
// (bitmap blocks materialized) beside the reference per-world BFS on the
// implicit stream: one center over the first r worlds of Krogan
// (100-world blocks), and one center and a 16-center batch over 64 worlds
// of DBLP at 40,000 authors (8-world lane blocks).
func BenchmarkCountWithinFrom(b *testing.B) {
	g := indexShapes(b)[0].g
	for _, r := range []int{50, 512} {
		for _, depth := range []int{2, 3} {
			s := New(g, 7)
			counts := make([]int32, s.NumNodes())
			s.CountWithinFrom(0, depth, 0, r, counts)
			rc := sampler.NewReachCounter(g, 7)
			for _, k := range []struct {
				name  string
				count func()
			}{
				{"packed", func() { s.CountWithinFrom(0, depth, 0, r, counts) }},
				{"reach", func() { rc.CountWithin(0, depth, 0, r, counts) }},
			} {
				b.Run(fmt.Sprintf("krogan/r=%d/d=%d/%s", r, depth, k.name), func(b *testing.B) {
					for b.Loop() {
						clear(counts)
						k.count()
					}
					b.ReportMetric(float64(r), "worlds/op")
				})
			}
		}
	}
	const worlds = 64
	dblp := dblpGraph(b, 40000)
	s := New(dblp, 7)
	s.ScanBits(0, worlds, func(int, []uint64) {})
	n := s.NumNodes()
	rc := sampler.NewReachCounter(dblp, 7)
	for _, centers := range []int{1, 16} {
		cs, lo, counts := make([]graph.NodeID, centers), make([]int, centers), make([][]int32, centers)
		for j := range cs {
			cs[j], counts[j] = graph.NodeID(j*n/centers), make([]int32, n)
		}
		for _, depth := range []int{2, 3} {
			for _, k := range []struct {
				name  string
				count func()
			}{
				{"lanes", func() { s.CountWithinMulti(cs, depth, lo, worlds, counts) }},
				{"reach", func() {
					for j, c := range cs {
						rc.CountWithin(c, depth, 0, worlds, counts[j])
					}
				}},
			} {
				// The counts accumulate across ops, as an estimator's tallies
				// do: clearing 16 vectors of 38,955 nodes per op would cost
				// about as much as the lane traversal it times.
				b.Run(fmt.Sprintf("dblp-40k/c=%d/d=%d/%s", centers, depth, k.name), func(b *testing.B) {
					for b.Loop() {
						k.count()
					}
					b.ReportMetric(worlds, "worlds/op")
				})
			}
		}
	}
}
