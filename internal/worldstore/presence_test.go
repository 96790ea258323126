package worldstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
)

// reachWithin is the reference kernel the presence index must reproduce:
// one breadth-first search per world on the implicit stream.
func reachWithin(s *Store, c graph.NodeID, depth, lo, hi int) []int32 {
	counts := make([]int32, s.NumNodes())
	sampler.NewReachCounter(s.Graph(), s.Seed()).CountWithin(c, depth, lo, hi, counts)
	return counts
}

// packedShapes returns the two block shapes of the packed kernel:
//   - krogan: 100-world blocks, so the second word of each block is only
//     36 worlds full;
//   - ring: internal/core's community ring, 600 nodes, with 256-world
//     blocks of four full words.
func packedShapes(tb testing.TB) []indexShape {
	tb.Helper()
	shapes := indexShapes(tb)[:2]
	for _, sh := range shapes {
		if s := New(sh.g, 1); !s.packed() {
			tb.Fatalf("%s: %d-world blocks take no presence index", sh.name, s.BlockWorlds())
		}
	}
	return shapes
}

// withinDepths are the depths every packed test checks; -1 is unlimited.
var withinDepths = []int{0, 1, 2, 3, 4, 6, -1}

// withinRanges returns world ranges of a store with bw-world blocks:
// inside one word, across the 64-world boundary inside a block, across
// two blocks, over several blocks, and a single world of a block's
// second word.
func withinRanges(bw int) [][2]int {
	return [][2]int{{3, 40}, {60, 70}, {bw - 1, bw + 1}, {10, 2*bw + bw/2}, {bw + 64, bw + 65}}
}

func TestPresenceIndexMatchesBitmaps(t *testing.T) {
	for _, sh := range packedShapes(t) {
		s := New(sh.g, 3)
		bw, m := s.BlockWorlds(), sh.g.NumEdges()
		b := s.acquire(famBits, 0, true)
		s.release(b)
		s.ScanBits(0, bw, func(w int, bm []uint64) {
			row := b.index[(w/64)*m : (w/64+1)*m]
			for e := 0; e < m; e++ {
				if got, want := row[e]>>(w%64)&1 == 1, sampler.BitmapContains(bm, int32(e)); got != want {
					t.Fatalf("%s: world %d edge %d: index %v, bitmap %v", sh.name, w, e, got, want)
				}
			}
		})
	}
}

func TestCountWithinFromMatchesReachCounter(t *testing.T) {
	const seed = 13
	for _, sh := range packedShapes(t) {
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
// estimator's tally cache does, over a growing prefix of the first block
// (50 worlds, then 100), so the second count reads the index the first
// one built.
func TestCountWithinFromGrowingPrefix(t *testing.T) {
	const seed = 5
	for _, sh := range packedShapes(t) {
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

// TestCountWithinFromTiered runs the packed kernel on a bounded store with
// a disk tier: room for two indexed bitmap blocks, so the ranges evict,
// spill and reload blocks, and every reloaded block rebuilds its index.
func TestCountWithinFromTiered(t *testing.T) {
	const seed = 9
	for _, sh := range packedShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			s := New(sh.g, seed)
			if err := s.AttachCache(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			n, bw := s.NumNodes(), s.BlockWorlds()
			budget := 2 * (s.blockBytes(famBits) + s.indexBytes(famBits))
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

// TestPresenceIndexNeverSpilled: a spilled bitmap block writes its bitmaps
// and nothing else, and the block reloaded from disk rebuilds its index on
// the next depth-limited count.
func TestPresenceIndexNeverSpilled(t *testing.T) {
	g := packedShapes(t)[0].g
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
	s.SetBudget(1)
	s.SetBudget(0)
	fi, err := os.Stat(filepath.Join(dir, spillBitsName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != s.blockBytes(famBits) {
		t.Fatalf("bits.seg holds %d bytes, want one bitmap block of %d", fi.Size(), s.blockBytes(famBits))
	}
	clear(got)
	s.CountWithinFrom(11, 3, 0, bw, got)
	sameCounts(t, "reloaded", [][]int32{want}, [][]int32{got})
	st := s.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("reload did not come from disk: %+v", st)
	}
	if want := s.blockBytes(famBits) + s.indexBytes(famBits); st.ResidentBytes != want {
		t.Fatalf("reloaded block: ResidentBytes %d, want bitmap block plus rebuilt index %d", st.ResidentBytes, want)
	}
}

// TestCountWithinFromConcurrent has many callers race on the first block
// of fresh stores — unbounded and with a one-block budget — so they grow
// its prefix, build and rebuild its index and evict it at once. Run it
// under -race.
func TestCountWithinFromConcurrent(t *testing.T) {
	const seed, workers, calls = 21, 8, 8
	g := packedShapes(t)[0].g
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
	oneBlock := probe.blockBytes(famBits) + probe.indexBytes(famBits)
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

// TestCountWithinFromChargesIndex checks the index's byte accounting: an
// indexed bitmap block counts its index in ResidentBytes once, a block
// only scanned does not, and eviction frees both.
func TestCountWithinFromChargesIndex(t *testing.T) {
	g := packedShapes(t)[0].g
	s := New(g, 3)
	bw := s.BlockWorlds()
	bitmap, index := s.blockBytes(famBits), s.indexBytes(famBits)
	if want := int64(8 * g.NumEdges() * ((bw + 63) / 64)); index != want {
		t.Fatalf("index bytes %d, want 8*m*ceil(bw/64) = %d", index, want)
	}
	s.CountWithinFrom(0, 2, 0, bw/2, make([]int32, g.NumNodes()))
	if st := s.Stats(); st.ResidentBytes != bitmap+index {
		t.Fatalf("indexed block: ResidentBytes %d, want bitmap %d + index %d", st.ResidentBytes, bitmap, index)
	}
	// Growing the prefix rebuilds the index without charging it twice.
	s.CountWithinFrom(0, 2, bw/2, bw, make([]int32, g.NumNodes()))
	s.ScanBits(bw, 2*bw, func(int, []uint64) {})
	if st := s.Stats(); st.ResidentBytes != 2*bitmap+index {
		t.Fatalf("one indexed and one scanned block: ResidentBytes %d, want %d", st.ResidentBytes, 2*bitmap+index)
	}
	s.SetBudget(1)
	if st := s.Stats(); st.ResidentBytes != 0 || st.ResidentBlocks != 0 {
		t.Fatalf("eviction left %d bytes in %d blocks", st.ResidentBytes, st.ResidentBlocks)
	}
}

// BenchmarkCountWithinFrom times one center's depth-limited tally over the
// first r worlds of a warm Krogan store (bitmaps materialized, presence
// index built), packed and with the reference per-world BFS on the
// implicit stream.
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
}
