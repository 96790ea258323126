package worldstore

import (
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

			// Bounded, with a disk tier: room for two indexed label blocks, so
			// the cases evict, spill and reload blocks, and every reloaded
			// block rebuilds its index.
			tiered := New(sh.g, seed)
			if err := tiered.AttachCache(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			budget := 2 * (tiered.blockBytes(famLabels) + tiered.indexBytes(famLabels))
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
// block of fresh stores — unbounded and with a one-block budget — so they
// grow its prefix, build and rebuild its index and evict it at once. Run
// it under -race.
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
	oneBlock := probe.blockBytes(famLabels) + probe.indexBytes(famLabels)
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
// an indexed label block counts its index in ResidentBytes, a block only
// scanned does not, and eviction frees both.
func TestCountConnectedFromChargesIndex(t *testing.T) {
	g := indexShapes(t)[0].g
	s := New(g, 3)
	bw := s.BlockWorlds()
	label, index := s.blockBytes(famLabels), s.indexBytes(famLabels)
	if want := int64(8 * ((bw + 63) / 64) * g.NumNodes()); index != want {
		t.Fatalf("index bytes %d, want 8*ceil(bw/64)*n = %d", index, want)
	}
	s.CountConnectedFrom(0, 0, bw/2, make([]int32, g.NumNodes()))
	if st := s.Stats(); st.ResidentBytes != label+index {
		t.Fatalf("indexed block: ResidentBytes %d, want label %d + index %d", st.ResidentBytes, label, index)
	}
	// Growing the prefix rebuilds the index without charging it twice.
	s.CountConnectedFrom(0, bw/2, bw, make([]int32, g.NumNodes()))
	s.Scan(bw, 2*bw, func(int, []int32) {})
	if st := s.Stats(); st.ResidentBytes != 2*label+index {
		t.Fatalf("one indexed and one scanned block: ResidentBytes %d, want %d", st.ResidentBytes, 2*label+index)
	}
	s.SetBudget(1)
	if st := s.Stats(); st.ResidentBytes != 0 || st.ResidentBlocks != 0 {
		t.Fatalf("eviction left %d bytes in %d blocks", st.ResidentBytes, st.ResidentBlocks)
	}
}

// BenchmarkCountConnectedFrom times one center's tally over the first r
// worlds of a warm store (labels materialized, index built), indexed and
// with the reference scan, on the three shapes of indexShapes.
func BenchmarkCountConnectedFrom(b *testing.B) {
	for _, sh := range indexShapes(b) {
		for _, r := range []int{50, 512} {
			s := New(sh.g, 7)
			counts := make([]int32, s.NumNodes())
			s.CountConnectedFrom(0, 0, r, counts)
			for _, k := range []struct {
				name  string
				count func()
			}{
				{"indexed", func() { s.CountConnectedFrom(0, 0, r, counts) }},
				{"scan", func() { scanConnectedFrom(s, 0, 0, r, counts) }},
			} {
				b.Run(fmt.Sprintf("%s/r=%d/%s", sh.name, r, k.name), func(b *testing.B) {
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
