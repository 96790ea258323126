package worldstore

import (
	"testing"

	"ucgraph/internal/datasets"
	"ucgraph/internal/graph"
)

// Paper-scale coverage for the tiered store: the DBLP-shaped instances of
// Section 5 are the workloads the disk tier exists for — label and bitmap
// blocks that cannot all stay resident. The smoke test runs a scaled-down
// DBLP through a budget-squeezed, cache-attached store and demands
// bit-identical worlds; the benchmark materializes worlds of the full
// 636751-author instance for BENCH_store.json (make bench-dblp).

// dblpGraph generates the DBLP co-authorship emulation at the given author
// count and returns its largest connected component.
func dblpGraph(tb testing.TB, authors int) *graph.Uncertain {
	tb.Helper()
	ds, err := datasets.DBLP(datasets.DBLPConfig{
		Authors:         authors,
		PapersPerAuthor: 1.45,
		CommunitySize:   55,
		CrossCommunity:  0.12,
	}, 41)
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Graph
}

// TestPaperScaleTieredSmoke drives a DBLP-shaped graph through the full
// tier order — spill on eviction, reload from disk, recompute on miss —
// and checks the worlds, and batched tallies over them, stay bit-identical
// to an unbounded RAM store. Both sizes give blocks narrower than one
// 64-world index word (about 13 and 44 worlds), as on paper-scale graphs.
func TestPaperScaleTieredSmoke(t *testing.T) {
	authors := 20000
	if testing.Short() {
		authors = 6000
	}
	g := dblpGraph(t, authors)
	const seed = 23

	ref := New(g, seed)
	// Span several blocks (plus a partial tail) so a two-block budget has
	// to evict, spill and reload no matter how many worlds fit per block.
	worlds := 4*ref.BlockWorlds() + 3
	refLabels := make([][]int32, 0, worlds)
	ref.Scan(0, worlds, func(_ int, labels []int32) {
		refLabels = append(refLabels, append([]int32(nil), labels...))
	})
	refBits := make([][]uint64, 0, worlds)
	ref.ScanBits(0, worlds, func(_ int, bits []uint64) {
		refBits = append(refBits, append([]uint64(nil), bits...))
	})

	tiered := New(g, seed)
	if err := tiered.AttachCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	// Two blocks' worth of budget: the scan constantly evicts, spills and
	// reloads instead of settling into residency.
	tiered.SetBudget(2 * int64(g.NumNodes()) * 4 * int64(tiered.BlockWorlds()))
	for pass := 0; pass < 2; pass++ {
		i := 0
		tiered.Scan(0, worlds, func(_ int, labels []int32) {
			for v, l := range labels {
				if l != refLabels[i][v] {
					t.Fatalf("pass %d world %d node %d: label %d != ref %d", pass, i, v, l, refLabels[i][v])
				}
			}
			i++
		})
		i = 0
		tiered.ScanBits(0, worlds, func(_ int, bits []uint64) {
			for w, word := range bits {
				if word != refBits[i][w] {
					t.Fatalf("pass %d world %d word %d: bits %x != ref %x", pass, i, w, word, refBits[i][w])
				}
			}
			i++
		})
	}
	// Batched unlimited-depth tallies on the tiered store against the
	// reference scan: staggered starts, a duplicate center and a one-world
	// range.
	n, bw := g.NumNodes(), tiered.BlockWorlds()
	cs := []graph.NodeID{0, 17, 17, graph.NodeID(n / 2), graph.NodeID(n - 1)}
	lo := []int{0, 5, bw + 1, 3*bw - 2, worlds - 1}
	got, want := make([][]int32, len(cs)), make([][]int32, len(cs))
	for j, c := range cs {
		got[j], want[j] = make([]int32, n), make([]int32, n)
		scanConnectedFrom(ref, c, lo[j], worlds, want[j])
	}
	tiered.CountConnectedFromMulti(cs, lo, worlds, got)
	sameCounts(t, "tiered batch", want, got)

	st := tiered.Stats()
	if st.SpillWrites == 0 || st.DiskHits == 0 {
		t.Fatalf("tiered scan never exercised the disk tier: %+v", st)
	}
	if st.CorruptDropped != 0 {
		t.Fatalf("clean cache reported corruption: %+v", st)
	}
}

// BenchmarkDBLPPaperScale materializes component-label worlds of the
// paper's full-size DBLP instance (636751 authors before LCC restriction)
// through a disk-backed store whose budget holds a single block — the
// single-process paper-scale configuration -worldmem/-worldcache are sized
// for. Generation cost is paid once outside the timer; each op streams one
// block's worth of fresh worlds and re-reads one spilled block warm.
func BenchmarkDBLPPaperScale(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale DBLP generation skipped with -short")
	}
	g := dblpGraph(b, 636751)
	s := New(g, 23)
	if err := s.AttachCache(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	bw := s.BlockWorlds()
	s.SetBudget(int64(g.NumNodes()) * 4 * int64(bw))
	s.Scan(0, bw, func(int, []int32) {}) // materialize block 0...
	s.SetBudget(1)                       // ...and force it through the spill path
	s.SetBudget(int64(g.NumNodes()) * 4 * int64(bw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i + 1) * bw
		s.Scan(lo, lo+bw, func(int, []int32) {}) // cold: hash + union-find
		s.Scan(0, bw, func(int, []int32) {})     // spilled block, warm reload
	}
	b.StopTimer()
	st := s.Stats()
	if st.DiskHits == 0 {
		b.Fatalf("paper-scale scan never hit the disk tier: %+v", st)
	}
	b.ReportMetric(float64(2*bw), "worlds/op")
	b.ReportMetric(float64(g.NumNodes()), "nodes")
}
