package worldstore

import (
	"testing"

	"ucgraph/internal/datasets"
	"ucgraph/internal/graph"
)

// The tier-order benchmarks behind BENCH_store.json (make bench-store):
// materializing the same depth-limited bitmap workload cold (hash every
// edge coin), spilled-warm (load checksummed blocks from the disk tier)
// and recompute-after-eviction (the price the tier removes). The spilled
// path reads sequential bytes and verifies a CRC; the recompute paths
// re-evaluate one hash per edge per world — which is why a warm restart
// from -worldcache beats recomputation by well over the 5x target. Two
// more rows price single paths: an unlimited-depth tally whose every
// label block reloads from the disk tier (cache state: disk), and a fresh
// store's first small label read (cache state: cold), which materializes
// a whole block and its largest-component index.

const (
	benchNodes  = 4000
	benchWorlds = 128
)

// scanAll drives both families over [0, r): the bitmap blocks of a
// depth-limited workload plus the label blocks of an unlimited one.
func scanAll(s *Store, r int) {
	s.ScanBits(0, r, func(int, []uint64) {})
	s.Scan(0, r, func(int, []int32) {})
}

func BenchmarkBlockMaterializeCold(b *testing.B) {
	g := ringGraph(b, benchNodes, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(g, 7)
		scanAll(s, benchWorlds)
	}
	b.ReportMetric(benchWorlds, "worlds/op")
}

func BenchmarkBlockMaterializeRecompute(b *testing.B) {
	g := ringGraph(b, benchNodes, 1)
	s := New(g, 7)
	scanAll(s, benchWorlds) // prime: later passes are recomputes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetBudget(1) // evict everything
		s.SetBudget(0)
		scanAll(s, benchWorlds)
	}
	b.ReportMetric(benchWorlds, "worlds/op")
}

func BenchmarkBlockMaterializeSpilledWarm(b *testing.B) {
	g := ringGraph(b, benchNodes, 1)
	s := New(g, 7)
	if err := s.AttachCache(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	scanAll(s, benchWorlds)
	s.SetBudget(1) // spill everything once; re-evictions skip the write
	s.SetBudget(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetBudget(1)
		s.SetBudget(0)
		scanAll(s, benchWorlds)
	}
	b.StopTimer()
	st := s.Stats()
	if st.DiskHits == 0 || st.PostSpillRecomputes != 0 {
		b.Fatalf("spilled-warm pass did not serve from disk: %+v", st)
	}
	b.ReportMetric(benchWorlds, "worlds/op")
}

// BenchmarkCountConnectedFromSpilled times a 2-center unlimited-depth
// tally over 64 worlds of DBLP at 40,000 authors (8-world blocks) on a
// store with a disk tier and a budget of one label block, so each op
// reloads all 8 label blocks from the disk tier (cache state: disk).
func BenchmarkCountConnectedFromSpilled(b *testing.B) {
	const worlds = 64
	g := dblpGraph(b, 40000)
	s := New(g, 7)
	if err := s.AttachCache(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	n := s.NumNodes()
	cs := []graph.NodeID{0, graph.NodeID(n / 2)}
	lo, counts := make([]int, len(cs)), [][]int32{make([]int32, n), make([]int32, n)}
	s.CountConnectedFromMulti(cs, lo, worlds, counts)
	s.SetBudget(1) // spill every block once
	s.SetBudget(s.blockBytes(famLabels))
	before := s.Stats()
	for b.Loop() {
		clear(counts[0])
		clear(counts[1])
		s.CountConnectedFromMulti(cs, lo, worlds, counts)
	}
	st := s.Stats()
	if loads, want := st.DiskHits-before.DiskHits, uint64(b.N*worlds/s.BlockWorlds()); loads != want {
		b.Fatalf("%d disk loads in %d ops, want every label block reloaded: %+v", loads, b.N, st)
	}
	b.ReportMetric(worlds, "worlds/op")
}

// BenchmarkFirstLabelRead times a fresh store's first read of 16 worlds'
// labels (cache state: cold) on Krogan (100-world blocks) and on DBLP at
// 40,000 authors (8-world blocks): the read materializes the whole block
// that holds them, labels and largest-component index.
func BenchmarkFirstLabelRead(b *testing.B) {
	ds, err := datasets.Krogan(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range []indexShape{{"krogan", ds.Graph}, {"dblp-40k", dblpGraph(b, 40000)}} {
		b.Run(sh.name, func(b *testing.B) {
			for b.Loop() {
				New(sh.g, 7).Scan(0, 16, func(int, []int32) {})
			}
			b.ReportMetric(16, "worlds/op")
		})
	}
}
