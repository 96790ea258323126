package worldstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ucgraph/internal/graph"
)

// The disk-tier invariants: spilled blocks are bit-identical to computed
// ones, a persisted cache directory warm-restarts a fresh store, and a
// truncated or bit-flipped payload is detected, dropped and recomputed —
// never served wrong.

// snapshotBits collects the edge bitmaps of worlds [0, r) into a copy.
func snapshotBits(s *Store, r int) [][]uint64 {
	out := make([][]uint64, r)
	s.ScanBits(0, r, func(i int, bits []uint64) {
		cp := make([]uint64, len(bits))
		copy(cp, bits)
		out[i] = cp
	})
	return out
}

// countsWithin runs a small CountWithinMulti batch and returns the counts.
func countsWithin(s *Store, cs []graph.NodeID, depth, r int) [][]int32 {
	counts := make([][]int32, len(cs))
	lo := make([]int, len(cs))
	for j := range cs {
		counts[j] = make([]int32, s.NumNodes())
	}
	s.CountWithinMulti(cs, depth, lo, r, counts)
	return counts
}

func sameLabels(t *testing.T, tag string, want, got [][]int32) {
	t.Helper()
	for i := range want {
		for u := range want[i] {
			if got[i][u] != want[i][u] {
				t.Fatalf("%s: world %d node %d: label %d != %d", tag, i, u, got[i][u], want[i][u])
			}
		}
	}
}

func sameCounts(t *testing.T, tag string, want, got [][]int32) {
	t.Helper()
	for j := range want {
		for u := range want[j] {
			if got[j][u] != want[j][u] {
				t.Fatalf("%s: center %d node %d: count %d != %d", tag, j, u, got[j][u], want[j][u])
			}
		}
	}
}

// TestSpillBitIdenticalAcrossTiers: the same seed yields bit-identical
// labels and tallies whether misses are served from RAM (unbounded), from
// the disk tier (bounded + cache), or by recomputation (bounded, no
// cache) — the tier only changes the price of a miss.
func TestSpillBitIdenticalAcrossTiers(t *testing.T) {
	g := ringGraph(t, 60, 3)
	const seed, r, depth = 11, 400, 2
	cs := []graph.NodeID{0, 7, 31}

	ref := New(g, seed)
	wantLabels := snapshotLabels(ref, r)
	wantWithin := countsWithin(ref, cs, depth, r)

	spilled := New(g, seed)
	if err := spilled.AttachCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	spilled.SetBudget(1) // degenerate budget: every block evicts (and spills) immediately
	for pass := 0; pass < 2; pass++ {
		sameLabels(t, "spilled labels", wantLabels, snapshotLabels(spilled, r))
		sameCounts(t, "spilled within", wantWithin, countsWithin(spilled, cs, depth, r))
	}
	st := spilled.Stats()
	if st.SpillWrites == 0 {
		t.Fatalf("bounded store with a cache never spilled: %+v", st)
	}
	if st.DiskHits == 0 {
		t.Fatalf("second pass never hit the disk tier: %+v", st)
	}
	if st.DiskBytes == 0 {
		t.Fatalf("spilled cache reports no live bytes: %+v", st)
	}
	if st.CorruptDropped != 0 || st.PostSpillRecomputes != 0 {
		t.Fatalf("healthy cache dropped entries: %+v", st)
	}
	if st.Recomputes != st.ColdRecomputes+st.PostSpillRecomputes {
		t.Fatalf("recompute split does not add up: %+v", st)
	}

	recomputed := New(g, seed)
	recomputed.SetBudget(1)
	for pass := 0; pass < 2; pass++ {
		sameLabels(t, "recomputed labels", wantLabels, snapshotLabels(recomputed, r))
		sameCounts(t, "recomputed within", wantWithin, countsWithin(recomputed, cs, depth, r))
	}
	if st := recomputed.Stats(); st.DiskHits != 0 || st.Recomputes == 0 {
		t.Fatalf("cacheless bounded store should recompute, not disk-hit: %+v", st)
	}
}

// TestBatchLoadsEachBlockOnce: a center batch reads each block once,
// whatever its center count. Four centers over four spilled Krogan blocks,
// under a budget of one block of the family read, load four blocks from
// the disk tier, not one per center and block: bitmap blocks for a
// depth-limited batch, index blocks for an unlimited one, and, when no
// index block was ever built, the label blocks the index blocks are built
// from.
func TestBatchLoadsEachBlockOnce(t *testing.T) {
	g := laneShapes(t, false)[0].g
	const depth = 2
	cs := []graph.NodeID{0, 7, 300, 1500}
	for _, f := range []family{famLabels, famBits, famComponents} {
		s := New(g, 8)
		if err := s.AttachCache(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		n, r := s.NumNodes(), 4*s.BlockWorlds()
		got, want := make([][]int32, len(cs)), make([][]int32, len(cs))
		for j := range cs {
			got[j], want[j] = make([]int32, n), make([]int32, n)
		}
		switch f {
		case famLabels, famComponents:
			ref := New(g, 8)
			for j, c := range cs {
				scanConnectedFrom(ref, c, 0, r, want[j])
			}
			snapshotLabels(s, r)
			if f == famComponents {
				s.CountConnectedFrom(0, 0, r, make([]int32, n))
			}
		default:
			for j, c := range cs {
				want[j] = reachWithin(s, c, depth, 0, r)
			}
			snapshotBits(s, r)
		}
		s.SetBudget(1) // spill every block
		s.SetBudget(s.blockBytes(f))
		before := s.Stats()
		if f == famBits {
			s.CountWithinMulti(cs, depth, make([]int, len(cs)), r, got)
		} else {
			s.CountConnectedFromMulti(cs, make([]int, len(cs)), r, got)
		}
		sameCounts(t, fmt.Sprintf("family %d", f), want, got)
		if d := s.Stats().DiskHits - before.DiskHits; d != 4 {
			t.Fatalf("family %d: batch made %d disk loads over 4 spilled blocks, want 4", f, d)
		}
	}
}

// spillAll materializes worlds [0, r) of every family and then forces
// every block out to the disk tier via a degenerate budget.
func spillAll(t testing.TB, s *Store, r int) {
	t.Helper()
	snapshotLabels(s, r)
	snapshotBits(s, r)
	s.CountConnectedFrom(0, 0, r, make([]int32, s.NumNodes()))
	s.SetBudget(1)
	if st := s.Stats(); st.SpillWrites == 0 {
		t.Fatalf("nothing spilled: %+v", st)
	}
	s.SetBudget(0) // lift the bound again; the spilled copies remain
}

// TestSpillWarmRestart: a fresh store attached to the cache directory a
// previous store persisted serves its blocks from disk — bit-identical,
// with zero recomputes — which is the warm-restart contract of -worldcache.
func TestSpillWarmRestart(t *testing.T) {
	g := ringGraph(t, 60, 4)
	const seed, r = 5, 300
	dir := t.TempDir()

	first := New(g, seed)
	if err := first.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	wantLabels := snapshotLabels(first, r)
	wantBits := snapshotBits(first, r)
	spillAll(t, first, r)

	second := New(g, seed)
	if err := second.AttachCache(dir); err != nil {
		t.Fatalf("warm re-attach failed: %v", err)
	}
	sameLabels(t, "restart labels", wantLabels, snapshotLabels(second, r))
	gotBits := snapshotBits(second, r)
	for i := range wantBits {
		for w := range wantBits[i] {
			if gotBits[i][w] != wantBits[i][w] {
				t.Fatalf("restart bits: world %d word %d: %#x != %#x", i, w, gotBits[i][w], wantBits[i][w])
			}
		}
	}
	st := second.Stats()
	if st.DiskHits == 0 {
		t.Fatalf("warm restart never hit the disk tier: %+v", st)
	}
	if st.Recomputes != 0 {
		t.Fatalf("warm restart recomputed %d blocks with a full cache: %+v", st.Recomputes, st)
	}
	if st.CacheDir != dir {
		t.Fatalf("CacheDir = %q, want %q", st.CacheDir, dir)
	}

	// A store with a different identity must reject the directory instead
	// of serving another stream's worlds.
	if err := New(g, seed+1).AttachCache(dir); err == nil {
		t.Fatal("cache for seed 5 attached to a seed-6 store")
	}
	other := ringGraph(t, 61, 4)
	if err := New(other, seed).AttachCache(dir); err == nil {
		t.Fatal("cache attached to a store over a different graph")
	}
}

// TestSpillCorruptPayloadRecomputed: a bit flip in a spilled payload fails
// the load-time checksum; the entry is dropped and the block recomputed,
// so answers stay exact and the corruption is visible in the counters.
func TestSpillCorruptPayloadRecomputed(t *testing.T) {
	g := ringGraph(t, 60, 6)
	const seed, r = 9, 300
	dir := t.TempDir()

	want := snapshotLabels(New(g, seed), r)

	first := New(g, seed)
	if err := first.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	snapshotLabels(first, r)
	first.SetBudget(1)

	seg := filepath.Join(dir, "labels.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	second := New(g, seed)
	if err := second.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	sameLabels(t, "post-corruption labels", want, snapshotLabels(second, r))
	st := second.Stats()
	if st.CorruptDropped == 0 {
		t.Fatalf("bit flip went undetected: %+v", st)
	}
	if st.PostSpillRecomputes == 0 {
		t.Fatalf("corrupt block was not recomputed: %+v", st)
	}
	if st.DiskHits == 0 {
		t.Fatalf("intact blocks should still load from disk: %+v", st)
	}
	if st.Recomputes != st.ColdRecomputes+st.PostSpillRecomputes {
		t.Fatalf("recompute split does not add up: %+v", st)
	}
}

// TestSpillTruncatedSegmentDroppedAtAttach: a segment file cut short
// behind the directory's back (crash, partial copy) invalidates the
// entries whose extents outrun it at attach time; the store recomputes
// those blocks and serves exact answers.
func TestSpillTruncatedSegmentDroppedAtAttach(t *testing.T) {
	g := ringGraph(t, 60, 8)
	const seed, r = 13, 300
	dir := t.TempDir()

	want := snapshotLabels(New(g, seed), r)

	first := New(g, seed)
	if err := first.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	snapshotLabels(first, r)
	first.SetBudget(1)

	seg := filepath.Join(dir, "labels.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	second := New(g, seed)
	if err := second.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.CorruptDropped == 0 {
		t.Fatalf("truncated segment dropped no entries at attach: %+v", st)
	}
	sameLabels(t, "post-truncation labels", want, snapshotLabels(second, r))
}

// TestSpillTornDirectoryTail: a torn write at the tail of the directory
// log (half a record) is truncated away on replay; the records before it
// stay live.
func TestSpillTornDirectoryTail(t *testing.T) {
	g := ringGraph(t, 60, 10)
	const seed, r = 17, 300
	dir := t.TempDir()

	first := New(g, seed)
	if err := first.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	snapshotLabels(first, r)
	first.SetBudget(1)

	log := filepath.Join(dir, "cache.dir")
	fi, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(log, fi.Size()-spillRecordSize/2); err != nil {
		t.Fatal(err)
	}

	second := New(g, seed)
	if err := second.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	want := snapshotLabels(New(g, seed), r)
	sameLabels(t, "torn-tail labels", want, snapshotLabels(second, r))
	if st := second.Stats(); st.DiskHits == 0 {
		t.Fatalf("records before the torn tail should still serve: %+v", st)
	}
}

// TestAttachCacheOnce: a store accepts at most one cache directory.
func TestAttachCacheOnce(t *testing.T) {
	g := ringGraph(t, 40, 2)
	s := New(g, 3)
	if err := s.AttachCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachCache(t.TempDir()); err == nil {
		t.Fatal("second AttachCache succeeded")
	}
}

// TestReleaseAfterShrinkRestoresBudget: a pinned block survives a
// concurrent SetBudget shrink (eviction must skip it), but the moment its
// last pin drops the store evicts back under the budget — ResidentBytes
// does not drift above the bound beyond the pin's lifetime.
func TestReleaseAfterShrinkRestoresBudget(t *testing.T) {
	g := ringGraph(t, 60, 5)
	s := New(g, 21)
	bw := s.BlockWorlds()
	snapshotLabels(s, 3*bw) // several resident blocks

	b := s.acquire(famLabels, 0) // pin block 0
	budget := s.blockBytes(famLabels) / 2
	s.SetBudget(budget)
	if st := s.Stats(); st.ResidentBytes <= budget {
		t.Fatalf("pinned block should hold ResidentBytes (%d) above the shrunk budget (%d)",
			st.ResidentBytes, budget)
	} else if st.ResidentBlocks != 1 {
		t.Fatalf("shrink should have evicted every unpinned block: %+v", st)
	}
	s.release(b)
	if st := s.Stats(); st.ResidentBytes > budget {
		t.Fatalf("ResidentBytes %d still above budget %d after the pin released", st.ResidentBytes, budget)
	}
}

// TestBitsWarmDiskTier: BitsWarm extends the residency probe to spilled
// bitmap blocks — warm after eviction with a cache attached, cold without.
func TestBitsWarmDiskTier(t *testing.T) {
	g := ringGraph(t, 60, 7)
	const seed = 25
	cold := New(g, seed)
	bw := cold.BlockWorlds()
	snapshotBits(cold, bw)
	if !cold.BitsWarm(0, bw) {
		t.Fatal("resident bitmap block should be warm")
	}
	cold.SetBudget(1)
	if cold.BitsWarm(0, bw) {
		t.Fatal("evicted bitmap block with no cache should be cold")
	}

	spilled := New(g, seed)
	if err := spilled.AttachCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	snapshotBits(spilled, bw)
	spilled.SetBudget(1)
	if st := spilled.Stats(); st.ResidentBitmapBlocks != 0 {
		t.Fatalf("evicted block should not be RAM-resident: %+v", st)
	}
	if !spilled.BitsWarm(0, bw) {
		t.Fatal("spilled bitmap block should be warm")
	}
	if spilled.BitsWarm(0, 2*bw) {
		t.Fatal("worlds never materialized should not be warm")
	}
}

// TestSpillHostileRecordOffset: a directory record whose CRC is valid but
// whose payload offset lies near MaxInt64 must not pass the extent checks
// by overflow. Replay drops it, the earlier entry for the block keeps
// serving, and a segment read at such an offset fails instead of slicing
// out of range.
func TestSpillHostileRecordOffset(t *testing.T) {
	g := ringGraph(t, 60, 12)
	const seed, r = 19, 300
	dir := t.TempDir()
	want := snapshotLabels(New(g, seed), r)

	first := New(g, seed)
	if err := first.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	bw := first.BlockWorlds()
	spillAll(t, first, r)

	log := filepath.Join(dir, spillDirName)
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, encodeRecord(famLabels, 0, bw, math.MaxInt64-8, 0)...)
	if err := os.WriteFile(log, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	second := New(g, seed)
	if err := second.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.CorruptDropped == 0 {
		t.Fatalf("hostile record was not dropped at attach: %+v", st)
	}
	sameLabels(t, "hostile-record labels", want, snapshotLabels(second, r))
	if st := second.Stats(); st.DiskHits == 0 {
		t.Fatalf("the valid entries should still serve: %+v", st)
	}

	sg := &segment{size: 1 << 20}
	if _, err := sg.read(math.MaxInt64-8, 1<<16); err == nil {
		t.Fatal("segment read at an overflowing extent succeeded")
	}
}

// TestSpillRefusesOlderVersions: a directory whose header names an older
// format is refused at attach like any other header mismatch: version 2
// may hold partial-prefix records, version 3 label records without any
// index, version 4 label records that carry their index, version 5
// world-major bitmap records.
func TestSpillRefusesOlderVersions(t *testing.T) {
	g := ringGraph(t, 60, 14)
	const seed, r = 23, 300
	dir := t.TempDir()
	first := New(g, seed)
	if err := first.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	spillAll(t, first, r)

	log := filepath.Join(dir, spillDirName)
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{2, 3, 4, 5} {
		binary.LittleEndian.PutUint32(raw[8:12], v)
		binary.LittleEndian.PutUint32(raw[48:52], crc32.Checksum(raw[:48], crcTable))
		if err := os.WriteFile(log, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("spill-cache format version %d, want 6", v)
		if err := New(g, seed).AttachCache(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d directory: AttachCache error %v, want %q", v, err, want)
		}
	}
}

// TestSpillCorruptIndexRecomputed flips one byte of a spilled index
// record. The store's budget holds one index block, so the reload of that
// block goes into the buffers of the index block it evicts. The load fails
// its checksum, the entry is dropped and the block rebuilt from its label
// block: every index word equals a fresh store's, and tallies stay
// bit-identical.
func TestSpillCorruptIndexRecomputed(t *testing.T) {
	g := ringGraph(t, 60, 16)
	const seed = 29
	dir := t.TempDir()
	s := New(g, seed)
	if err := s.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	s.SetBudget(s.blockBytes(famComponents))
	n, bw := s.NumNodes(), s.BlockWorlds()
	s.release(s.acquire(famComponents, 0)) // index block 0, built
	s.release(s.acquire(famComponents, 1)) // index block 1 evicts and spills block 0
	donor := s.blocks[famComponents][1].comps

	// Flip a byte of block 0's index record that has a clear bit, so a
	// rebuild that ORed into the stale copy would keep a wrong bit.
	e := s.spill.Load().entries[famComponents][0]
	f, err := os.OpenFile(filepath.Join(dir, spillIndexName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := make([]byte, s.blockBytes(famComponents))
	if _, err := f.ReadAt(rec, e.off); err != nil {
		t.Fatal(err)
	}
	k := slices.IndexFunc(rec, func(x byte) bool { return x != 0xff })
	if k < 0 {
		t.Fatal("block 0's index has no clear bit")
	}
	if _, err := f.WriteAt([]byte{rec[k] ^ 0xff}, e.off+int64(k)); err != nil {
		t.Fatal(err)
	}

	before := s.Stats()
	b := s.acquire(famComponents, 0) // evicts block 1 and takes its buffers
	ref := New(g, seed)
	want := ref.acquire(famComponents, 0)
	if &b.comps[0] != &donor[0] {
		t.Fatal("the reload did not reuse the evicted block's buffers")
	}
	if !slices.Equal(b.comps, want.comps) {
		t.Fatal("a failed load into a reused buffer left words that differ from a fresh store's")
	}
	ref.release(want)
	s.release(b)
	st := s.Stats()
	if d := st.CorruptDropped - before.CorruptDropped; d != 1 {
		t.Fatalf("CorruptDropped moved by %d, want 1: %+v", d, st)
	}
	if d := st.PostSpillRecomputes - before.PostSpillRecomputes; d != 1 {
		t.Fatalf("PostSpillRecomputes moved by %d, want 1: %+v", d, st)
	}
	cs := []graph.NodeID{0, 17, 41}
	got, exp := make([][]int32, len(cs)), make([][]int32, len(cs))
	for j, c := range cs {
		got[j], exp[j] = make([]int32, n), make([]int32, n)
		scanConnectedFrom(ref, c, 0, 2*bw, exp[j])
	}
	s.CountConnectedFromMulti(cs, make([]int, len(cs)), 2*bw, got)
	sameCounts(t, "after the corrupt index", exp, got)
}

// TestSpillDropsPartialRecord: a record that persists only a prefix of a
// block (half of block 0's labels, with a valid record CRC and payload
// CRC) is dropped at attach and counted, and the block is computed, so
// scans stay bit-identical to an uncached store.
func TestSpillDropsPartialRecord(t *testing.T) {
	g := ringGraph(t, 60, 15)
	const seed = 27
	dir := t.TempDir()
	if err := New(g, seed).AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	ref := New(g, seed)
	bw := ref.BlockWorlds()
	var prefix []int32
	for _, lab := range snapshotLabels(ref, bw/2) {
		prefix = append(prefix, lab...)
	}
	data := int32Bytes(prefix)
	if err := os.WriteFile(filepath.Join(dir, spillLabelsName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := encodeRecord(famLabels, 0, bw/2, 0, payloadCRC(famLabels, 0, bw/2, data))
	f, err := os.OpenFile(filepath.Join(dir, spillDirName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(g, seed)
	if err := s.AttachCache(dir); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Fatalf("partial record: CorruptDropped %d, want 1", st.CorruptDropped)
	}
	sameLabels(t, "partial-record labels", snapshotLabels(ref, 2*bw), snapshotLabels(s, 2*bw))
	if st := s.Stats(); st.DiskHits != 0 {
		t.Fatalf("a partial record was served: %+v", st)
	}
}

// FuzzSpillReplay attaches fresh stores to hostile disk tiers. It starts
// from a real spilled cache of every family, fuzzes the raw directory log
// and appends one more record built from fuzzed fields through
// encodeRecord, so its record CRC is valid and replay gets past the CRC
// gate. Whatever the log says, a center tally and pair counts over every
// index block (their readers), a depth-2 tally over every bitmap block
// (against sampler.ReachCounter), and a scan of every label and bitmap
// block, must run without a panic and bit-identically to an uncached
// store: a bad entry is dropped and recomputed, never served.
func FuzzSpillReplay(f *testing.F) {
	g := ringGraph(f, 40, 2)
	const seed, worlds = 7, 600
	ref := New(g, seed)
	bw := ref.BlockWorlds()
	wantLabels, wantBits := snapshotLabels(ref, worlds), snapshotBits(ref, worlds)
	cs := []graph.NodeID{0, 13, 27}
	wantCounts, wantWithin := make([][]int32, len(cs)), make([][]int32, len(cs))
	for j, c := range cs {
		wantCounts[j] = make([]int32, g.NumNodes())
		scanConnectedFrom(ref, c, 0, worlds, wantCounts[j])
		wantWithin[j] = reachWithin(ref, c, 2, 0, worlds)
	}
	ctx := context.Background()
	pairs := [][2]graph.NodeID{{0, 13}, {5, 6}, {27, 27}, {39, 1}}
	wantPairs := make([]int64, len(pairs))
	for i, p := range pairs {
		wantPairs[i], _ = scanPair(ctx, ref, p[0], p[1], 0, worlds)
	}

	base := f.TempDir()
	spilled := New(g, seed)
	if err := spilled.AttachCache(base); err != nil {
		f.Fatal(err)
	}
	spillAll(f, spilled, worlds)
	files := map[string][]byte{}
	for _, name := range []string{spillDirName, spillLabelsName, spillBitsName, spillIndexName} {
		raw, err := os.ReadFile(filepath.Join(base, name))
		if err != nil {
			f.Fatal(err)
		}
		files[name] = raw
	}
	log := files[spillDirName]
	f.Add(log, uint8(famLabels), uint32(0), uint32(bw), uint64(math.MaxInt64-8), uint32(0))
	f.Add(log, uint8(famBits), uint32(1), uint32(bw), uint64(1<<63), uint32(0))
	f.Add(log, uint8(famLabels), uint32(2), uint32(bw+1), uint64(0), uint32(0))
	f.Add(log, uint8(famBits), uint32(0), uint32(1), uint64(8), uint32(0))
	f.Add(log[:len(log)-spillRecordSize/2], uint8(numFamilies), uint32(0), uint32(1), uint64(0), uint32(0))
	f.Add(log[:spillHeaderSize], uint8(famLabels), uint32(1), uint32(bw), uint64(0), uint32(0))
	// Block 0's label and index entries renamed to block 1: a genuine
	// offset and payload CRC under another block's name.
	for _, fam := range []family{famLabels, famComponents} {
		e0 := spilled.spill.Load().entries[fam][0]
		f.Add(log, uint8(fam), uint32(1), uint32(bw), uint64(e0.off), e0.crc)
	}

	f.Fuzz(func(t *testing.T, log []byte, fam uint8, idx, done uint32, off uint64, crc uint32) {
		dir := t.TempDir()
		log = append(log[:len(log):len(log)], encodeRecord(family(fam), int(idx), int(done), int64(off), crc)...)
		for name, raw := range files {
			if name == spillDirName {
				raw = log
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := New(g, seed)
		if err := s.AttachCache(dir); err != nil {
			return // a log that is not this store's is rejected whole
		}
		counts := make([][]int32, len(cs))
		for j := range counts {
			counts[j] = make([]int32, g.NumNodes())
		}
		s.CountConnectedFromMulti(cs, make([]int, len(cs)), worlds, counts)
		sameCounts(t, "replayed tallies", wantCounts, counts)
		sameCounts(t, "replayed depth-2 tallies", wantWithin, countsWithin(s, cs, 2, worlds))
		for i, p := range pairs {
			if got, _ := s.CountPairCtx(ctx, p[0], p[1], 0, worlds); got != wantPairs[i] {
				t.Fatalf("replayed pair %v: %d, want %d", p, got, wantPairs[i])
			}
		}
		sameLabels(t, "replayed labels", wantLabels, snapshotLabels(s, worlds))
		gotBits := snapshotBits(s, worlds)
		for i := range wantBits {
			for w := range wantBits[i] {
				if gotBits[i][w] != wantBits[i][w] {
					t.Fatalf("replayed bits: world %d word %d: %#x != %#x", i, w, gotBits[i][w], wantBits[i][w])
				}
			}
		}
	})
}
