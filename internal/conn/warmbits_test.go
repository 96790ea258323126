package conn

import (
	"testing"

	"ucgraph/internal/graph"
)

// The warm-bitmap reuse path: a single-center depth-limited query whose
// world range's edge-bitmap blocks are already resident (a batched
// FromCenters materialized them) answers from those bitmaps instead of
// re-hashing edge coins on the implicit stream — bit-identically.

// TestWarmBitmapSingleCenterBitIdentical warms the bitmap blocks with a
// batch, then asserts a fresh single-center query (a) actually reads the
// resident blocks and (b) matches a cold estimator exactly.
func TestWarmBitmapSingleCenterBitIdentical(t *testing.T) {
	g := gridGraph(t, 9, 8, 0.55)
	const seed, depth, r = 19, 2, 400

	warm := NewMonteCarlo(g, seed)
	warm.FromCenters([]graph.NodeID{0, 5, 11, 30}, depth, r) // materializes bitmap blocks

	if !warm.Store().BitsResident(0, r) {
		t.Fatal("bitmap blocks should be resident after the batch")
	}
	before := warm.Store().Stats()
	got := warm.FromCenter(40, depth, r) // fresh center, warm range
	after := warm.Store().Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("single-center query did not reuse resident bitmap blocks (hits %d -> %d)",
			before.Hits, after.Hits)
	}
	if after.Materializations != before.Materializations {
		t.Fatalf("warm query materialized blocks (%d -> %d)", before.Materializations, after.Materializations)
	}

	cold := NewMonteCarlo(identicalGraph(t, g), seed)
	want := cold.FromCenter(40, depth, r)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: warm %v != cold %v", u, got[u], want[u])
		}
	}
}

// TestColdSingleCenterSkipsBitmapFill: on a graph whose blocks are too
// narrow for the store's presence index (above 4,096 nodes), a
// single-center depth query without resident bitmaps must stay on the
// implicit-world path — filling whole bitmap blocks for one center has
// nothing to amortize. On a graph with 64-world blocks the first query
// materializes the bitmaps and presence indexes of the blocks it reads,
// and a second center over the same range materializes nothing.
func TestColdSingleCenterSkipsBitmapFill(t *testing.T) {
	wide := gridGraph(t, 70, 70, 0.55)
	mc := NewMonteCarlo(wide, 23)
	if bw := mc.Store().BlockWorlds(); bw >= 64 {
		t.Fatalf("BlockWorlds = %d on a 70x70 grid, want < 64", bw)
	}
	est := mc.FromCenter(7, 2, 300)
	if len(est) != wide.NumNodes() {
		t.Fatalf("estimate length %d", len(est))
	}
	if st := mc.Store().Stats(); st.ResidentBitmapBlocks != 0 {
		t.Fatalf("cold single-center query materialized %d bitmap blocks", st.ResidentBitmapBlocks)
	}

	g := gridGraph(t, 9, 8, 0.55)
	packed := NewMonteCarlo(identicalGraph(t, g), 23)
	packed.FromCenter(7, 2, 300)
	before := packed.Store().Stats()
	packed.FromCenter(12, 2, 300)
	if after := packed.Store().Stats(); after.Materializations != before.Materializations {
		t.Fatalf("second center over a warm range materialized %d blocks",
			after.Materializations-before.Materializations)
	}
}

// TestWarmBitmapPartialResidency: if only a prefix of the range is
// resident, the probe reports false and the query still answers exactly
// (the implicit path), so partially-warm stores never mis-route.
func TestWarmBitmapPartialResidency(t *testing.T) {
	g := gridGraph(t, 9, 8, 0.55)
	const seed, depth = 29, 2
	mc := NewMonteCarlo(g, seed)
	bw := mc.Store().BlockWorlds()
	short := bw / 2 // half of the first block
	mc.FromCenters([]graph.NodeID{0, 5}, depth, short)
	if mc.Store().BitsResident(0, bw+1) {
		t.Fatal("range past the materialized prefix should not report resident")
	}
	if !mc.Store().BitsResident(0, short) {
		t.Fatal("materialized prefix should report resident")
	}
	got := mc.FromCenter(12, depth, bw+10)
	want := NewMonteCarlo(identicalGraph(t, g), seed).FromCenter(12, depth, bw+10)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: %v != %v", u, got[u], want[u])
		}
	}
}

// TestDiskWarmBitmapSingleCenter: the warm-bitmap routing extends to the
// store's disk tier — after the resident blocks are evicted (and spilled),
// a single-center depth query still takes the bitmap path, loading the
// spilled blocks instead of re-hashing edge coins, with bit-identical
// results.
func TestDiskWarmBitmapSingleCenter(t *testing.T) {
	g := gridGraph(t, 9, 8, 0.55)
	const seed, depth, r = 37, 2, 400

	mc := NewMonteCarlo(g, seed)
	if err := mc.Store().AttachCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	mc.FromCenters([]graph.NodeID{0, 5, 11, 30}, depth, r) // materializes bitmap blocks
	mc.Store().SetBudget(1)                                // evict everything; the bitmaps spill
	mc.Store().SetBudget(0)
	if mc.Store().BitsResident(0, r) {
		t.Fatal("bitmap blocks should have been evicted")
	}
	if !mc.Store().BitsWarm(0, r) {
		t.Fatal("spilled bitmap blocks should report warm")
	}
	before := mc.Store().Stats()
	got := mc.FromCenter(40, depth, r)
	after := mc.Store().Stats()
	if after.DiskHits <= before.DiskHits {
		t.Fatalf("disk-warm query never loaded a spilled block (disk hits %d -> %d)",
			before.DiskHits, after.DiskHits)
	}
	want := NewMonteCarlo(identicalGraph(t, g), seed).FromCenter(40, depth, r)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: disk-warm %v != cold %v", u, got[u], want[u])
		}
	}
}
