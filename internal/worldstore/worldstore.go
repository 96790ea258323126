// Package worldstore is the shared possible-world substrate of the library:
// one memory-bounded store of sampled worlds per (graph, seed), reused by
// every consumer — the Monte Carlo connection-probability oracle, k-NN
// distance distributions, influence spread, representative-world extraction
// and the reliability metrics — so that a run pays the sampling and
// label-computation bill once instead of once per subsystem.
//
// A Store owns the implicit world stream of its (graph, seed) pair: world i
// is defined by stateless hash coins (see internal/rng and sampler.World),
// so any world can be re-materialized at any time. On top of the stream the
// store lazily materializes two per-world artifacts into block/columnar
// storage: connected-component labels (the unlimited-depth connectivity
// index) and present-edge bitmaps (one bit per edge, the substrate of
// batched depth-limited BFS — every edge coin of a world is evaluated once,
// then a whole center batch traverses bitmap tests). Worlds are grouped
// into fixed-size blocks, and the block is the unit of materialization:
// the first reader of a block computes (or loads from the disk tier) all
// of its worlds, stored world-major in one contiguous slice, so scanning a
// block touches memory sequentially, and the block never changes after.
// A label block carries a largest-component index derived from its
// labels (see buildComponents), materialized with the labels and part of
// the block in every tier: counted in its bytes, spilled after the labels
// in the same disk record and loaded back with them. On graphs of up to
// 4,096 nodes a bitmap block read by a depth-limited tally carries a
// presence index derived from its bitmaps (see buildPresence), which lets
// one BFS answer 64 worlds; that index is lazy, built once, charged to the
// byte budget, evicted with its block and never spilled. Blocks of both
// families are materialized on first access and, in bounded-memory mode,
// evicted least-recently-used — under one shared byte budget — and
// recomputed or reloaded on the next access, into the buffers of a block
// of the same family that the access evicted when there is one. Because
// labels and bitmaps are pure functions of (graph, seed, world index),
// eviction and recomputation never change an estimate: bounded and
// unbounded runs are bit-identical.
//
// Stores are safe for concurrent use by multiple consumers: block
// materialization is coordinated so exactly one goroutine computes a block
// while others wait, readers pin blocks against eviction for the duration
// of a scan, and the logical stream length only grows.
//
// The package-level Shared registry hands out one Store per (graph, seed)
// so independent consumers — built at different layers of the library —
// transparently converge on the same worlds. The registry holds weak
// references only: it neither keeps graphs nor stores alive.
package worldstore

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"weak"

	"ucgraph/internal/graph"
	"ucgraph/internal/par"
	"ucgraph/internal/sampler"
)

// targetBlockBytes sizes label blocks: blocks hold as many worlds as fit in
// roughly this many bytes of labels, clamped to [minBlockWorlds,
// maxBlockWorlds]. Edge-bitmap blocks cover the same world ranges (same
// worlds-per-block), so one block index addresses both artifacts of a run
// of worlds. Block size is a performance knob only — estimates never
// depend on it, because each world's artifacts are computed independently.
const (
	targetBlockBytes = 1 << 20
	minBlockWorlds   = 8
	maxBlockWorlds   = 256
)

// family distinguishes the two block-cached per-world artifacts.
type family int

const (
	famLabels family = iota // component labels, []int32, n per world
	famBits                 // present-edge bitmaps, []uint64, wpw per world
	numFamilies
)

// Store is a memory-bounded cache of per-world artifacts — component
// labels and present-edge bitmaps — over the deterministic world stream of
// one (graph, seed) pair. The zero value is invalid; use New or Shared.
type Store struct {
	g    *graph.Uncertain
	seed uint64
	n    int
	wpw  int // uint64 words per world edge bitmap
	bw   int // worlds per block (both families)

	length atomic.Int64 // logical stream length: max world count requested

	mu            sync.Mutex
	blocks        [numFamilies]map[int]*block
	built         [numFamilies]map[int]bool // block indices ever materialized (recompute detection)
	budget        int64                     // byte budget across both families; <= 0 means unbounded
	residentBytes int64                     // nominal bytes of resident blocks
	clock         uint64
	hits          uint64
	materialized  uint64
	recomputed    uint64
	evicted       uint64

	// spill is the optional disk tier (AttachCache): evicted blocks spill
	// to checksummed segment files and a miss tries RAM → disk → recompute.
	// Attached at most once; loaded lock-free on the miss path.
	spill atomic.Pointer[spillCache]

	// Disk-tier counters (atomic: bumped on paths that hold block locks
	// but not mu).
	diskHits        atomic.Uint64
	spillWrites     atomic.Uint64
	corruptDropped  atomic.Uint64
	coldRecomputes  atomic.Uint64
	spillRecomputes atomic.Uint64

	// Batched depth-limited kernel counters (atomic: bumped outside mu on
	// the CountWithinMulti path): which mode tallied how many worlds, and
	// how many bit-sliced plane flushes the accumulate mode performed.
	accumWorlds  atomic.Uint64
	accumFlushes atomic.Uint64
	directWorlds atomic.Uint64

	// Kernel scratch, recycled per store; each call checks one out for its
	// duration. reachPool holds the batched BFS of the per-world
	// depth-limited path (sampler.MultiReachCounter), implicitPool the
	// implicit-stream BFS (sampler.ReachCounter), packPool the packed
	// traversal of the presence-index path and walkPool the component
	// walks of CountConnectedFromMulti.
	reachPool    sync.Pool
	implicitPool sync.Pool
	packPool     sync.Pool
	walkPool     sync.Pool
}

// block is one run of bw consecutive worlds of one artifact family.
// labels (famLabels) holds component labels world-major: world (base + i)
// occupies labels[i*n : (i+1)*n]; bits (famBits) holds edge bitmaps
// world-major: world (base + i) occupies bits[i*wpw : (i+1)*wpw]. The
// first reader materializes every world of the block under mu (see
// acquire); from then on the payload and the index are immutable, and
// readers holding a pin read them directly. Once the block is evicted
// and unpinned, its buffers may be handed to another block of its family.
type block struct {
	fam     family
	idx     int
	bytes   int64      // nominal full-block bytes plus any presence index, accounted in residentBytes; guarded by Store.mu
	mu      sync.Mutex // serializes materialization and the presence index build
	labels  []int32    // famLabels payload, bw*n; nil until materialized
	bits    []uint64   // famBits payload, bw*wpw; nil until materialized
	pins    int        // readers currently holding the block; guarded by Store.mu
	lastUse uint64
	rebuilt bool // this block index was materialized before in this process; set at insertion
	// index is the block's derived index: the largest-component index of
	// a label block (buildComponents), materialized with its labels, or
	// the presence index of a bitmap block (buildPresence), nil until a
	// depth-limited count first needs it.
	index []uint64
}

// Stats reports store observability counters. It is the snapshot the
// server daemon's /statsz endpoint exposes per graph.
type Stats struct {
	// Worlds is the logical stream length (max worlds any consumer asked for).
	Worlds int
	// ResidentBlocks is the number of blocks currently materialized across
	// both artifact families (labels + edge bitmaps).
	ResidentBlocks int
	// ResidentLabelBlocks / ResidentBitmapBlocks split ResidentBlocks by
	// artifact family.
	ResidentLabelBlocks  int
	ResidentBitmapBlocks int
	// ResidentBytes is the nominal memory of the resident blocks,
	// including the largest-component index of every label block and the
	// presence indexes of bitmap blocks that a depth-limited count has
	// read — the quantity the SetBudget byte budget bounds.
	ResidentBytes int64
	// BlockWorlds is the number of worlds per block.
	BlockWorlds int
	// Hits counts block acquisitions answered by an already-resident block
	// (no label computation needed).
	Hits uint64
	// Materializations counts block instantiations — computed fresh,
	// recomputed after eviction, or loaded back from the disk tier.
	Materializations uint64
	// Recomputes counts blocks computed again after having been
	// materialized before (in this process, or — when a load from the disk
	// tier fails — in the one that wrote the cache): the price paid for a
	// miss the disk tier could not absorb. Recomputes is split into
	// ColdRecomputes + PostSpillRecomputes.
	Recomputes uint64
	// ColdRecomputes counts Recomputes with no spilled copy to try: no
	// cache attached, or the block was evicted before it ever spilled.
	ColdRecomputes uint64
	// PostSpillRecomputes counts Recomputes where a spilled copy existed
	// but failed validation (truncated or corrupt payload) — each also
	// increments CorruptDropped. A healthy disk tier keeps this at zero.
	PostSpillRecomputes uint64
	// Evictions counts blocks dropped under memory pressure (spilled to
	// the disk tier first when a cache is attached).
	Evictions uint64
	// DiskHits counts block misses answered by the disk tier instead of
	// recomputation — including blocks persisted by a previous process
	// (warm restart).
	DiskHits uint64
	// DiskBytes is the live payload volume of the disk tier: the bytes a
	// re-attaching process could load instead of recompute.
	DiskBytes int64
	// SpillWrites counts evicted blocks written to the disk tier (blocks
	// already on disk are skipped).
	SpillWrites uint64
	// CorruptDropped counts spilled entries discarded on checksum or
	// extent validation failure — at attach (truncated segments) or on
	// load (bit rot). Dropped entries are recomputed, never served.
	CorruptDropped uint64
	// AccumWorlds counts worlds tallied by the accumulate-mode bit-sliced
	// reach kernel on the per-world batched depth-limited path
	// (CountWithinMulti on graphs above 4,096 nodes, whose blocks are too
	// narrow for the presence index); DirectWorlds counts worlds the same
	// path tallied through the per-world direct fallback (graphs too large
	// for the flat accumulator). Both stay zero on stores that answer
	// from presence indexes. Every kernel adds identical per-world reach
	// indicators, so the split is an observability fact, never a results
	// fact.
	AccumWorlds  uint64
	DirectWorlds uint64
	// AccumFlushes counts bit-sliced plane flushes (one per
	// capacity-sized sub-range per active segment).
	AccumFlushes uint64
	// CacheDir is the attached disk-tier directory ("" when the store has
	// no disk tier).
	CacheDir string
}

// defaultBudget is applied to stores created after SetDefaultBudget.
var defaultBudget atomic.Int64

// SetDefaultBudget sets the label-memory budget, in bytes, applied to
// stores created afterwards (0 restores the unbounded default). Existing
// stores are unaffected; use Store.SetBudget for those. This is the hook
// the CLI memory-budget flags use.
func SetDefaultBudget(bytes int64) { defaultBudget.Store(bytes) }

// New returns a private store over g's possible worlds under seed. Most
// callers want Shared instead, so that consumers of the same (graph, seed)
// converge on the same materialized worlds.
func New(g *graph.Uncertain, seed uint64) *Store {
	n := g.NumNodes()
	bw := targetBlockBytes / (4 * n)
	if bw < minBlockWorlds {
		bw = minBlockWorlds
	}
	if bw > maxBlockWorlds {
		bw = maxBlockWorlds
	}
	s := &Store{
		g:    g,
		seed: seed,
		n:    n,
		wpw:  sampler.EdgeBitmapWords(g.NumEdges()),
		bw:   bw,
	}
	for f := range s.blocks {
		s.blocks[f] = make(map[int]*block)
		s.built[f] = make(map[int]bool)
	}
	s.reachPool.New = func() any { return sampler.NewMultiReachCounter(g) }
	s.implicitPool.New = func() any { return sampler.NewReachCounter(g, seed) }
	s.packPool.New = func() any { return newPackedBFS(n) }
	s.walkPool.New = func() any { return &componentWalk{seen: make([]uint32, n)} }
	if b := defaultBudget.Load(); b > 0 {
		s.SetBudget(b)
	}
	return s
}

// blockBytes returns the nominal full-block byte size of one family's
// block — the unit the byte budget is accounted in, and the length of the
// block's disk record. A label block's size includes its
// largest-component index.
func (s *Store) blockBytes(f family) int64 {
	if f == famBits {
		return int64(8 * s.wpw * s.bw)
	}
	return int64(4*s.n*s.bw) + s.indexBytes(famLabels)
}

// indexWords is the number of index words per row: ceil(bw/64).
func (s *Store) indexWords() int { return (s.bw + 63) / 64 }

// indexBytes is the nominal size of one block's derived index:
// indexWords words per node for a label block's largest-component index,
// per edge for a bitmap block's presence index.
func (s *Store) indexBytes(f family) int64 {
	rows := s.n
	if f == famBits {
		rows = s.g.NumEdges()
	}
	return int64(8 * s.indexWords() * rows)
}

// registryKey identifies a shared store. The graph is held weakly so the
// registry does not extend its lifetime.
type registryKey struct {
	g    weak.Pointer[graph.Uncertain]
	seed uint64
}

var (
	registryMu sync.Mutex
	registry   = make(map[registryKey]weak.Pointer[Store])
)

// Shared returns the store for (g, seed), creating it on first use. All
// callers passing the same graph value and seed receive the same store, so
// the world stream — and the label blocks materialized over it — are shared
// across subsystems. The registry holds only weak references: once every
// consumer drops a store it is garbage collected (taking its blocks with
// it) and a later Shared call builds a fresh, deterministic replacement.
func Shared(g *graph.Uncertain, seed uint64) *Store {
	key := registryKey{g: weak.Make(g), seed: seed}
	registryMu.Lock()
	defer registryMu.Unlock()
	if wp, ok := registry[key]; ok {
		if s := wp.Value(); s != nil {
			return s
		}
	}
	s := New(g, seed)
	registry[key] = weak.Make(s)
	runtime.AddCleanup(s, func(key registryKey) {
		registryMu.Lock()
		if wp, ok := registry[key]; ok && wp.Value() == nil {
			delete(registry, key)
		}
		registryMu.Unlock()
	}, key)
	return s
}

// Graph returns the underlying graph.
func (s *Store) Graph() *graph.Uncertain { return s.g }

// Seed returns the world-stream seed.
func (s *Store) Seed() uint64 { return s.seed }

// NumNodes returns the node count of the underlying graph.
func (s *Store) NumNodes() int { return s.n }

// World returns the implicit view of world i: the same world the label
// blocks index, usable for edge queries and per-world BFS.
func (s *Store) World(i int) sampler.World {
	return sampler.World{G: s.g, Seed: s.seed, Index: uint64(i)}
}

// Grow raises the logical stream length to at least r worlds. Labels are
// materialized lazily, block by block, on first scan; Grow itself is cheap.
// The stream never shrinks.
func (s *Store) Grow(r int) {
	for {
		cur := s.length.Load()
		if int64(r) <= cur || s.length.CompareAndSwap(cur, int64(r)) {
			return
		}
	}
}

// Worlds returns the logical stream length: the largest world count any
// consumer has requested so far.
func (s *Store) Worlds() int { return int(s.length.Load()) }

// BlockWorlds returns the number of worlds per block — the granularity at
// which blocks of either artifact family are materialized and evicted. It
// is a pure function of the graph's node count, so every store over the
// same graph (in this process or another) agrees on it; the shard
// coordinator relies on that to cut block-aligned world ranges that map
// cleanly onto worker-side blocks.
func (s *Store) BlockWorlds() int { return s.bw }

// BitsWarm reports whether every edge-bitmap block covering worlds
// [lo, hi) is resident or persisted in the attached spill cache — i.e.
// whether a depth-limited scan can be answered without re-evaluating edge
// coins (a disk load is a sequential read plus checksum, orders of
// magnitude cheaper than re-hashing every edge of every world). It is a
// performance hint only: a block may be evicted between the probe and a
// subsequent ScanBits (which then recomputes it, bit-identically), so
// callers use it to choose between equivalent paths, never for
// correctness.
func (s *Store) BitsWarm(lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return false
	}
	var missing []int
	s.mu.Lock()
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		if _, ok := s.blocks[famBits][bi]; !ok {
			missing = append(missing, bi)
		}
	}
	s.mu.Unlock()
	c := s.spill.Load()
	for _, bi := range missing {
		if c == nil || !c.has(famBits, bi) {
			return false
		}
	}
	return true
}

// SetBudget bounds the memory spent on materialized blocks — label and
// edge-bitmap families together, label blocks with their largest-component
// indexes — to roughly bytes (a block being acquired is always allowed in
// even when it alone overshoots, so scans make progress). bytes <= 0 removes the bound. Shrinking evicts immediately.
// Estimates are identical in bounded and unbounded mode: evicted blocks
// are recomputed, not approximated.
func (s *Store) SetBudget(bytes int64) {
	s.mu.Lock()
	if bytes <= 0 {
		s.budget = 0
		s.mu.Unlock()
		return
	}
	s.budget = bytes
	victims := s.evictLocked(s.budget)
	s.mu.Unlock()
	s.writeSpills(victims)
}

// Stats returns observability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Worlds:               int(s.length.Load()),
		ResidentBlocks:       len(s.blocks[famLabels]) + len(s.blocks[famBits]),
		ResidentLabelBlocks:  len(s.blocks[famLabels]),
		ResidentBitmapBlocks: len(s.blocks[famBits]),
		ResidentBytes:        s.residentBytes,
		BlockWorlds:          s.bw,
		Hits:                 s.hits,
		Materializations:     s.materialized,
		Recomputes:           s.recomputed,
		Evictions:            s.evicted,
	}
	s.mu.Unlock()
	st.DiskHits = s.diskHits.Load()
	st.SpillWrites = s.spillWrites.Load()
	st.CorruptDropped = s.corruptDropped.Load()
	st.ColdRecomputes = s.coldRecomputes.Load()
	st.PostSpillRecomputes = s.spillRecomputes.Load()
	st.AccumWorlds = s.accumWorlds.Load()
	st.AccumFlushes = s.accumFlushes.Load()
	st.DirectWorlds = s.directWorlds.Load()
	if c := s.spill.Load(); c != nil {
		st.DiskBytes = c.bytes()
		st.CacheDir = c.dir
	}
	return st
}

// TierDelta is the tier-activity difference between two Stats snapshots:
// which storage tier (resident RAM block, disk-tier load, recompute from
// the stream) served the block acquisitions in between. It exists for
// per-request trace attribution — a shard worker snapshots Stats around
// one tally and ships the delta back to the coordinator. On a store
// shared by concurrent requests the delta attributes the store's total
// activity during the window, not the single request's share; it informs
// operators, never estimates.
type TierDelta struct {
	Hits             uint64 // acquisitions served by resident blocks
	DiskHits         uint64 // block misses answered by the disk tier
	Recomputes       uint64 // blocks rebuilt from the stream after eviction
	Materializations uint64 // block instantiations (fresh, recomputed or disk-loaded)
}

// TierDelta reports the tier-activity counters of s relative to the
// earlier snapshot prev.
func (s Stats) TierDelta(prev Stats) TierDelta {
	return TierDelta{
		Hits:             s.Hits - prev.Hits,
		DiskHits:         s.DiskHits - prev.DiskHits,
		Recomputes:       s.Recomputes - prev.Recomputes,
		Materializations: s.Materializations - prev.Materializations,
	}
}

// AttachCache attaches the disk tier rooted at dir: evicted blocks spill
// to checksummed segment files under dir and misses try disk before
// recomputing. An existing directory written by a previous process for
// the same (graph digest, seed, shape) is re-attached as-is — that is the
// warm-restart path — while a directory belonging to a different store is
// rejected. At most one cache can be attached per store; entries dropped
// while replaying a truncated directory are counted in CorruptDropped.
func (s *Store) AttachCache(dir string) error {
	h := spillHeader{
		digest: s.g.Digest(),
		seed:   s.seed,
		n:      s.n,
		wpw:    s.wpw,
		bw:     s.bw,
	}
	c, dropped, err := openSpillCache(dir, h, [numFamilies]int64{s.blockBytes(famLabels), s.blockBytes(famBits)})
	if err != nil {
		return err
	}
	if !s.spill.CompareAndSwap(nil, c) {
		c.close()
		return errors.New("worldstore: store already has a cache attached")
	}
	s.corruptDropped.Add(uint64(dropped))
	// The cache holds OS resources (fds, mmaps) but no reference back to
	// the store, so it is reclaimed with the store.
	runtime.AddCleanup(s, func(c *spillCache) { c.close() }, c)
	return nil
}

// CacheDir returns the attached disk-tier directory, "" if none.
func (s *Store) CacheDir() string {
	if c := s.spill.Load(); c != nil {
		return c.dir
	}
	return ""
}

// acquire returns family f's block bi, pinned against eviction, with all
// of its worlds materialized — a label block with its largest-component
// index — and, for a bitmap block when indexed is set, its presence index
// built. A missing block is inserted and budget-accounted first: enough
// LRU unpinned blocks of either family are evicted to make room under the
// byte budget, and the new block is admitted even when the budget cannot
// be met, so progress never blocks on memory pressure. The victims are
// spilled before the new block is materialized, so one of b's own family
// can hand its buffers over (see materialize). Materialization and the
// presence index build serialize on the block's mutex, so exactly one
// goroutine computes each while later arrivals reuse the result; the
// first presence index of a block is charged to the byte budget. Callers
// read b.labels, b.bits and b.index directly and must release the block.
// Caller must not hold s.mu.
func (s *Store) acquire(f family, bi int, indexed bool) *block {
	s.mu.Lock()
	b, ok := s.blocks[f][bi]
	var victims []*block
	if !ok {
		b = &block{fam: f, idx: bi, bytes: s.blockBytes(f), rebuilt: s.built[f][bi]}
		if s.budget > 0 {
			victims = s.evictLocked(s.budget - b.bytes)
		}
		s.blocks[f][bi] = b
		s.residentBytes += b.bytes
		s.materialized++
		s.built[f][bi] = true
	} else {
		s.hits++
	}
	b.pins++
	s.clock++
	b.lastUse = s.clock
	s.mu.Unlock()
	s.writeSpills(victims)

	b.mu.Lock()
	if b.labels == nil && b.bits == nil {
		var donor *block
		for _, v := range victims {
			if v.fam == f {
				donor = v
			}
		}
		s.materialize(b, donor)
	}
	first := indexed && b.index == nil
	if first {
		b.index = s.buildPresence(b.bits)
	}
	b.mu.Unlock()
	if first {
		s.chargeIndex(b, s.indexBytes(famBits))
	}
	return b
}

// materialize fills block b with all of its worlds, and a label block
// with its largest-component index: loaded from the disk tier when that
// holds a valid copy (a disk hit), computed from the stream otherwise. A
// spilled copy that fails validation is dropped and counted, and a
// recompute is classified by whether a spilled copy existed or this block
// index was materialized before. The buffers are donor's when donor is
// not nil — an evicted, unpinned block of b's family whose spill write
// has finished — and fresh otherwise; either way the load or the
// computation overwrites every entry of them, also after a load that
// copied a record in and then failed its checksum. The caller holds b.mu
// and a pin on b.
func (s *Store) materialize(b, donor *block) {
	switch {
	case donor == nil && b.fam == famLabels:
		b.labels, b.index = make([]int32, s.bw*s.n), make([]uint64, s.indexWords()*s.n)
	case donor == nil:
		b.bits = make([]uint64, s.bw*s.wpw)
	case b.fam == famLabels:
		b.labels, b.index = donor.labels, donor.index
	default:
		b.bits = donor.bits // a presence index is built lazily, never handed over
	}
	var loaded, hadEntry bool
	if c := s.spill.Load(); c != nil {
		loaded, hadEntry = c.load(b)
	}
	switch {
	case loaded:
		s.diskHits.Add(1)
		return
	case hadEntry:
		s.corruptDropped.Add(1)
		s.noteRecompute(true)
	case b.rebuilt:
		s.noteRecompute(false)
	}
	if b.fam == famLabels {
		s.computeLabels(b.idx, b.labels)
		s.buildComponents(b.labels, b.index)
	} else {
		s.computeBitmaps(b.idx, b.bits)
	}
}

// noteRecompute counts one block recomputation, split by whether a
// spilled copy existed (and failed) or there was nothing on disk to try.
func (s *Store) noteRecompute(postSpill bool) {
	s.mu.Lock()
	s.recomputed++
	s.mu.Unlock()
	if postSpill {
		s.spillRecomputes.Add(1)
	} else {
		s.coldRecomputes.Add(1)
	}
}

// writeSpills persists evicted blocks to the disk tier. Runs without
// store locks: the victims are unreachable and owned by the caller, which
// evicted them, and the spill cache has its own mutex.
func (s *Store) writeSpills(victims []*block) {
	if len(victims) == 0 {
		return
	}
	c := s.spill.Load()
	if c == nil {
		return
	}
	for _, b := range victims {
		if c.store(b) {
			s.spillWrites.Add(1)
		}
	}
}

// fanOutWorlds runs a per-world computation for every world of a block,
// split across goroutines by par.Split. Each share calls worker() once to
// bind its private scratch and then invokes the returned function for the
// world indices it steals off a shared cursor. Stealing only changes which
// share computes a world, never the result: every world writes a disjoint
// slice of the output.
func (s *Store) fanOutWorlds(worker func() func(i int)) {
	var next atomic.Int64
	par.Split(s.bw, func(int, int) {
		compute := worker()
		for i := int(next.Add(1)) - 1; i < s.bw; i = int(next.Add(1)) - 1 {
			compute(i)
		}
	})
}

// computeLabels writes the component labels of every world of block bi
// into labels, overwriting every entry. Each world's labels are computed
// independently into a disjoint slice of the buffer, so the bits do not
// depend on the worker count.
func (s *Store) computeLabels(bi int, labels []int32) {
	base := bi * s.bw
	s.fanOutWorlds(func() func(int) {
		uf := graph.NewUnionFind(s.n)
		return func(i int) {
			s.World(base+i).ComponentLabels(uf, labels[i*s.n:(i+1)*s.n])
		}
	})
}

// computeBitmaps writes the edge bitmaps of every world of block bi into
// bits, overwriting every word. Each world's bitmap is filled
// independently into a disjoint slice of the buffer, so the bits do not
// depend on the worker count.
func (s *Store) computeBitmaps(bi int, bits []uint64) {
	base := bi * s.bw
	s.fanOutWorlds(func() func(int) {
		return func(i int) {
			s.World(base + i).FillEdgeBitmap(bits[i*s.wpw : (i+1)*s.wpw])
		}
	})
}

// release unpins a block acquired with acquire. When the last pin drops
// while the store is over budget — a SetBudget shrink that ran while this
// block was pinned had to skip it — eviction resumes here, so pinned
// blocks outliving a shrink only overshoot the budget for the duration of
// the pin, and ResidentBytes settles back under the bound.
func (s *Store) release(b *block) {
	s.mu.Lock()
	b.pins--
	var victims []*block
	if b.pins == 0 && s.budget > 0 && s.residentBytes > s.budget {
		victims = s.evictLocked(s.budget)
	}
	s.mu.Unlock()
	s.writeSpills(victims)
}

// evictLocked drops least-recently-used unpinned blocks — across both
// artifact families — until at most maxBytes of nominal block memory
// remain, and returns them. Blocks still being materialized or pinned by
// readers are never dropped; if everything is pinned the budget is
// temporarily overshot rather than blocking. The victims are out of the
// block map with zero pins, so the caller owns them: it spills them with
// writeSpills after releasing s.mu. Caller holds s.mu.
func (s *Store) evictLocked(maxBytes int64) []*block {
	if maxBytes < 0 {
		maxBytes = 0
	}
	var victims []*block
	for s.residentBytes > maxBytes {
		var victim *block
		for f := range s.blocks {
			for _, b := range s.blocks[f] {
				// pins == 0 implies no goroutine is reading or materializing
				// the block: materialization happens while its requester
				// holds a pin, so an unpinned block is whole.
				if b.pins > 0 {
					continue
				}
				if victim == nil || b.lastUse < victim.lastUse {
					victim = b
				}
			}
		}
		if victim == nil {
			break
		}
		delete(s.blocks[victim.fam], victim.idx)
		s.residentBytes -= victim.bytes
		s.evicted++
		victims = append(victims, victim)
	}
	return victims
}

// Scan calls fn(i, labels) for every world i in [lo, hi), in increasing
// order, where labels is the world's component-label slice (length
// NumNodes). The slice is only valid during the callback and must not be
// modified. Blocks are pinned for the duration of their worlds' callbacks,
// acquired one at a time, so a scan holds at most one block against
// eviction. Scan grows the logical stream to hi.
func (s *Store) Scan(lo, hi int, fn func(i int, labels []int32)) {
	_ = s.ScanCtx(context.Background(), lo, hi, fn)
}

// ScanCtx is Scan with cooperative cancellation: the context is checked
// before each block is acquired (the unit of expensive work), and the first
// cancellation or deadline error is returned with the scan abandoned.
// Worlds already delivered to fn are exact; a scan that returns nil
// delivered every world in [lo, hi) and is bit-identical to Scan.
func (s *Store) ScanCtx(ctx context.Context, lo, hi int, fn func(i int, labels []int32)) error {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return nil
	}
	s.Grow(hi)
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		base := bi * s.bw
		b := s.acquire(famLabels, bi, false)
		for i := max(lo, base); i < min(hi, base+s.bw); i++ {
			off := (i - base) * s.n
			fn(i, b.labels[off:off+s.n:off+s.n])
		}
		s.release(b)
	}
	return nil
}

// ScanBits calls fn(i, bits) for every world i in [lo, hi), in increasing
// order, where bits is the world's present-edge bitmap (length
// sampler.EdgeBitmapWords(NumEdges); bit e set iff edge e is present —
// test with sampler.BitmapContains). The slice is only valid during the
// callback and must not be modified. Bitmap blocks are pinned one at a
// time, exactly like label blocks in Scan, and count against the same
// byte budget. ScanBits grows the logical stream to hi.
func (s *Store) ScanBits(lo, hi int, fn func(i int, bits []uint64)) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return
	}
	s.Grow(hi)
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		base := bi * s.bw
		b := s.acquire(famBits, bi, false)
		for i := max(lo, base); i < min(hi, base+s.bw); i++ {
			off := (i - base) * s.wpw
			fn(i, b.bits[off:off+s.wpw:off+s.wpw])
		}
		s.release(b)
	}
}

// CountWithinMulti is the depth-limited mirror of CountConnectedFromMulti:
// for each center cs[j] it adds, into counts[j] (length NumNodes, not
// cleared), the number of worlds in [lo[j], hi) where each node is within
// depth hops of cs[j]. depth < 0 means unconstrained reachability (callers
// with unlimited depth should prefer the label paths, which need no BFS).
//
// The store picks the kernel by its block width. On blocks of at least 64
// worlds each bitmap block covering [min lo, hi) is acquired once and
// answers every center from its presence index, one packed traversal per
// center per 64 worlds (see countPacked), which costs less than sharing a
// per-world pass. Narrower blocks answer all centers in one pass over
// each world's edge bitmap (see countWithinUnpacked): the world's edge
// coins are evaluated once, when its bitmap block is materialized, and
// every center's depth-bounded BFS tests bits instead of re-hashing.
//
// Each (world, center) BFS visit set is a pure function of the world's
// edge set, so the result is bit-identical to looping a per-center
// sampler.ReachCounter over the same ranges, whichever kernel runs.
func (s *Store) CountWithinMulti(cs []graph.NodeID, depth int, lo []int, hi int, counts [][]int32) {
	if !s.packed() {
		s.countWithinUnpacked(cs, depth, lo, hi, counts)
		return
	}
	first := batchStart(lo, hi)
	if len(cs) == 0 || first >= hi {
		return
	}
	s.Grow(hi)
	n, m := s.n, s.g.NumEdges()
	p := s.packPool.Get().(*packedBFS)
	for bi := first / s.bw; bi*s.bw < hi; bi++ {
		base := bi * s.bw
		b := s.acquire(famBits, bi, true)
		for j, c := range cs {
			start, end := max(lo[j], base)-base, min(hi, base+s.bw)-base
			if start >= end {
				continue
			}
			cnt := counts[j][:n:n]
			for k := start / 64; k*64 < end; k++ {
				s.countPacked(p, b.index[k*m:(k+1)*m], c, depth, worldMask(k, start, end), cnt)
			}
		}
		s.release(b)
	}
	s.packPool.Put(p)
}

// countWithinUnpacked is CountWithinMulti on world-major bitmaps, for
// stores whose blocks are too narrow for the presence index: a multi-center
// frontier BFS per world, centers packed 64 to a mask.
func (s *Store) countWithinUnpacked(cs []graph.NodeID, depth int, lo []int, hi int, counts [][]int32) {
	if len(cs) == 0 {
		return
	}
	mrc := s.reachPool.Get().(*sampler.MultiReachCounter)
	defer s.reachPool.Put(mrc)
	// Mask groups of <= 64 centers, each answered over the same bitmap
	// blocks (re-acquisitions after the first group are cache hits).
	for base := 0; base < len(cs); base += 64 {
		end := base + 64
		if end > len(cs) {
			end = len(cs)
		}
		s.countWithinGroup(mrc, cs[base:end], depth, lo[base:end], hi, counts[base:end])
	}
}

// countWithinGroup answers one <= 64-center group. The world range is split
// at the distinct lo values into segments on which the active center set
// is constant, so the counter's accumulate mode (one flat add per reach,
// flushed per segment) keeps a stable bit-to-center mapping; graphs too
// large for the flat accumulator fall back to per-world direct counting.
// Either mode adds the same per-world reach indicators, so the counts are
// bit-identical regardless of mode, segmentation, or group split.
func (s *Store) countWithinGroup(mrc *sampler.MultiReachCounter, cs []graph.NodeID, depth int, lo []int, hi int, counts [][]int32) {
	// Distinct segment starts: every lo value below hi, ascending.
	starts := make([]int, 0, len(lo))
	for _, l := range lo {
		if l < 0 {
			l = 0
		}
		if l >= hi {
			continue
		}
		starts = append(starts, l)
	}
	if len(starts) == 0 {
		return
	}
	sort.Ints(starts)
	accum := mrc.BeginAccum()
	activeCs := make([]graph.NodeID, 0, len(cs))
	activeCounts := make([][]int32, 0, len(cs))
	for k := 0; k < len(starts); k++ {
		a := starts[k]
		if k > 0 && a == starts[k-1] {
			continue // duplicate lo value
		}
		b := hi
		for _, nl := range starts[k+1:] {
			if nl > a {
				b = nl
				break
			}
		}
		activeCs = activeCs[:0]
		activeCounts = activeCounts[:0]
		for j, c := range cs {
			if lo[j] > a {
				continue
			}
			activeCs = append(activeCs, c)
			activeCounts = append(activeCounts, counts[j])
		}
		if accum {
			// Flush on the accumulator's capacity cadence: the bit-sliced
			// planes hold at most AccumCapacity worlds of counts, so long
			// segments accumulate in capacity-sized sub-ranges. Flushing
			// more often only regroups exact integer additions — the counts
			// are bit-identical for any cadence.
			capacity := mrc.AccumCapacity()
			for x := a; x < b; x += capacity {
				y := x + capacity
				if y > b {
					y = b
				}
				s.ScanBits(x, y, func(_ int, bits []uint64) {
					mrc.AccumWorld(bits, activeCs, depth)
				})
				mrc.FlushAccum(activeCounts)
				s.accumWorlds.Add(uint64(y - x))
				s.accumFlushes.Add(1)
			}
		} else {
			s.ScanBits(a, b, func(_ int, bits []uint64) {
				mrc.CountWithinWorld(bits, activeCs, depth, activeCounts)
			})
			s.directWorlds.Add(uint64(b - a))
		}
	}
}

// EstimatePair returns the Monte Carlo estimate of Pr(u ~ v) over the
// first r worlds.
func (s *Store) EstimatePair(u, v graph.NodeID, r int) float64 {
	p, _ := s.EstimatePairCtx(context.Background(), u, v, r)
	return p
}

// EstimatePairCtx is EstimatePair with cooperative cancellation: the scan
// aborts at the next block boundary once ctx is done, returning ctx's
// error.
func (s *Store) EstimatePairCtx(ctx context.Context, u, v graph.NodeID, r int) (float64, error) {
	cnt, err := s.CountPairCtx(ctx, u, v, 0, r)
	if err != nil {
		return 0, err
	}
	return float64(cnt) / float64(r), nil
}

// CountPairCtx returns the number of worlds in [lo, hi) where u and v
// share a component. The scan aborts at the next block boundary once ctx
// is done, returning ctx's error.
func (s *Store) CountPairCtx(ctx context.Context, u, v graph.NodeID, lo, hi int) (int64, error) {
	var cnt int64
	err := s.ScanCtx(ctx, lo, hi, func(_ int, lab []int32) {
		if lab[u] == lab[v] {
			cnt++
		}
	})
	return cnt, err
}
