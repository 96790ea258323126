// Package sampler defines the implicit possible-world stream of an
// uncertain graph.
//
// A possible world G ⊑ G keeps each edge e independently with probability
// p(e). World i of a seeded stream is defined by stateless hash coins, so
// edge presence can be queried on the fly without storing anything:
// (seed, index) fully determines a world, and re-evaluating a coin always
// yields the same answer. Depth-limited BFS runs directly on implicit
// worlds via World.BFSWithin; ReachCounter batches such traversals over a
// world range.
//
// A world can also be materialized as an edge bitmap (FillEdgeBitmap): one
// bit per edge ID, so every coin of the world is evaluated exactly once
// and later traversals test bits instead of re-hashing.
// MultiReachCounter exploits that: given one world's bitmap it runs the
// depth-bounded BFS for a whole batch of centers, paying the edge-coin
// hashing bill once per world instead of once per (world, center).
//
// Materialized per-world artifacts — component labels (the connectivity
// index that answers "is u connected to v in world i" in O(1)) and edge
// bitmaps — live one layer up, in internal/worldstore, which caches them
// in memory-bounded blocks shared by every consumer of the same
// (graph, seed) stream. All views of the same (seed, index) pair describe
// the same world: the label matrix and the bitmap are just indexes over
// the implicit world.
package sampler

import (
	bitsops "math/bits"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// World is an implicitly represented possible world: edge presence is
// decided by stateless hash coins keyed on (seed, index, edge).
type World struct {
	G     *graph.Uncertain
	Seed  uint64
	Index uint64
}

// Contains reports whether the edge with the given ID is present.
func (w World) Contains(edgeID int32) bool {
	return rng.EdgeCoin(w.Seed, w.Index, uint64(edgeID), w.G.CoinThreshold(edgeID))
}

// NumEdgesPresent counts the edges present in this world (testing helper;
// O(m)).
func (w World) NumEdgesPresent() int {
	c := 0
	for id := int32(0); id < int32(w.G.NumEdges()); id++ {
		if w.Contains(id) {
			c++
		}
	}
	return c
}

// PresentEdges returns the IDs of the edges present in this world,
// ascending (O(m)).
func (w World) PresentEdges() []int32 {
	var kept []int32
	for id := int32(0); id < int32(w.G.NumEdges()); id++ {
		if w.Contains(id) {
			kept = append(kept, id)
		}
	}
	return kept
}

// EdgeBitmapWords returns the length, in uint64 words, of a per-world edge
// bitmap for a graph with m edges: one bit per edge ID.
func EdgeBitmapWords(m int) int { return (m + 63) / 64 }

// FillEdgeBitmap materializes this world's edge set into bits, which must
// have length EdgeBitmapWords(NumEdges): bit e is set iff edge e is
// present. Every edge coin of the world is evaluated exactly once, so a
// bitmap shared across a batch of traversals amortizes the hash-coin cost
// that implicit BFS pays per traversal. The bitmap is a pure function of
// (seed, index): refilling it always produces the same bits — bit e equals
// Contains(e) exactly, the coins are just evaluated branchlessly (raw hash
// vs threshold) and accumulated a register word at a time.
func (w World) FillEdgeBitmap(bits []uint64) {
	m := w.G.NumEdges()
	for wd := range bits {
		base := wd << 6
		end := base + 64
		if end > m {
			end = m
		}
		var acc uint64
		for id := base; id < end; id++ {
			// The borrow of hash - threshold is 1 exactly when
			// hash < threshold, i.e. when the coin succeeds. Pure integer
			// arithmetic — no data-dependent branch, no flag-materializing
			// conditional — so the 64 coins of a word accumulate as a
			// straight-line dependency-free loop the compiler can unroll.
			_, coin := bitsops.Sub64(rng.EdgeHash(w.Seed, w.Index, uint64(id)), w.G.CoinThreshold(int32(id)), 0)
			acc |= coin << (uint(id) & 63)
		}
		bits[wd] = acc
	}
}

// BitmapContains reports whether edge id is present in the world whose
// edge bitmap is bits.
func BitmapContains(bits []uint64, id int32) bool {
	return bits[id>>6]&(1<<(uint(id)&63)) != 0
}

// ComponentLabels computes the connected-component labels of this world
// into out (length NumNodes). uf is scratch space and is reset.
func (w World) ComponentLabels(uf *graph.UnionFind, out []int32) {
	uf.Reset()
	for id, e := range w.G.Edges() {
		if rng.EdgeCoin(w.Seed, w.Index, uint64(id), w.G.CoinThreshold(int32(id))) {
			uf.Union(e.U, e.V)
		}
	}
	uf.Labels(out)
}

// BFSWithin visits all nodes at hop distance <= maxDepth from src in this
// world and calls visit(v, depth) for each (including src at depth 0).
// A maxDepth < 0 means unlimited. The two scratch slices must have length
// NumNodes; seen is an epoch array: entries equal to epoch mean "visited".
// Using epochs lets callers reuse the arrays across many BFS runs without
// clearing them.
func (w World) BFSWithin(src graph.NodeID, maxDepth int, seen []uint32, epoch uint32, queue []graph.NodeID, visit func(v graph.NodeID, depth int32)) {
	seen[src] = epoch
	queue = queue[:0]
	queue = append(queue, src)
	visit(src, 0)
	depth := int32(0)
	frontierEnd := 1
	i := 0
	for i < len(queue) {
		if maxDepth >= 0 && depth >= int32(maxDepth) {
			break
		}
		// Expand one full depth layer.
		for ; i < frontierEnd; i++ {
			u := queue[i]
			nodes, ids, _ := w.G.NeighborSlices(u)
			for j, v := range nodes {
				if seen[v] == epoch {
					continue
				}
				id := ids[j]
				if !rng.EdgeCoin(w.Seed, w.Index, uint64(id), w.G.CoinThreshold(id)) {
					continue
				}
				seen[v] = epoch
				queue = append(queue, v)
				visit(v, depth+1)
			}
		}
		depth++
		frontierEnd = len(queue)
	}
}

// ReachCounter runs depth-limited reachability queries against the implicit
// worlds of a seeded stream. It owns reusable scratch buffers, so it is not
// safe for concurrent use; create one per goroutine.
type ReachCounter struct {
	g     *graph.Uncertain
	seed  uint64
	seen  []uint32
	epoch uint32
	queue []graph.NodeID
}

// NewReachCounter returns a counter over g's worlds under seed. It shares
// the world stream with any worldstore.Store built from the same (g, seed):
// world i has identical edges in both views.
func NewReachCounter(g *graph.Uncertain, seed uint64) *ReachCounter {
	return &ReachCounter{
		g:     g,
		seed:  seed,
		seen:  make([]uint32, g.NumNodes()),
		queue: make([]graph.NodeID, 0, g.NumNodes()),
	}
}

// CountWithin adds, for every node u, the number of worlds in [lo, hi) where
// u is within maxDepth hops of c, into counts (length NumNodes; not
// cleared). maxDepth < 0 means unconstrained reachability.
func (rc *ReachCounter) CountWithin(c graph.NodeID, maxDepth int, lo, hi int, counts []int32) {
	for i := lo; i < hi; i++ {
		rc.epoch++
		if rc.epoch == 0 { // wrapped; clear and restart epochs
			for j := range rc.seen {
				rc.seen[j] = 0
			}
			rc.epoch = 1
		}
		w := World{G: rc.g, Seed: rc.seed, Index: uint64(i)}
		w.BFSWithin(c, maxDepth, rc.seen, rc.epoch, rc.queue, func(v graph.NodeID, _ int32) {
			counts[v]++
		})
	}
}

// MultiReachCounter runs depth-limited reachability queries for a whole
// batch of centers against materialized edge bitmaps, using a multi-center
// frontier BFS: centers are packed 64 to a uint64 mask, and one layered
// traversal per world advances every center's frontier simultaneously —
// each present edge moves up to 64 BFS waves in a handful of word
// operations. Where ReachCounter re-evaluates the stateless hash coin for
// every touched edge of every center's BFS, a MultiReachCounter tests the
// world's bitmap — so a batch pays the edge-coin hashing bill once per
// world (when the bitmap is filled) instead of once per (world, center) —
// and where per-center BFS re-scans the adjacency of a node once per
// center whose ball covers it, the shared frontier scans it once per
// layer.
//
// The visit set of each center is a property of the world's edge set alone
// (the depth-d reachability ball), so the counts are bit-identical to a
// per-center ReachCounter.CountWithin over the same range, for any batch
// composition.
//
// The counter owns reusable scratch (epoch-sharded visit/frontier mask
// arrays and frontier queues, shared across worlds), so it is not safe for
// concurrent use; create one per goroutine.
type MultiReachCounter struct {
	g *graph.Uncertain

	// visit[v] is the mask of centers (of the current ≤64-center group)
	// that have reached v, valid iff visitEpoch[v] == epoch. The epoch
	// advances once per (world, group), so worlds reuse the arrays without
	// clearing.
	visit      []uint64
	visitEpoch []uint32
	epoch      uint32

	// curMask[v] holds, for nodes of the current frontier, the bits that
	// first reached v in the previous layer — the waves still expanding.
	// nxtMask accumulates the next layer's arrivals, valid iff
	// nxtEpoch[v] == layer; the two mask arrays swap roles each layer.
	curMask   []uint64
	nxtMask   []uint64
	nxtEpoch  []uint32
	layer     uint32
	frontier  []graph.NodeID
	nextFront []graph.NodeID

	// touched lists the nodes first visited during the current world's
	// traversal — the bit-sliced accumulate pass folds visit[v] of each
	// into the vertical counters after the BFS finishes.
	touched []graph.NodeID

	// acc is the bit-sliced vertical accumulator of accumulate mode
	// (BeginAccum): node v's accumPlanes one-bit planes interleaved at
	// acc[v*accumPlanes : (v+1)*accumPlanes], where word k holds bit k of
	// the per-(node, center) reach counters of the current ≤64-center
	// group — center j's count at node v is Σ_k ((acc[v*8+k]>>j)&1)<<k.
	// Adding one world's reach mask is a ripple-carry add across the
	// planes (countGroup's post-BFS pass): the low half-add is the whole
	// cost for most adds, and each extra carry level is exponentially
	// rarer, so a 64-center increment costs an amortized ~2 word
	// operations where the old flat [n*64]int32 accumulator chased one
	// indexed int32 add per set bit. The node-major interleave puts all eight planes of a
	// node in one 64-byte cache line, so even a full-depth carry chain
	// stays in the line the half-add already pulled — a plane-major
	// layout would stride carries n words apart and miss on every level.
	// The planes also shrink the accumulator 4x (64 bytes per node
	// instead of 256), which together with the raised maxAccumBytes cap
	// lets paper-scale graphs (DBLP, 636751 nodes) take the accumulate
	// path instead of falling back to direct counting. FlushAccum folds
	// the planes into per-center counts and re-zeroes.
	acc []uint64
	// accDirty marks (one bit per node) which counters moved since the
	// last flush, so FlushAccum merges only touched nodes instead of
	// scanning the whole backing.
	accDirty  []uint64
	accWorlds int // worlds accumulated since the last flush (overflow guard)
}

// NewMultiReachCounter returns a batched counter over g. The bitmaps it
// consumes must come from the same graph (same edge IDs).
func NewMultiReachCounter(g *graph.Uncertain) *MultiReachCounter {
	n := g.NumNodes()
	return &MultiReachCounter{
		g:          g,
		visit:      make([]uint64, n),
		visitEpoch: make([]uint32, n),
		curMask:    make([]uint64, n),
		nxtMask:    make([]uint64, n),
		nxtEpoch:   make([]uint32, n),
		frontier:   make([]graph.NodeID, 0, n),
		nextFront:  make([]graph.NodeID, 0, n),
	}
}

// CountWithinWorld adds, for every center cs[j] and every node u within
// maxDepth hops of cs[j] in the world whose edge bitmap is bits, 1 into
// counts[j][u] (counts[j] has length NumNodes and is not cleared).
// maxDepth < 0 means unconstrained reachability. Batches larger than 64
// centers run as successive 64-center mask groups over the same bitmap.
func (mrc *MultiReachCounter) CountWithinWorld(bits []uint64, cs []graph.NodeID, maxDepth int, counts [][]int32) {
	for base := 0; base < len(cs); base += 64 {
		end := base + 64
		if end > len(cs) {
			end = len(cs)
		}
		mrc.countGroup(bits, cs[base:end], maxDepth, counts[base:end], false)
	}
}

// accumPlanes is the bit width of the bit-sliced vertical counters: each
// (node, center) counter spans accumPlanes one-bit planes, so at most
// 2^accumPlanes - 1 worlds may be accumulated between flushes
// (AccumCapacity). 8 planes keep the accumulator at 64 bytes per node while
// leaving a comfortable flush cadence (255 worlds ≈ one worldstore block).
const accumPlanes = 8

// maxAccumBytes caps the per-counter accumulator memory of accumulate
// mode: graphs whose bit-sliced planes (8*accumPlanes bytes per node)
// would exceed it fall back to direct per-vector counting. At 64 MiB the
// bit-sliced cap admits graphs up to ~1M nodes — 16x the ~64k-node ceiling
// of the old flat [n*64]int32 accumulator under its 16 MiB cap — so
// paper-scale instances (DBLP, 636751 nodes) take the accumulate path. The
// cap trades one worker-local block of memory for the fastest innermost
// loop; correctness never depends on the mode.
const maxAccumBytes = 64 << 20

// BeginAccum switches the counter into accumulate mode, reporting whether
// the graph is small enough for the accumulator. In accumulate mode the
// caller feeds worlds through AccumWorld — same BFS, but reach counts land
// in the counter's internal bit-sliced planes — and folds them into
// per-center count vectors with FlushAccum, at least every AccumCapacity
// worlds. Looping AccumWorld + FlushAccum is bit-identical to looping
// CountWithinWorld: both add the same per-world reach indicators, just
// grouped differently.
func (mrc *MultiReachCounter) BeginAccum() bool {
	n := mrc.g.NumNodes()
	if mrc.acc == nil {
		if n*8*accumPlanes > maxAccumBytes {
			return false
		}
		mrc.acc = make([]uint64, n*accumPlanes)
		mrc.accDirty = make([]uint64, (n+63)/64)
	}
	return true
}

// AccumCapacity returns how many worlds may be accumulated between
// FlushAccum calls before a bit-sliced counter could overflow its planes.
// Callers batching more worlds than this must flush on the cadence;
// AccumWorld panics past it rather than wrapping a counter silently.
func (mrc *MultiReachCounter) AccumCapacity() int {
	return 1<<accumPlanes - 1
}

// AccumWorld is CountWithinWorld for accumulate mode: it adds one world's
// reach into the accumulator. The group is limited to 64 centers (one mask
// word); BeginAccum must have returned true, and no more than
// AccumCapacity worlds may be accumulated between flushes.
func (mrc *MultiReachCounter) AccumWorld(bits []uint64, cs []graph.NodeID, maxDepth int) {
	if len(cs) > 64 {
		panic("sampler: AccumWorld group exceeds 64 centers")
	}
	if mrc.accWorlds >= mrc.AccumCapacity() {
		panic("sampler: AccumWorld past AccumCapacity without FlushAccum")
	}
	mrc.accWorlds++
	mrc.countGroup(bits, cs, maxDepth, nil, true)
}

// FlushAccum adds the accumulated counts of the j-th group center into
// counts[j] for every j, zeroing the accumulator behind itself. counts
// must have the same length as the cs slices passed to AccumWorld since
// the last flush.
func (mrc *MultiReachCounter) FlushAccum(counts [][]int32) {
	mrc.accWorlds = 0
	// Sparse node-major merge: the dirty bitmap names exactly the nodes
	// whose counters moved since the last flush, so untouched regions of
	// the backing are never scanned. Each dirty node's eight plane words
	// share a cache line; zero words (no center reached the node at that
	// bit weight) are skipped with one compare, and the set bits of a
	// surviving word are dispatched to their center vectors with a
	// popcount-style bit-clear loop.
	for w, dw := range mrc.accDirty {
		if dw == 0 {
			continue
		}
		mrc.accDirty[w] = 0
		for ; dw != 0; dw &= dw - 1 {
			v := w<<6 + bitsops.TrailingZeros64(dw)
			planes := mrc.acc[v*accumPlanes : (v+1)*accumPlanes]
			for k, word := range planes {
				if word == 0 {
					continue
				}
				planes[k] = 0
				weight := int32(1) << uint(k)
				for p := word; p != 0; p &= p - 1 {
					counts[bitsops.TrailingZeros64(p)][v] += weight
				}
			}
		}
	}
}

// countGroup advances one ≤64-center mask group through the world,
// recording reach either directly into counts (accum false) or into the
// bit-sliced planes in accumulate mode.
func (mrc *MultiReachCounter) countGroup(bits []uint64, cs []graph.NodeID, maxDepth int, counts [][]int32, accum bool) {
	mrc.epoch++
	if mrc.epoch == 0 { // wrapped; clear and restart epochs
		for i := range mrc.visitEpoch {
			mrc.visitEpoch[i] = 0
		}
		mrc.epoch = 1
	}
	epoch := mrc.epoch
	visit, ve := mrc.visit, mrc.visitEpoch

	// The bit-sliced kernel stays out of the traversal loops entirely:
	// the BFS only records first-visited nodes, and one tight pass at the
	// end ripple-adds each node's final reach mask. Interleaving the adds
	// with the traversal (one addMask per propagation event) costs ~60%
	// more — the carry walk competes with the BFS state for registers and
	// re-adds bits the next layer would have folded into one mask.
	touched := mrc.touched[:0]

	// Layer 0: seed every center's wave (duplicate centers share a node
	// but own distinct mask bits and counts).
	frontier := mrc.frontier[:0]
	for j, c := range cs {
		if ve[c] != epoch {
			ve[c] = epoch
			visit[c] = 0
			frontier = append(frontier, c)
			if accum {
				touched = append(touched, c)
			}
		}
		visit[c] |= 1 << uint(j)
		if !accum {
			counts[j][c]++
		}
	}
	for _, c := range frontier {
		mrc.curMask[c] = visit[c]
	}

	cur, nxt := mrc.curMask, mrc.nxtMask
	next := mrc.nextFront[:0]
	depth := 0
	for len(frontier) > 0 {
		if maxDepth >= 0 && depth >= maxDepth {
			break
		}
		mrc.layer++
		if mrc.layer == 0 { // wrapped; clear and restart layer stamps
			for i := range mrc.nxtEpoch {
				mrc.nxtEpoch[i] = 0
			}
			mrc.layer = 1
		}
		layer := mrc.layer
		next = next[:0]
		for _, u := range frontier {
			fm := cur[u]
			nodes, ids, _ := mrc.g.NeighborSlices(u)
			for k, v := range nodes {
				id := ids[k]
				if bits[id>>6]&(1<<(uint(id)&63)) == 0 {
					continue
				}
				if ve[v] != epoch {
					ve[v] = epoch
					visit[v] = 0
					if accum {
						touched = append(touched, v)
					}
				}
				prop := fm &^ visit[v]
				if prop == 0 {
					continue
				}
				visit[v] |= prop
				if mrc.nxtEpoch[v] != layer {
					mrc.nxtEpoch[v] = layer
					nxt[v] = 0
					next = append(next, v)
				}
				nxt[v] |= prop
				if !accum {
					for p := prop; p != 0; p &= p - 1 {
						counts[bitsops.TrailingZeros64(p)][v]++
					}
				}
			}
		}
		frontier, next = next, frontier
		cur, nxt = nxt, cur
		depth++
	}
	if accum {
		acc, dirty := mrc.acc, mrc.accDirty
		// One ripple-carry word add per reached node covers every center
		// in its final mask — the bit-sliced replacement for the per-bit
		// indexed increments of direct counting. The ripple runs
		// branchless through plane 3, all in the node's cache line: a
		// level-k carry occurs on ~2^-k of adds, so branching earlier
		// mispredicts too often, while past level 3 (~6%) the branch
		// predicts well. The tail finishes the remaining planes, also
		// branchless; a carry out of the last plane cannot happen because
		// AccumWorld caps the cadence at AccumCapacity worlds.
		for _, v := range touched {
			dirty[v>>6] |= 1 << (uint(v) & 63)
			i := int(v) * accumPlanes
			p := acc[i : i+4 : i+accumPlanes]
			carry := visit[v]
			old := p[0]
			p[0] = old ^ carry
			carry &= old
			old = p[1]
			p[1] = old ^ carry
			carry &= old
			old = p[2]
			p[2] = old ^ carry
			carry &= old
			old = p[3]
			p[3] = old ^ carry
			if carry &= old; carry != 0 {
				q := acc[i+4 : i+accumPlanes : i+accumPlanes]
				old = q[0]
				q[0] = old ^ carry
				carry &= old
				old = q[1]
				q[1] = old ^ carry
				carry &= old
				old = q[2]
				q[2] = old ^ carry
				carry &= old
				q[3] ^= carry
			}
		}
	}
	// Persist the (possibly reallocated) scratch for reuse.
	mrc.frontier, mrc.nextFront = frontier, next
	mrc.curMask, mrc.nxtMask = cur, nxt
	mrc.touched = touched
}
