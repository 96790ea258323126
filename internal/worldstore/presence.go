package worldstore

import (
	"math/bits"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
)

// A bitmap block holds its worlds' edge coins edge-major, in lanes: the
// worlds of a 64-world row share one lane of L = min(bw, 64) bits per
// edge, and 64/L lanes fill a word. World w and edge e sit at bit
// (e·L mod 64) + (w mod 64) of word ⌊w/64⌋·W + ⌊e·L/64⌋, with W =
// ceil(m·L/64) words per row (rowWords). From 64 worlds up a row holds one
// word per edge; a narrower block, whose width New rounds down to a power
// of two, packs 64/bw edges to a word. Either way the block is the size of
// the world-major bitmaps of its worlds, up to the padding of the last
// row: m·bw/8 bytes under 64 worlds, 8·m·ceil(bw/64) from 64 up. It is
// charged at insertion, spilled and reloaded whole like every block.
//
// The block is its own presence index for depth-limited tallies: one
// breadth-first traversal from a center advances every world of a row at
// once (see countPacked). A frontier node u carries the mask of worlds in
// which the traversal reached it at the current depth, and the edge e from
// u to v passes on front[u] & lane(e) &^ reach[v], the worlds where e is
// present and v is newly reached. Once the traversal stops, every reached
// node adds the popcount of its reach mask. Each bit follows exactly its
// own world's traversal, so the counts are the integers a per-world BFS
// adds, on every block width. ScanBits serves the world-major bitmap of a
// world by transposing 64-edge tiles of lanes.

// computeBitmaps writes the lanes of every world of block bi into lanes,
// overwriting every word. Each word gathers the coins of its 64/L edges in
// every world of its row, world-inner, so an edge's threshold is loaded
// once; the coin is the test sampler.World.FillEdgeBitmap makes. Runs of
// laneRun words are shared out by fanOut and write disjoint words, so the
// bits do not depend on the worker count.
func (s *Store) computeBitmaps(bi int, lanes []uint64) {
	const laneRun = 64
	m, W, lg := s.g.NumEdges(), s.rowWords, s.lg
	for k := 0; 64*k < s.bw; k++ {
		row := lanes[k*W : (k+1)*W]
		first, nw := uint64(bi*s.bw+64*k), uint64(min(64, s.bw-64*k))
		fanOut((W+laneRun-1)/laneRun, func() func(int) {
			return func(r int) {
				for q := r * laneRun; q < min(W, (r+1)*laneRun); q++ {
					var acc uint64
					for e := q << 6 >> lg; e < min(m, (q+1)<<6>>lg); e++ {
						th, sh := s.g.CoinThreshold(int32(e)), uint(e)<<lg&63
						for w := range nw {
							// The borrow of hash - threshold is 1 exactly when
							// the coin succeeds.
							_, coin := bits.Sub64(rng.EdgeHash(s.seed, first+w, uint64(e)), th, 0)
							acc |= coin << ((sh + uint(w)) & 63)
						}
					}
					row[q] = acc
				}
			}
		})
	}
}

// worldMajor writes the world-major bitmaps of the block whose lanes are
// given into out (bw·wpw words): world w's bitmap at out[w·wpw:(w+1)·wpw],
// bit e set iff edge e is present in world w, as FillEdgeBitmap writes it.
// Each 64-edge tile of a row is one bit-matrix transpose: the lane of the
// tile's edge t goes to bits [t &^ (L-1), +L) of word t mod L, which is
// where the first rounds of a 64x64 transpose would move it, and the last
// log2(L) rounds run on those L words (see transpose). Runs of tiles are
// shared out by fanOut and write disjoint words.
func (s *Store) worldMajor(lanes, out []uint64) {
	const tileRun = 64
	m, W, lg, wpw := s.g.NumEdges(), s.rowWords, s.lg, s.wpw
	lane := 1 << lg
	mask := ^uint64(0) >> (64 - lane)
	for k := 0; 64*k < s.bw; k++ {
		row, nw := lanes[k*W:(k+1)*W], min(64, s.bw-64*k)
		fanOut((wpw+tileRun-1)/tileRun, func() func(int) {
			var tile [64]uint64
			return func(r int) {
				for j := r * tileRun; j < min(wpw, (r+1)*tileRun); j++ {
					clear(tile[:lane])
					for t := range min(64, m-64*j) {
						p := uint(64*j+t) << lg
						tile[t&(lane-1)] |= row[p>>6] >> (p & 63) & mask << (t &^ (lane - 1))
					}
					transpose(&tile, lane)
					for w := range nw {
						out[(64*k+w)*wpw+j] = tile[w]
					}
				}
			}
		})
	}
}

// ScanBits calls fn(i, bits) for every world i in [lo, hi), in increasing
// order, where bits is the world's present-edge bitmap (length
// sampler.EdgeBitmapWords(NumEdges); bit e set iff edge e is present —
// test with sampler.BitmapContains). The slice is only valid during the
// callback and must not be modified. Bitmap blocks are acquired one at a
// time, count against the same byte budget as label blocks, and are
// transposed into a scratch block of world-major bitmaps that the
// callbacks read after the block is released. ScanBits grows the logical
// stream to hi.
func (s *Store) ScanBits(lo, hi int, fn func(i int, bits []uint64)) {
	lo = max(lo, 0)
	if hi <= lo {
		return
	}
	s.Grow(hi)
	out := make([]uint64, s.bw*s.wpw)
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		base := bi * s.bw
		b := s.acquire(famBits, bi)
		s.worldMajor(b.bits, out)
		s.release(b)
		for i := max(lo, base); i < min(hi, base+s.bw); i++ {
			off := (i - base) * s.wpw
			fn(i, out[off:off+s.wpw:off+s.wpw])
		}
	}
}

// transpose runs the last log2(l) rounds of a 64x64 bit-matrix transpose
// on the words a[:l], l a power of two up to 64: afterwards, within every
// aligned l-bit group g of the words, bit g+j of a[i] holds what bit g+i
// of a[j] held (i, j < l). With l = 64 it transposes the whole matrix.
// Each round swaps the off-diagonal blocks of every 2w x 2w tile, for
// w = l/2 down to 1.
func transpose(a *[64]uint64, l int) {
	mask := ^uint64(0) / (1<<(l/2) + 1) // l/2 ones, then l/2 zeros, repeated
	for w := l / 2; w > 0; w >>= 1 {
		for k := 0; k < l; k = (k + w + 1) &^ w {
			t := (a[k]>>w ^ a[k+w]) & mask
			a[k+w] ^= t
			a[k] ^= t << w
		}
		mask ^= mask << (w >> 1)
	}
}

// packedBFS is the scratch of one lane traversal, pooled per store.
// Between traversals every entry of reach, cur and nxt is zero: a
// traversal clears exactly the entries it set.
type packedBFS struct {
	reach, cur, nxt      []uint64
	front, next, touched []graph.NodeID
}

func newPackedBFS(n int) *packedBFS {
	return &packedBFS{reach: make([]uint64, n), cur: make([]uint64, n), nxt: make([]uint64, n)}
}

// CountWithinMulti is the depth-limited mirror of CountConnectedFromMulti:
// for each center cs[j] it adds, into counts[j] (length NumNodes, not
// cleared), the number of worlds in [lo[j], hi) where each node is within
// depth hops of cs[j]. depth < 0 means unconstrained reachability (callers
// with unlimited depth should prefer the label paths, which need no BFS).
//
// Each bitmap block covering [min lo, hi) is acquired once and answers
// every center, one lane traversal per center and 64-world row (see
// countPacked). Each (world, center) visit set is a pure function of the
// world's edge set, so the result is bit-identical to looping a
// per-center sampler.ReachCounter over the same ranges.
func (s *Store) CountWithinMulti(cs []graph.NodeID, depth int, lo []int, hi int, counts [][]int32) {
	first := batchStart(lo, hi)
	if len(cs) == 0 || first >= hi {
		return
	}
	s.Grow(hi)
	n, W := s.n, s.rowWords
	p := s.packPool.Get().(*packedBFS)
	for bi := first / s.bw; bi*s.bw < hi; bi++ {
		base := bi * s.bw
		b := s.acquire(famBits, bi)
		for j, c := range cs {
			start, end := max(lo[j], base)-base, min(hi, base+s.bw)-base
			if start >= end {
				continue
			}
			cnt := counts[j][:n:n]
			for k := start / 64; k*64 < end; k++ {
				s.countPacked(p, b.bits[k*W:(k+1)*W], c, depth, worldMask(k, start, end), cnt)
			}
		}
		s.release(b)
	}
	s.packPool.Put(p)
}

// CountWithinFrom adds, for every node u, the number of worlds in [lo, hi)
// where u is within depth hops of c, into counts (length NumNodes, not
// cleared). depth < 0 means unconstrained reachability.
//
// Like CountConnectedFrom it is the one-center call of its batched form,
// CountWithinMulti, except on blocks under 64 worlds whose range is not
// wholly resident or spilled: those count on the implicit world stream
// (sampler.ReachCounter), because filling bitmap blocks for one center of
// a narrow lane has little to amortize. Both kernels add the same
// integers: a reach set is a function of the world's edge set alone.
// Either way the logical stream grows to hi.
func (s *Store) CountWithinFrom(c graph.NodeID, depth, lo, hi int, counts []int32) {
	lo = max(lo, 0)
	if hi <= lo {
		return
	}
	s.Grow(hi)
	if s.bw >= 64 || s.BitsWarm(lo, hi) {
		s.CountWithinMulti([]graph.NodeID{c}, depth, []int{lo}, hi, [][]int32{counts})
		return
	}
	rc := s.implicitPool.Get().(*sampler.ReachCounter)
	rc.CountWithin(c, depth, lo, hi, counts)
	s.implicitPool.Put(rc)
}

// countPacked runs one lane traversal from c over the worlds selected by
// span, a non-empty mask of one row whose lanes are row, and adds each
// reached node's world count into counts. Edge e's lane starts at bit
// e·L of the row; span has no bit at or above L, so the lanes of the edges
// that share e's word drop out under the frontier mask.
func (s *Store) countPacked(p *packedBFS, row []uint64, c graph.NodeID, depth int, span uint64, counts []int32) {
	lg := s.lg
	reach, cur, nxt := p.reach, p.cur, p.nxt
	front, next := append(p.front[:0], c), p.next[:0]
	touched := append(p.touched[:0], c)
	reach[c], cur[c] = span, span
	for d := 0; len(front) > 0 && (depth < 0 || d < depth); d++ {
		next = next[:0]
		for _, u := range front {
			fm := cur[u]
			cur[u] = 0
			nodes, ids, _ := s.g.NeighborSlices(u)
			for i, v := range nodes {
				e := uint(ids[i]) << lg
				add := fm & (row[e>>6] >> (e & 63)) &^ reach[v]
				if add == 0 {
					continue
				}
				if reach[v] == 0 {
					touched = append(touched, v)
				}
				reach[v] |= add
				if nxt[v] == 0 {
					next = append(next, v)
				}
				nxt[v] |= add
			}
		}
		front, next = next, front
		cur, nxt = nxt, cur
	}
	// A traversal cut off by depth leaves its last frontier's masks set.
	for _, u := range front {
		cur[u] = 0
	}
	for _, v := range touched {
		counts[v] += int32(bits.OnesCount64(reach[v]))
		reach[v] = 0
	}
	p.cur, p.nxt = cur, nxt
	p.front, p.next, p.touched = front, next, touched
}
