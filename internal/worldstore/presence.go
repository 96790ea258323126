package worldstore

import (
	"math/bits"

	"ucgraph/internal/graph"
	"ucgraph/internal/sampler"
)

// The presence index is an edge-bitmap block's derived artifact for
// depth-limited tallies. It holds the block's edge coins edge-major, 64
// worlds to a word, so one breadth-first traversal from a center advances
// 64 worlds at once: a frontier node u carries the mask of worlds in which
// the traversal reached it at the current depth, and the edge e from u to
// v passes on front[u] & present[e] &^ reach[v], the worlds where e is
// present and v is newly reached. Once the traversal stops, every reached
// node adds the popcount of its reach mask. Each bit follows exactly its
// own world's traversal, so the counts are the integers a per-world BFS
// adds.
//
// A word is full only when a block holds at least packedWorlds worlds.
// Blocks hold about 2^20/(4n) worlds, so graphs of up to 4,096 nodes take
// the packed kernel. Larger graphs keep the per-world kernels (see
// countWithinUnpacked): their words would be at most half full, and on
// 8-world blocks the index would be 8x the bitmap block it is built from.
const packedWorlds = 64

// presenceIndex is the presence index of the first worlds worlds of one
// bitmap block: bit w%64 of present[(w/64)*m + e] is set iff edge e is
// present in world w of the block. It is built lazily from the block's
// bitmaps by the first depth-limited count that reads the block, and never
// modified once published: a longer prefix gets a new index that copies
// this one's words. It is counted in the block's bytes, dropped with the
// block on eviction and never spilled; a reloaded block rebuilds it on
// first use.
type presenceIndex struct {
	worlds  int
	present []uint64
}

// packed reports whether depth-limited counts take the packed kernel.
// It depends on the block width alone, a function of the node count.
func (s *Store) packed() bool { return s.bw >= packedWorlds }

// presenceBytes is the nominal size of one block's presence index,
// 8*m*ceil(bw/64), charged to the byte budget on top of its bitmap block.
func (s *Store) presenceBytes() int64 { return int64(8 * s.indexWords() * s.g.NumEdges()) }

// buildPresence returns the presence index of the first done worlds of a
// bitmap block whose world-major bitmaps are bm, extending prev (an index
// of a shorter prefix of the same block) or starting from nothing when
// prev is nil. Each 64-world by 64-edge tile is one bit-matrix transpose.
func (s *Store) buildPresence(prev *presenceIndex, bm []uint64, done int) *presenceIndex {
	m, wpw := s.g.NumEdges(), s.wpw
	ix := &presenceIndex{worlds: done, present: make([]uint64, s.indexWords()*m)}
	from := 0
	if prev != nil {
		copy(ix.present, prev.present)
		from = prev.worlds
	}
	var tile [64]uint64
	for k := from / 64; 64*k < done; k++ {
		lo, hi := max(from, 64*k), min(done, 64*k+64)
		row := ix.present[k*m : (k+1)*m]
		for j := 0; j < wpw; j++ {
			clear(tile[:])
			for w := lo; w < hi; w++ {
				tile[w-64*k] = bm[w*wpw+j]
			}
			transpose64(&tile)
			for t, x := range tile[:min(64, m-64*j)] {
				row[64*j+t] |= x
			}
		}
	}
	return ix
}

// transpose64 transposes the 64x64 bit matrix a in place: afterwards bit
// j of a[i] holds what bit i of a[j] held. Each round swaps the
// off-diagonal blocks of every 2w x 2w tile, for w = 32 down to 1.
func transpose64(a *[64]uint64) {
	mask := uint64(0x00000000ffffffff)
	for w := 32; w > 0; w >>= 1 {
		for k := 0; k < 64; k = (k + w + 1) &^ w {
			t := (a[k]>>w ^ a[k+w]) & mask
			a[k+w] ^= t
			a[k] ^= t << w
		}
		mask ^= mask << (w >> 1)
	}
}

// acquirePresence returns bitmap block bi, pinned, with at least need
// worlds materialized, along with its presence index built or extended to
// cover the block's materialized prefix under the block's mutex, so
// exactly one goroutine builds each index. The first index of a block is
// charged to the byte budget. Callers must release the block.
func (s *Store) acquirePresence(bi, need int) (*block, *presenceIndex) {
	b := s.acquireBlock(famBits, bi)
	b.mu.Lock()
	bm := s.growBits(b, need)
	ix := b.presence
	first := ix == nil
	if first || ix.worlds < need {
		ix = s.buildPresence(ix, bm, b.done)
		b.presence = ix
	}
	b.mu.Unlock()
	if first {
		s.chargeIndex(b, s.presenceBytes())
	}
	return b, ix
}

// packedBFS is the scratch of one packed traversal, pooled per store.
// Between traversals every entry of reach, cur and nxt is zero: a
// traversal clears exactly the entries it set.
type packedBFS struct {
	reach, cur, nxt      []uint64
	front, next, touched []graph.NodeID
}

func newPackedBFS(n int) *packedBFS {
	return &packedBFS{reach: make([]uint64, n), cur: make([]uint64, n), nxt: make([]uint64, n)}
}

// CountWithinFrom adds, for every node u, the number of worlds in [lo, hi)
// where u is within depth hops of c, into counts (length NumNodes, not
// cleared). depth < 0 means unconstrained reachability. It is the
// depth-limited twin of CountConnectedFrom.
//
// The store picks the kernel by its block width, never by the caller:
//   - Blocks of at least 64 worlds (graphs of up to 4,096 nodes) answer
//     from their bitmap blocks' presence indexes, one traversal per 64
//     worlds, materializing the bitmaps and the index on first use.
//   - Narrower blocks answer from resident or spilled bitmaps through the
//     per-world multi-center kernel when the whole range is warm, and
//     otherwise on the implicit world stream (sampler.ReachCounter),
//     because filling bitmap blocks for one center has nothing to
//     amortize there.
//
// Every kernel adds the same integers: a reach set is a function of the
// world's edge set alone.
func (s *Store) CountWithinFrom(c graph.NodeID, depth, lo, hi int, counts []int32) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return
	}
	if !s.packed() {
		if s.BitsWarm(lo, hi) {
			s.countWithinUnpacked([]graph.NodeID{c}, depth, []int{lo}, hi, [][]int32{counts})
			return
		}
		rc := s.implicitPool.Get().(*sampler.ReachCounter)
		rc.CountWithin(c, depth, lo, hi, counts)
		s.implicitPool.Put(rc)
		return
	}
	s.Grow(hi)
	m := s.g.NumEdges()
	counts = counts[:s.n:s.n]
	p := s.packPool.Get().(*packedBFS)
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		base := bi * s.bw
		start, end := max(lo, base)-base, min(hi, base+s.bw)-base
		b, ix := s.acquirePresence(bi, end)
		for k := start / 64; k*64 < end; k++ {
			s.countPacked(p, ix.present[k*m:(k+1)*m], c, depth, worldMask(k, start, end), counts)
		}
		s.release(b)
	}
	s.packPool.Put(p)
}

// countPacked runs one packed traversal from c over the worlds selected by
// span, a non-empty mask of one 64-world word whose presence row is pres,
// and adds each reached node's world count into counts.
func (s *Store) countPacked(p *packedBFS, pres []uint64, c graph.NodeID, depth int, span uint64, counts []int32) {
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
				add := fm & pres[ids[i]] &^ reach[v]
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
