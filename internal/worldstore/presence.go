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
// adds. Unlike the largest-component index, which is materialized and
// spilled with its label block, the presence index of a block is lazy:
// built once, by the first depth-limited count that reads the block,
// charged to the block's bytes then (chargeIndex), dropped with it and
// never spilled.
//
// A word is full only when a block holds at least packedWorlds worlds.
// Blocks hold about 2^20/(4n) worlds, so graphs of up to 4,096 nodes take
// the packed kernel. Larger graphs keep the per-world kernels (see
// countWithinUnpacked): their words would be at most half full, and on
// 8-world blocks the index would be 8x the bitmap block it is built from.
const packedWorlds = 64

// packed reports whether depth-limited counts take the packed kernel.
// It depends on the block width alone, a function of the node count.
func (s *Store) packed() bool { return s.bw >= packedWorlds }

// buildPresence returns the presence index of a bitmap block whose
// world-major bitmaps are bm: bit w%64 of present[(w/64)*m + e] is set iff
// edge e is present in world w of the block. Each 64-world by 64-edge tile
// is one bit-matrix transpose.
func (s *Store) buildPresence(bm []uint64) []uint64 {
	m, wpw := s.g.NumEdges(), s.wpw
	present := make([]uint64, s.indexWords()*m)
	var tile [64]uint64
	for k := 0; 64*k < s.bw; k++ {
		row, hi := present[k*m:(k+1)*m], min(s.bw, 64*k+64)
		for j := 0; j < wpw; j++ {
			clear(tile[:])
			for w := 64 * k; w < hi; w++ {
				tile[w-64*k] = bm[w*wpw+j]
			}
			transpose64(&tile)
			copy(row[64*j:], tile[:]) // the last word's tile runs past edge m-1
		}
	}
	return present
}

// chargeIndex adds a bitmap block's new presence index of the given size
// to the block's accounted bytes and evicts other unpinned blocks if that
// takes the store over budget. The caller holds a pin on b, so b itself
// stays until it is released.
func (s *Store) chargeIndex(b *block, bytes int64) {
	s.mu.Lock()
	b.bytes += bytes
	s.residentBytes += bytes
	var victims []*block
	if s.budget > 0 && s.residentBytes > s.budget {
		victims = s.evictLocked(s.budget)
	}
	s.mu.Unlock()
	s.writeSpills(victims)
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
// cleared). depth < 0 means unconstrained reachability.
//
// Like CountConnectedFrom it is the one-center call of its batched form,
// CountWithinMulti, except on blocks too narrow for the presence index
// whose range is not wholly resident or spilled: those count on the
// implicit world stream (sampler.ReachCounter), because filling bitmap
// blocks for one center has nothing to amortize there. Every kernel adds
// the same integers: a reach set is a function of the world's edge set
// alone.
func (s *Store) CountWithinFrom(c graph.NodeID, depth, lo, hi int, counts []int32) {
	lo = max(lo, 0)
	if hi <= lo {
		return
	}
	if s.packed() || s.BitsWarm(lo, hi) {
		s.CountWithinMulti([]graph.NodeID{c}, depth, []int{lo}, hi, [][]int32{counts})
		return
	}
	rc := s.implicitPool.Get().(*sampler.ReachCounter)
	rc.CountWithin(c, depth, lo, hi, counts)
	s.implicitPool.Put(rc)
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
