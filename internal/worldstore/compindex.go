package worldstore

import (
	"math/bits"

	"ucgraph/internal/graph"
)

// The largest-component index is a label block's derived artifact for
// single-center connection tallies. In a world where center c lies in the
// world's largest component, the nodes connected to c are exactly that
// component's nodes, so over a run of worlds node u's count is the number
// of worlds in which both u and c belong to it: one popcount of u's
// membership word ANDed with c's, per 64 worlds, instead of one label
// compare per world. Sparse graphs whose worlds have a giant component
// (the protein-interaction networks of the paper's experiments: in a
// Krogan world the average node shares its component with about 77% of
// all nodes) are answered almost entirely by popcounts. In the remaining
// worlds c's component is walked over the graph's adjacency restricted to
// c's label, and a walk that outgrows walkBudget falls back to scanning
// that world's labels.
//
// The index of a block is built once, by the first CountConnectedFrom
// that reads the block (see acquire). It is counted in the block's bytes,
// dropped with the block on eviction and never spilled; a reloaded block
// rebuilds it on first use.

// walkBudget bounds the adjacency entries a component walk may examine
// before it falls back to a label scan. A walk reads the labels at random
// positions, a scan sequentially, so a component reached through more
// than about n/8 adjacency entries is cheaper to find by scanning all n
// labels.
func (s *Store) walkBudget() int { return s.n / 8 }

// componentWalk is the scratch of one component walk: seen is an epoch
// array (entries equal to epoch are visited), so a walk clears nothing.
type componentWalk struct {
	seen  []uint32
	epoch uint32
	queue []graph.NodeID
}

// buildComponents returns the largest-component index of a label block
// whose labels are given: bit w%64 of member[(w/64)*n + u] is set iff node
// u lies in world w's largest component. Any component would make the
// counts exact; the largest makes the most worlds cheap.
func (s *Store) buildComponents(labels []int32) []uint64 {
	n := s.n
	member := make([]uint64, s.indexWords()*n)
	size := make([]int32, n)
	for w := 0; w < s.bw; w++ {
		lab := labels[w*n : (w+1)*n]
		clear(size)
		big := lab[0]
		for _, l := range lab {
			size[l]++
			if size[l] > size[big] {
				big = l
			}
		}
		row := member[(w/64)*n : (w/64+1)*n]
		bit := uint64(1) << (w % 64)
		for u, l := range lab {
			if l == big {
				row[u] |= bit
			}
		}
	}
	return member
}

// chargeIndex adds a block's new index of the given size (a label block's
// largest-component index or a bitmap block's presence index) to the
// block's accounted bytes and evicts other unpinned blocks if that takes
// the store over budget. The caller holds a pin on b, so b itself stays
// until it is released.
func (s *Store) chargeIndex(b *block, bytes int64) {
	s.mu.Lock()
	b.bytes += bytes
	s.residentBytes += bytes
	if s.budget > 0 && s.residentBytes > s.budget {
		s.evictLocked(s.budget)
	}
	victims := s.takePendingLocked()
	s.mu.Unlock()
	s.writeSpills(victims)
}

// CountConnectedFrom adds, for every node u, the number of worlds in
// [lo, hi) where u and c share a component, into counts (length NumNodes).
// counts is not cleared, so callers can accumulate across ranges.
//
// Each label block is answered from its largest-component index: every
// node adds the popcount of its membership bits ANDed with c's over the
// range, which counts the worlds where c lies in the largest component.
// In the other worlds c's own component is walked (see countComponent).
// The counts are the same integers a per-world label scan adds.
func (s *Store) CountConnectedFrom(c graph.NodeID, lo, hi int, counts []int32) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return
	}
	s.Grow(hi)
	n := s.n
	counts = counts[:n:n]
	var wk *componentWalk
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		base := bi * s.bw
		start, end := max(lo, base)-base, min(hi, base+s.bw)-base
		b := s.acquire(famLabels, bi, true)
		for k := start / 64; k*64 < end; k++ {
			span, cm := worldMask(k, start, end), b.index[k*n+int(c)]
			if in := cm & span; in != 0 {
				row := b.index[k*n : (k+1)*n]
				for u, x := range row {
					counts[u] += int32(bits.OnesCount64(x & in))
				}
			}
			for out := span &^ cm; out != 0; out &= out - 1 {
				w := 64*k + bits.TrailingZeros64(out)
				if wk == nil {
					wk = s.walkPool.Get().(*componentWalk)
				}
				s.countComponent(wk, b.labels[w*n:(w+1)*n], c, counts)
			}
		}
		s.release(b)
	}
	if wk != nil {
		s.walkPool.Put(wk)
	}
}

// worldMask returns the bits of membership word k that cover the block's
// worlds [start, end); the word must overlap the range.
func worldMask(k, start, end int) uint64 {
	a, b := max(start-64*k, 0), min(end-64*k, 64)
	return ^uint64(0) >> (64 - (b - a)) << a
}

// countComponent adds one to counts[u] for every node u in c's component
// of the world whose labels are lab. It walks from c over the graph's
// adjacency, entering only nodes with c's label: the world's edges are a
// subset of the graph's, so the walk reaches exactly the component. Once
// the walk has examined walkBudget adjacency entries it gives up and
// scans the labels instead.
func (s *Store) countComponent(wk *componentWalk, lab []int32, c graph.NodeID, counts []int32) {
	lc := lab[c]
	wk.epoch++
	if wk.epoch == 0 {
		clear(wk.seen)
		wk.epoch = 1
	}
	q := append(wk.queue[:0], c)
	wk.seen[c] = wk.epoch
	budget := s.walkBudget()
	for i := 0; i < len(q); i++ {
		nodes, _, _ := s.g.NeighborSlices(q[i])
		if budget -= len(nodes); budget < 0 {
			for u, l := range lab {
				if l == lc {
					counts[u]++
				}
			}
			wk.queue = q
			return
		}
		for _, v := range nodes {
			if lab[v] == lc && wk.seen[v] != wk.epoch {
				wk.seen[v] = wk.epoch
				q = append(q, v)
			}
		}
	}
	for _, u := range q {
		counts[u]++
	}
	wk.queue = q
}
