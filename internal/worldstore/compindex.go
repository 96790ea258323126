package worldstore

import (
	"math/bits"
	"slices"

	"ucgraph/internal/graph"
)

// The largest-component index is a label block's derived artifact for
// unlimited-depth center tallies. Per world of the block it marks the
// members of one component, the plurality component of componentProbes
// evenly spaced nodes, which is the world's largest component whenever
// one component holds a clear share of the nodes. In a world where center
// c lies in the indexed component, the nodes connected to c are exactly
// that component's nodes, so over a run of worlds node u's count is the
// number of worlds in which both u and c belong to it: one popcount of
// u's membership word ANDed with c's, per 64 worlds, instead of one label
// compare per world. Sparse graphs whose worlds have a giant component
// (the protein-interaction networks of the paper's experiments: in a
// Krogan world the average node shares its component with about 77% of
// all nodes) are answered almost entirely by popcounts. In the remaining
// worlds c's component is walked over the graph's adjacency restricted to
// c's label, and a walk that outgrows walkBudget falls back to scanning
// that world's labels. Any indexed component keeps the counts exact; the
// largest makes the most worlds cheap.
//
// The index is part of its label block: it is built right after the
// labels whenever a block is computed (see materialize), counted in the
// block's bytes from insertion (blockBytes), written after the labels in
// the block's disk record under the one payload checksum, and loaded back
// with them, so a block reloaded from the disk tier needs no rebuild.

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

// componentProbes is how many evenly spaced nodes vote for the component a
// world's index row holds.
const componentProbes = 64

// componentTile is the node tile of buildComponents: a tile's index
// words stay in L1 while every world of their word is compared into
// them, so the index is written once instead of once per world.
const componentTile = 512

// buildComponents writes the largest-component index of a label block
// whose labels are given into member, overwriting every word: bit w%64 of
// member[(w/64)*n + u] is set iff node u lies in world w's indexed
// component, the component holding the most of the nodes
// i*n/componentProbes (the one with the smallest label on a tie). Finding
// it reads componentProbes labels instead of counting the size of every
// component. The build runs on every computed label block, so it is
// tiled by node and branch-free.
func (s *Store) buildComponents(labels []int32, member []uint64) {
	n := s.n
	var big [maxBlockWorlds]int32
	var probes [componentProbes]int32
	np := min(n, componentProbes)
	for w := 0; w < s.bw; w++ {
		lab := labels[w*n : (w+1)*n]
		for i := range np {
			probes[i] = lab[i*n/np]
		}
		big[w] = plurality(probes[:np])
	}
	for k := 0; 64*k < s.bw; k++ {
		row := member[k*n : (k+1)*n]
		for u0 := 0; u0 < n; u0 += componentTile {
			tile := row[u0:min(u0+componentTile, n)]
			clear(tile)
			for w := 64 * k; w < min(s.bw, 64*k+64); w++ {
				// Masking the shift count spares the guard Go adds for
				// counts of 64 or more.
				lab, l, sh := labels[w*n+u0:w*n+u0+len(tile)], big[w], uint(w)&63
				for i, x := range lab {
					// uint32(x^l)-1 borrows into bit 63 exactly when x == l.
					tile[i] |= (uint64(uint32(x^l)) - 1) >> 63 << sh
				}
			}
		}
	}
}

// plurality sorts p, which must be non-empty, and returns its most
// frequent value, the smallest one on a tie.
func plurality(p []int32) int32 {
	slices.Sort(p)
	best, run := p[0], 0
	for i := 0; i < len(p); {
		j := i + 1
		for j < len(p) && p[j] == p[i] {
			j++
		}
		if j-i > run {
			best, run = p[i], j-i
		}
		i = j
	}
	return best
}

// CountConnectedFrom adds, for every node u, the number of worlds in
// [lo, hi) where u and c share a component, into counts (length NumNodes).
// counts is not cleared, so callers can accumulate across ranges. It is
// the one-center CountConnectedFromMulti.
func (s *Store) CountConnectedFrom(c graph.NodeID, lo, hi int, counts []int32) {
	s.CountConnectedFromMulti([]graph.NodeID{c}, []int{lo}, hi, [][]int32{counts})
}

// CountConnectedFromMulti adds, for each center cs[j] and every node u,
// the number of worlds in [lo[j], hi) where u and cs[j] share a component,
// into counts[j] (length NumNodes, not cleared).
//
// Each label block covering [min lo, hi) is acquired once and answers
// every center from its largest-component index: every node adds the
// popcount of its membership bits ANDed with the center's over the
// center's worlds of the block, which counts the worlds where the center
// lies in the indexed component. In the other worlds the center's own
// component is walked (see countComponent). The counts are the same
// integers a per-world label scan adds, whatever the batch: each center's
// counts depend on its own range alone.
func (s *Store) CountConnectedFromMulti(cs []graph.NodeID, lo []int, hi int, counts [][]int32) {
	first := batchStart(lo, hi)
	if len(cs) == 0 || first >= hi {
		return
	}
	s.Grow(hi)
	n := s.n
	var wk *componentWalk
	for bi := first / s.bw; bi*s.bw < hi; bi++ {
		base := bi * s.bw
		b := s.acquire(famLabels, bi, false)
		for j, c := range cs {
			start, end := max(lo[j], base)-base, min(hi, base+s.bw)-base
			if start >= end {
				continue
			}
			cnt := counts[j][:n:n]
			for k := start / 64; k*64 < end; k++ {
				span, cm := worldMask(k, start, end), b.index[k*n+int(c)]
				if in := cm & span; in != 0 {
					row := b.index[k*n : (k+1)*n]
					for u, x := range row {
						cnt[u] += int32(bits.OnesCount64(x & in))
					}
				}
				for out := span &^ cm; out != 0; out &= out - 1 {
					w := 64*k + bits.TrailingZeros64(out)
					if wk == nil {
						wk = s.walkPool.Get().(*componentWalk)
					}
					s.countComponent(wk, b.labels[w*n:(w+1)*n], c, cnt)
				}
			}
		}
		s.release(b)
	}
	if wk != nil {
		s.walkPool.Put(wk)
	}
}

// batchStart returns the first world a center batch counts: the smallest
// lo[j], clamped to 0, or hi when every range is empty.
func batchStart(lo []int, hi int) int {
	first := hi
	for _, l := range lo {
		first = min(first, max(l, 0))
	}
	return first
}

// worldMask returns the bits of index word k that cover the block's
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
