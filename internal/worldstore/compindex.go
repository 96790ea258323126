package worldstore

import (
	"context"
	"math/bits"
	"slices"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// The largest-component index is the block family behind unlimited-depth
// pairs and center tallies. Per world of the block it marks the members
// of one component, the plurality component of componentProbes evenly
// spaced nodes, which is the world's largest component whenever one
// component holds a clear share of the nodes. In a world where center c
// lies in the indexed component, the nodes connected to c are exactly
// that component's nodes, so over a run of worlds node u's count is the
// number of worlds in which both u and c belong to it: one popcount of
// u's membership word ANDed with c's, per 64 worlds, instead of one label
// compare per world. A pair (u, v) counts in a world where both lie in
// the indexed component and never in one where exactly one does. Sparse
// graphs whose worlds have a giant component (the protein-interaction
// networks of the paper's experiments: in a Krogan world the average node
// shares its component with about 77% of all nodes; in a DBLP world the
// indexed component holds about 91% of the authors) are answered almost
// entirely by popcounts.
//
// The rest is a coin walk (see coinWalk): a node off the index walks its
// own component, deciding each edge by the world's hash coin exactly as
// sampler.World.Contains does, so it reads no label. Next to a giant
// component the components off it are small (3.4 nodes on average in a
// DBLP world). A walk that has examined walkBudget adjacency entries falls
// back to the world's labels, and a count acquires the label block of an
// index block at most once per call and block, and only when a world of
// the block needs it. Any
// indexed component keeps the counts exact; the largest makes the most
// worlds cheap. On graphs without a giant component (a chain of
// communities, two halves of equal size) most walks hash walkBudget
// adjacency entries and then fall back to the labels, so a count costs as
// much as the label scan or more; no benchmark workload has that shape.
//
// An index block is built from the label block of its worlds (see
// materialize) and then lives on its own, at 8·ceil(bw/64)·n bytes: a
// quarter of a label block on 8-world blocks, 3–4% on blocks of 64 worlds
// or more. It is charged, evicted, spilled to its own segment file and
// reloaded like any block, so a store whose budget holds the index blocks
// of its worlds answers unlimited-depth counts without reading a label
// block.

// walkBudget bounds the adjacency entries a component walk may examine
// before it falls back to the labels. A walk reads at random positions, a
// label scan sequentially, so a component reached through more than about
// n/8 adjacency entries is cheaper to find by scanning all n labels.
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
// whose labels are given into comps, overwriting every word: bit w%64 of
// comps[(w/64)*n + u] is set iff node u lies in world w's indexed
// component, the component holding the most of the nodes
// i*n/componentProbes (the one with the smallest label on a tie). Finding
// it reads componentProbes labels instead of counting the size of every
// component. The build runs on every index block computed, so it is tiled
// by node and branch-free.
func (s *Store) buildComponents(labels []int32, comps []uint64) {
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
		row := comps[k*n : (k+1)*n]
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
// Each index block covering [min lo, hi) is acquired once and answers
// every center: every node adds the popcount of its membership bits ANDed
// with the center's over the center's worlds of the block, which counts
// the worlds where the center lies in the indexed component. In the other
// worlds the center's own component is walked on the world's coins (see
// coinWalk), and a world whose walk outgrows walkBudget scans its labels.
// The counts are the same integers a per-world label scan adds, whatever
// the batch: each center's counts depend on its own range alone.
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
		b := s.acquire(famComponents, bi)
		var lb *block // b's label block, acquired when a world first needs it
		for j, c := range cs {
			start, end := max(lo[j], base)-base, min(hi, base+s.bw)-base
			if start >= end {
				continue
			}
			cnt := counts[j][:n:n]
			for k := start / 64; k*64 < end; k++ {
				span, row := worldMask(k, start, end), b.comps[k*n:(k+1)*n]
				cm := row[c]
				if in := cm & span; in != 0 {
					for u, x := range row {
						cnt[u] += int32(bits.OnesCount64(x & in))
					}
				}
				for out := span &^ cm; out != 0; out &= out - 1 {
					w := 64*k + bits.TrailingZeros64(out)
					if wk == nil {
						wk = s.walkPool.Get().(*componentWalk)
					}
					if _, ok := s.coinWalk(wk, row, uint(w)&63, uint64(base+w), c, -1); ok {
						addNodes(cnt, wk.queue)
						continue
					}
					lb = s.labelBlock(lb, bi)
					addLabel(cnt, lb.labels[w*n:(w+1)*n], c)
				}
			}
		}
		if lb != nil {
			s.release(lb)
		}
		s.release(b)
	}
	if wk != nil {
		s.walkPool.Put(wk)
	}
}

// CountPairCtx returns the number of worlds in [lo, hi) where u and v
// share a component. Each index block covering the range is acquired once:
// a world counts when both endpoints lie in its indexed component, not
// when exactly one does, and when neither does a coin walk from u that
// stops at v decides it (see coinWalk), or a label compare once the walk
// outgrows walkBudget. The count is the same integer a per-world label
// compare gives. The count aborts at the next block boundary once ctx is
// done, returning ctx's error.
func (s *Store) CountPairCtx(ctx context.Context, u, v graph.NodeID, lo, hi int) (int64, error) {
	lo = max(lo, 0)
	if hi <= lo {
		return 0, nil
	}
	s.Grow(hi)
	n := s.n
	var cnt int64
	var wk *componentWalk
	defer func() {
		if wk != nil {
			s.walkPool.Put(wk)
		}
	}()
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		if err := ctx.Err(); err != nil {
			return cnt, err
		}
		base := bi * s.bw
		b := s.acquire(famComponents, bi)
		var lb *block
		start, end := max(lo, base)-base, min(hi, base+s.bw)-base
		for k := start / 64; k*64 < end; k++ {
			span, row := worldMask(k, start, end), b.comps[k*n:(k+1)*n]
			mu, mv := row[u], row[v]
			cnt += int64(bits.OnesCount64(mu & mv & span))
			for off := span &^ (mu | mv); off != 0; off &= off - 1 {
				w := 64*k + bits.TrailingZeros64(off)
				if wk == nil {
					wk = s.walkPool.Get().(*componentWalk)
				}
				if reached, ok := s.coinWalk(wk, row, uint(w)&63, uint64(base+w), u, v); ok {
					if reached {
						cnt++
					}
					continue
				}
				lb = s.labelBlock(lb, bi)
				if lb.labels[w*n+int(u)] == lb.labels[w*n+int(v)] {
					cnt++
				}
			}
		}
		if lb != nil {
			s.release(lb)
		}
		s.release(b)
	}
	return cnt, nil
}

// addNodes adds one to cnt[u] for every node u of nodes.
func addNodes(cnt []int32, nodes []graph.NodeID) {
	for _, u := range nodes {
		cnt[u]++
	}
}

// addLabel adds one to cnt[u] for every node u that has c's label in the
// world whose labels are lab.
func addLabel(cnt, lab []int32, c graph.NodeID) {
	lc := lab[c]
	for u, l := range lab {
		if l == lc {
			cnt[u]++
		}
	}
}

// labelBlock returns lb, or label block bi acquired when lb is nil, so a
// count acquires the label block of an index block at most once. The
// caller holds a pin on index block bi but not its mutex, and releases
// the label block.
func (s *Store) labelBlock(lb *block, bi int) *block {
	if lb == nil {
		lb = s.acquire(famLabels, bi)
	}
	return lb
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

// coinWalk collects c's component in one world into wk.queue, walking
// from c, which must lie off the world's indexed component, over the
// graph's adjacency. row is the index row holding the world at bit sh, and
// world is its index in the stream. The walk enters a neighbor when the
// world's hash coin keeps the edge, the test sampler.World.Contains makes,
// and skips a neighbor on the index unhashed: an edge present in the world
// would put c on the index too. It stops once it has entered stop (pass
// -1 to walk the whole component) and reports whether it did. Once it has
// examined walkBudget adjacency entries it gives up and reports ok false,
// and the caller reads the world's labels instead.
func (s *Store) coinWalk(wk *componentWalk, row []uint64, sh uint, world uint64, c, stop graph.NodeID) (reached, ok bool) {
	wk.epoch++
	if wk.epoch == 0 {
		clear(wk.seen)
		wk.epoch = 1
	}
	q := append(wk.queue[:0], c)
	wk.seen[c] = wk.epoch
	budget := s.walkBudget()
	for i := 0; i < len(q) && (stop < 0 || wk.seen[stop] != wk.epoch); i++ {
		nodes, ids, _ := s.g.NeighborSlices(q[i])
		if budget -= len(nodes); budget < 0 {
			wk.queue = q
			return false, false
		}
		for x, v := range nodes {
			if wk.seen[v] != wk.epoch && row[v]>>sh&1 == 0 &&
				rng.EdgeHash(s.seed, world, uint64(ids[x])) < s.g.CoinThreshold(ids[x]) {
				wk.seen[v] = wk.epoch
				q = append(q, v)
			}
		}
	}
	wk.queue = q
	return stop >= 0 && wk.seen[stop] == wk.epoch, true
}
