// Package conn estimates connection probabilities in uncertain graphs.
//
// The connection probability Pr(u ~ v) is the probability that u and v lie
// in the same connected component of a random possible world; the
// d-connection probability Pr(u ~d v) additionally requires hop distance at
// most d (Section 3.4 of the paper). Exact computation is #P-complete, so
// the practical estimator is Monte Carlo sampling over possible worlds
// (Equations 3–5), with the progressive sample-size schedules of Section 4
// (Equations 9–10).
//
// The package provides:
//
//   - Oracle: the interface consumed by the clustering algorithms in
//     internal/core. An oracle answers "estimate Pr(c ~d u) for every u",
//     for one center (FromCenter) or a whole candidate batch (FromCenters).
//   - MonteCarlo: the sampling estimator (the real implementation), built
//     on the shared world store of internal/worldstore. It is safe for
//     concurrent use and internally parallel, with estimates that are
//     bit-identical for every worker count and memory budget.
//   - Exact: exact enumeration of all 2^m worlds for tiny graphs — the
//     testing oracle that theorems are checked against.
//   - Sample-size formulas: SampleSize (Eq. 4), MCPSamples (Eq. 9),
//     ACPSamples (Eq. 10), and the practical schedule used in Section 5.
package conn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"ucgraph/internal/graph"
	"ucgraph/internal/par"
	"ucgraph/internal/worldstore"
)

// Unlimited is the depth value meaning "no path-length constraint".
const Unlimited = -1

// Oracle answers connection-probability queries from centers to all nodes.
//
// FromCenter returns estimates of Pr(c ~depth u) for every node u; depth < 0
// (Unlimited) means the unconstrained connection probability. r is the
// Monte Carlo sample size; exact oracles ignore it. The returned slice is
// owned by the caller.
//
// FromCenters is the batched form: it answers the same query for every
// center in cs, returning one estimate vector per center (each owned by the
// caller), and is where implementations amortize work across a candidate
// batch — the Monte Carlo oracle answers all centers in one pass over each
// world block instead of one full scan per center. The results must equal
// calling FromCenter per center.
//
// Implementations must tolerate concurrent calls: the clustering drivers
// fan queries out across goroutines (both MonteCarlo and Exact qualify).
type Oracle interface {
	NumNodes() int
	FromCenter(c graph.NodeID, depth int, r int) []float64
	FromCenters(cs []graph.NodeID, depth int, r int) [][]float64
}

// ContextOracle is an Oracle whose queries additionally honor a
// cancellation context: a query aborted by ctx returns ctx's error and no
// estimates. Completed queries are bit-identical to the context-free
// methods — cancellation never degrades an answer, it only withholds one.
// Both MonteCarlo and Exact implement it; the context-aware clustering
// drivers (core.MCPCtx, core.ACPCtx) use it when available and fall back
// to coarse between-call checks otherwise.
type ContextOracle interface {
	Oracle
	FromCenterCtx(ctx context.Context, c graph.NodeID, depth int, r int) ([]float64, error)
	FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth int, r int) ([][]float64, error)
}

var (
	_ ContextOracle = (*MonteCarlo)(nil)
	_ ContextOracle = (*Exact)(nil)
)

// MonteCarlo estimates connection probabilities by sampling possible
// worlds. Unlimited-depth queries are answered from the per-world component
// labels of the shared world store; depth-limited queries run depth-bounded
// BFS over the store's edge bitmaps of the same world stream, through the
// kernel the store picks for its block width (one traversal per 64 worlds
// on graphs of up to 4,096 nodes; see worldstore.CountWithinFrom). Limited
// and unlimited views are mutually consistent — and consistent with every
// other consumer of the same (graph, seed) store (k-NN, influence,
// metrics, ...).
//
// Because worlds are deterministic and shared, per-center tally vectors are
// cached and extended incrementally when later phases of the progressive
// sampling schedule request more samples for a center already queried —
// the dominant cost saver for the guessing schedules of Algorithms 2-3.
// An estimator built with NewMonteCarloExtended keeps the same cache but
// has its Extender count the missing worlds: the shard coordinator
// extends the tallies by scattering the world ranges to its workers.
//
// MonteCarlo is safe for concurrent use: the tally cache is mutex-guarded
// and each tally serializes its own extensions. FromCenter is internally
// parallel — the per-world tally accumulation is split across goroutines
// of the process-wide par.Split budget (GOMAXPROCS workers, shared with
// every other fan-out) with per-share scratch buffers merged at the end —
// and FromCenters splits a candidate batch the same way, each share
// scanning world blocks once for its whole center subset. The per-world
// counts are integers, so the totals — and therefore the returned
// estimates — are bit-identical for every worker count and every store
// memory budget: same seed means same estimates, serial or parallel,
// bounded or unbounded.
//
// One boundary on that guarantee: when the tally cache overflows maxCache
// entries (only possible when a run touches more distinct (center, depth)
// keys than fit in ~64 MiB), concurrent insertions make the FIFO eviction
// order scheduling-dependent, so a re-queried center may answer at the
// requested precision instead of a previously cached higher precision.
// Every answer is still an exact tally over the deterministic world
// stream; only the precision tier served can vary under eviction
// pressure.
type MonteCarlo struct {
	g     *graph.Uncertain
	seed  uint64
	store *worldstore.Store

	// ext, when non-nil, counts the missing worlds of every pending
	// tally instead of the local store (NewMonteCarloExtended).
	ext Extender

	mu         sync.Mutex // guards cache, cacheOrder and cacheHead
	cache      map[cacheKey]*centerTally
	cacheOrder []cacheKey // FIFO ring: entries [cacheHead..] ++ [..cacheHead) in insertion order
	cacheHead  int        // index of the oldest entry once the ring is full
	maxCache   int
}

// Extender counts worlds for the tally cache of an estimator built with
// NewMonteCarloExtended. For each center cs[j] it adds the (depth-)
// connection counts of worlds [lo[j], r) into counts[j] (one entry per
// node). It either adds all of them and returns nil, or returns an error
// having added none: the tallies then stay exactly as they were, and a
// later query resumes from there. FromCenters calls it once per batch,
// with every center whose tally is short of r.
type Extender func(ctx context.Context, cs []graph.NodeID, depth int, lo []int, r int, counts [][]int32) error

// cacheKey identifies a cached center query.
type cacheKey struct {
	c     graph.NodeID
	depth int
}

// batchSlot tracks one distinct (center, depth) key of a FromCenters batch:
// its tally and the output positions it answers.
type batchSlot struct {
	key   cacheKey
	tally *centerTally
	outAt []int
}

// centerTally holds per-node connection counts over the first rDone worlds.
// Its mutex serializes extensions (and snapshotting) of one center's tally,
// so concurrent queries for the same center never double-count a world.
type centerTally struct {
	mu     sync.Mutex
	counts []int32
	rDone  int
}

// NewMonteCarlo returns an estimator over g's possible worlds under seed.
// The world labels come from the shared store for (g, seed), so every
// estimator — and every other world consumer — built from the same pair
// observes the same worlds.
func NewMonteCarlo(g *graph.Uncertain, seed uint64) *MonteCarlo {
	n := g.NumNodes()
	// Bound the tally cache to ~64 MiB (4 bytes per node per entry).
	maxCache := 64 << 20 / (4 * n)
	if maxCache < 64 {
		maxCache = 64
	}
	return &MonteCarlo{
		g:        g,
		seed:     seed,
		store:    worldstore.Shared(g, seed),
		cache:    make(map[cacheKey]*centerTally),
		maxCache: maxCache,
	}
}

// NewMonteCarloExtended returns an estimator whose tally cache is extended
// by ext instead of the local world store. Caching, the higher-precision
// contract and the estimates are those of NewMonteCarlo, so an extender
// that adds the same integer counts answers bit-identically.
func NewMonteCarloExtended(g *graph.Uncertain, seed uint64, ext Extender) *MonteCarlo {
	mc := NewMonteCarlo(g, seed)
	mc.ext = ext
	return mc
}

// NumNodes returns the number of nodes of the underlying graph.
func (mc *MonteCarlo) NumNodes() int { return mc.g.NumNodes() }

// Graph returns the underlying graph.
func (mc *MonteCarlo) Graph() *graph.Uncertain { return mc.g }

// WorldsMaterialized returns how many worlds of the shared store's stream
// have been requested so far (observability for tests and progress
// reporting).
func (mc *MonteCarlo) WorldsMaterialized() int { return mc.store.Worlds() }

// Store exposes the underlying shared world store (used by metrics and the
// companion queries to compute statistics over the same worlds).
func (mc *MonteCarlo) Store() *worldstore.Store { return mc.store }

// lookupTally returns the cached tally for key, inserting an empty one
// (with FIFO eviction) if absent. Eviction treats cacheOrder as a ring:
// once full, the slot of the evicted oldest entry is reused for the new
// key and the head advances. (Re-slicing the front off a slice instead —
// the previous implementation — kept the evicted prefix reachable through
// the backing array, so a long-running estimator under eviction pressure
// dragged the entire key history along.) Caller must not hold mc.mu.
func (mc *MonteCarlo) lookupTally(key cacheKey) *centerTally {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	tally, ok := mc.cache[key]
	if !ok {
		if len(mc.cacheOrder) >= mc.maxCache {
			delete(mc.cache, mc.cacheOrder[mc.cacheHead])
			mc.cacheOrder[mc.cacheHead] = key
			mc.cacheHead++
			if mc.cacheHead == len(mc.cacheOrder) {
				mc.cacheHead = 0
			}
		} else {
			mc.cacheOrder = append(mc.cacheOrder, key)
		}
		tally = &centerTally{counts: make([]int32, mc.g.NumNodes())}
		mc.cache[key] = tally
	}
	return tally
}

// estimate converts a tally into the caller-owned estimate vector. The
// caller holds tally.mu.
func (tally *centerTally) estimate() []float64 {
	out := make([]float64, len(tally.counts))
	inv := 1 / float64(tally.rDone)
	for i, cnt := range tally.counts {
		out[i] = float64(cnt) * inv
	}
	return out
}

// FromCenter implements Oracle. Tally vectors are cached per (center,
// depth) and extended when r grows; if a cached tally already covers more
// worlds than requested, the higher-precision estimate is returned.
// FromCenter may be called from many goroutines at once.
func (mc *MonteCarlo) FromCenter(c graph.NodeID, depth int, r int) []float64 {
	out, _ := mc.FromCenterCtx(context.Background(), c, depth, r)
	return out
}

// FromCenterCtx is FromCenter with cooperative cancellation: a one-center
// FromCentersCtx.
func (mc *MonteCarlo) FromCenterCtx(ctx context.Context, c graph.NodeID, depth int, r int) ([]float64, error) {
	out, err := mc.FromCentersCtx(ctx, []graph.NodeID{c}, depth, r)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ctxChunk is how many worlds a cancellable extension advances between
// context checks: large enough that the check is free relative to the
// tallies, small enough that deadlines are honored within tens of
// milliseconds on laptop-scale graphs. Chunking never changes an
// estimate — counts are exact integer tallies whatever the boundaries.
const ctxChunk = 1024

// FromCenters implements the batched Oracle query: one estimate vector per
// center, equal to FromCenter(c, depth, r) for each c. The batch shares
// the per-center tally cache with FromCenter; centers whose tallies need
// extension are answered together, split across goroutines, each share
// handing its whole center subset to one store call, which reads each
// block once for the subset — the label blocks' largest-component indexes
// (worldstore.CountConnectedFromMulti) for unlimited depth, edge-bitmap
// blocks (worldstore.CountWithinMulti, whose kernel the store picks for
// its block width) for depth-limited queries. A lone pending center has
// its world range split across goroutines instead. Workers write into
// disjoint tallies, so the counts — and the estimates — are bit-identical
// to a serial per-center loop for any worker count.
func (mc *MonteCarlo) FromCenters(cs []graph.NodeID, depth int, r int) [][]float64 {
	out, _ := mc.FromCentersCtx(context.Background(), cs, depth, r)
	return out
}

// FromCentersCtx is FromCenters with cooperative cancellation: local
// extensions advance in bounded chunks of worlds and check ctx between
// chunks, so a cancelled query returns ctx's error quickly while leaving
// every touched tally consistent (it exactly covers the worlds tallied so
// far, and a later query simply resumes from there). An Extender is called
// once per batch and honors ctx itself. A call that returns nil error is
// bit-identical to FromCenters.
func (mc *MonteCarlo) FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth int, r int) ([][]float64, error) {
	if len(cs) == 0 {
		return nil, nil
	}
	if r < 1 {
		r = 1
	}
	if depth < 0 {
		depth = Unlimited
	}

	// Deduplicate centers (duplicates share one tally) while preserving
	// first-occurrence order, so cache insertion — and hence FIFO eviction
	// order — matches the equivalent serial FromCenter loop.
	slots := make([]*batchSlot, 0, len(cs))
	byKey := make(map[cacheKey]*batchSlot, len(cs))
	for i, c := range cs {
		key := cacheKey{c: c, depth: depth}
		sl := byKey[key]
		if sl == nil {
			sl = &batchSlot{key: key}
			byKey[key] = sl
			slots = append(slots, sl)
		}
		sl.outAt = append(sl.outAt, i)
	}
	for _, sl := range slots {
		sl.tally = mc.lookupTally(sl.key)
	}

	// Lock the batch's tallies in canonical center order: concurrent
	// FromCenters batches over overlapping center sets then acquire in the
	// same order and cannot deadlock (FromCenter holds at most one tally
	// lock, so it cannot close a cycle either).
	locked := make([]*batchSlot, len(slots))
	copy(locked, slots)
	sort.Slice(locked, func(i, j int) bool { return locked[i].key.c < locked[j].key.c })
	for _, sl := range locked {
		sl.tally.mu.Lock()
	}
	defer func() {
		for _, sl := range locked {
			sl.tally.mu.Unlock()
		}
	}()

	var pending []*batchSlot
	for _, sl := range slots {
		if sl.tally.rDone < r {
			pending = append(pending, sl)
		}
	}
	switch {
	case len(pending) == 0:
		// Every tally already covers r worlds.
	case mc.ext != nil:
		if err := mc.extendExternal(ctx, pending, depth, r); err != nil {
			return nil, err
		}
	default:
		// Local extension in ctx-checked chunks: one pass over each block
		// of the store for the whole batch, or a world-split range for a
		// lone center — see extendBatch.
		if err := mc.extendChunked(ctx, pending, r); err != nil {
			return nil, err
		}
	}

	out := make([][]float64, len(cs))
	for _, sl := range slots {
		est := sl.tally.estimate()
		for i, pos := range sl.outAt {
			if i == 0 {
				out[pos] = est
			} else {
				cp := make([]float64, len(est))
				copy(cp, est)
				out[pos] = cp
			}
		}
	}
	return out, nil
}

// extendExternal brings every pending tally to r worlds with one Extender
// call. The caller holds every pending tally's lock.
func (mc *MonteCarlo) extendExternal(ctx context.Context, pending []*batchSlot, depth, r int) error {
	cs := make([]graph.NodeID, len(pending))
	lo := make([]int, len(pending))
	counts := make([][]int32, len(pending))
	for j, sl := range pending {
		cs[j], lo[j], counts[j] = sl.key.c, sl.tally.rDone, sl.tally.counts
	}
	if err := mc.ext(ctx, cs, depth, lo, r, counts); err != nil {
		return err
	}
	for _, sl := range pending {
		sl.tally.rDone = r
	}
	return nil
}

// extendChunked advances every pending tally to r worlds in bounded
// steps, checking ctx between steps. Each step raises the laggard tallies
// to the next ctxChunk boundary via extendBatch, so an aborted call
// leaves every tally consistent at its current rDone. The caller holds
// every pending tally's lock.
func (mc *MonteCarlo) extendChunked(ctx context.Context, pending []*batchSlot, r int) error {
	for {
		minDone := r
		for _, sl := range pending {
			if sl.tally.rDone < minDone {
				minDone = sl.tally.rDone
			}
		}
		if minDone >= r {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		next := minDone + ctxChunk
		if next > r {
			next = r
		}
		still := pending[:0:0]
		for _, sl := range pending {
			if sl.tally.rDone < next {
				still = append(still, sl)
			}
		}
		mc.extendBatch(still, next)
	}
}

// extendBatch brings every pending tally up to r worlds of counts. A lone
// tally gets the world-split extend. Otherwise the pending centers are
// split into contiguous subsets, one per share of par.Split; each share
// answers its subset with a single store call — CountConnectedFromMulti
// (the label blocks' largest-component indexes) for unlimited depth,
// CountWithinMulti (edge-bitmap BFS) for depth-limited queries — writing
// directly into its tallies' count vectors. No two shares touch the same
// tally and each tally's counts depend only on (store, depth, lo, r), so
// the result is independent of the partition. The caller holds every
// pending tally's lock; all slots share one depth (FromCenters batches are
// per-depth).
func (mc *MonteCarlo) extendBatch(pending []*batchSlot, r int) {
	if len(pending) == 1 {
		mc.extend(pending[0].key, pending[0].tally, r)
		pending[0].tally.rDone = r
		return
	}
	mc.store.Grow(r)
	depth := pending[0].key.depth
	par.Split(len(pending), func(i, k int) {
		chunk := (len(pending) + k - 1) / k
		subset := pending[min(i*chunk, len(pending)):min((i+1)*chunk, len(pending))]
		if len(subset) == 0 {
			return
		}
		cs := make([]graph.NodeID, len(subset))
		lo := make([]int, len(subset))
		counts := make([][]int32, len(subset))
		for j, sl := range subset {
			cs[j] = sl.key.c
			lo[j] = sl.tally.rDone
			counts[j] = sl.tally.counts
		}
		if depth < 0 {
			mc.store.CountConnectedFromMulti(cs, lo, r, counts)
		} else {
			mc.store.CountWithinMulti(cs, depth, lo, r, counts)
		}
		for _, sl := range subset {
			sl.tally.rDone = r
		}
	})
}

// minShardSpan is the smallest world range worth fanning out; below it the
// goroutine overhead dominates the per-world scans.
const minShardSpan = 16

// extend accumulates worlds [tally.rDone, r) into tally.counts, splitting
// the range into contiguous chunks of worlds, one per share of par.Split.
// Share 0 tallies its chunk straight into tally.counts, every other share
// into a private scratch buffer; the buffers are then merged serially.
// Integer addition is associative and commutative, so the merged counts
// equal the serial counts exactly, for any worker count.
//
// Chunks are cut at block boundaries: within one block the store answers
// from the block's index (the largest-component index for unlimited depth,
// the presence index for depth-limited queries) in microseconds, less than
// a goroutine, an n-entry scratch buffer and an n-long merge cost, so a
// range inside one block is counted serially. The caller holds tally.mu.
func (mc *MonteCarlo) extend(key cacheKey, tally *centerTally, r int) {
	lo, hi := tally.rDone, r
	mc.store.Grow(hi)
	align := mc.store.BlockWorlds()
	// cut rounds a chunk boundary up to the alignment, within the range.
	cut := func(x int) int { return min((x+align-1)/align*align, hi) }
	span := hi - lo
	want := min(runtime.GOMAXPROCS(0), span)
	if want <= 1 || span < minShardSpan || cut(lo+(span+want-1)/want) >= hi {
		mc.countRange(key, lo, hi, tally.counts)
		return
	}
	scratch := make([][]int32, want)
	par.Split(want, func(i, k int) {
		chunk := (span + k - 1) / k
		start := lo
		for j := 0; j < i; j++ {
			start = cut(start + chunk)
		}
		if start >= hi {
			return
		}
		counts := tally.counts
		if i > 0 {
			scratch[i] = make([]int32, len(tally.counts))
			counts = scratch[i]
		}
		mc.countRange(key, start, cut(start+chunk), counts)
	})
	for _, buf := range scratch {
		for u, cnt := range buf {
			tally.counts[u] += cnt
		}
	}
}

// countRange adds the connection counts of worlds [lo, hi) into counts
// from the shared store: CountConnectedFrom for unlimited depth,
// CountWithinFrom for depth-limited queries. The store picks the kernel
// for its block width and warm state; every kernel adds the same
// integers. Safe to call from multiple goroutines as long as each call
// owns its counts buffer.
func (mc *MonteCarlo) countRange(key cacheKey, lo, hi int, counts []int32) {
	if key.depth < 0 {
		mc.store.CountConnectedFrom(key.c, lo, hi, counts)
		return
	}
	mc.store.CountWithinFrom(key.c, key.depth, lo, hi, counts)
}

// Pair estimates Pr(u ~ v) with r samples.
func (mc *MonteCarlo) Pair(u, v graph.NodeID, r int) float64 {
	return mc.store.EstimatePair(u, v, r)
}

// PairCtx is Pair with cooperative cancellation: the world scan aborts at
// the next block boundary once ctx is done, returning ctx's error.
func (mc *MonteCarlo) PairCtx(ctx context.Context, u, v graph.NodeID, r int) (float64, error) {
	return mc.store.EstimatePairCtx(ctx, u, v, r)
}

// MaxExactEdges caps the graph size accepted by Exact: enumerating 2^m
// worlds beyond ~22 edges is pointless even for tests.
const MaxExactEdges = 22

// Exact computes connection probabilities exactly by enumerating all 2^m
// possible worlds. It exists to validate the Monte Carlo estimator and the
// theoretical guarantees on tiny instances.
type Exact struct {
	g *graph.Uncertain
}

// NewExact returns an exact oracle for g, refusing graphs with more than
// MaxExactEdges edges.
func NewExact(g *graph.Uncertain) (*Exact, error) {
	if g.NumEdges() > MaxExactEdges {
		return nil, fmt.Errorf("conn: exact oracle limited to %d edges, graph has %d",
			MaxExactEdges, g.NumEdges())
	}
	return &Exact{g: g}, nil
}

// NumNodes returns the number of nodes of the underlying graph.
func (ex *Exact) NumNodes() int { return ex.g.NumNodes() }

// FromCenter implements Oracle: exact Pr(c ~depth u) for all u.
// The sample-size hint r is ignored.
func (ex *Exact) FromCenter(c graph.NodeID, depth int, _ int) []float64 {
	n := ex.g.NumNodes()
	m := ex.g.NumEdges()
	edges := ex.g.Edges()
	out := make([]float64, n)
	uf := graph.NewUnionFind(n)
	// BFS scratch for depth-limited worlds.
	dist := make([]int32, n)
	queue := make([]graph.NodeID, 0, n)
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		w := 1.0
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				w *= edges[i].P
			} else {
				w *= 1 - edges[i].P
			}
		}
		if w == 0 {
			continue
		}
		if depth < 0 {
			uf.Reset()
			for i := 0; i < m; i++ {
				if mask&(1<<uint(i)) != 0 {
					uf.Union(edges[i].U, edges[i].V)
				}
			}
			rc := uf.Find(c)
			for u := 0; u < n; u++ {
				if uf.Find(int32(u)) == rc {
					out[u] += w
				}
			}
			continue
		}
		// Depth-limited: BFS on the world's edges.
		for i := range dist {
			dist[i] = -1
		}
		dist[c] = 0
		queue = queue[:0]
		queue = append(queue, c)
		out[c] += w
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if int(dist[u]) >= depth {
				continue
			}
			nodes, ids, _ := ex.g.NeighborSlices(u)
			for j, v := range nodes {
				if dist[v] >= 0 || mask&(1<<uint(ids[j])) == 0 {
					continue
				}
				dist[v] = dist[u] + 1
				queue = append(queue, v)
				out[v] += w
			}
		}
	}
	return out
}

// FromCenters implements the batched Oracle query by enumerating per
// center; exactness leaves nothing to amortize across the batch.
func (ex *Exact) FromCenters(cs []graph.NodeID, depth int, r int) [][]float64 {
	out := make([][]float64, len(cs))
	for i, c := range cs {
		out[i] = ex.FromCenter(c, depth, r)
	}
	return out
}

// FromCenterCtx implements ContextOracle: ctx is checked before the
// enumeration (a single center's 2^m sweep is the indivisible unit here).
func (ex *Exact) FromCenterCtx(ctx context.Context, c graph.NodeID, depth int, r int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ex.FromCenter(c, depth, r), nil
}

// FromCentersCtx implements ContextOracle, checking ctx between centers.
func (ex *Exact) FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth int, r int) ([][]float64, error) {
	out := make([][]float64, len(cs))
	for i, c := range cs {
		est, err := ex.FromCenterCtx(ctx, c, depth, r)
		if err != nil {
			return nil, err
		}
		out[i] = est
	}
	return out, nil
}

// Pair returns the exact Pr(u ~ v).
func (ex *Exact) Pair(u, v graph.NodeID) float64 {
	return ex.FromCenter(u, Unlimited, 0)[v]
}

// TreePathProbability returns Pr(u ~ v) for a tree (forest) graph, where it
// equals the product of edge probabilities along the unique u–v path, or 0
// if u and v are in different trees. It is an independent closed-form
// reference for tests; the result is unspecified if g has cycles.
func TreePathProbability(g *graph.Uncertain, u, v graph.NodeID) float64 {
	if u == v {
		return 1
	}
	// BFS from u remembering the probability product to each node.
	prod := make([]float64, g.NumNodes())
	seen := make([]bool, g.NumNodes())
	prod[u], seen[u] = 1, true
	queue := []graph.NodeID{u}
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		if x == v {
			return prod[x]
		}
		nodes, _, probs := g.NeighborSlices(x)
		for j, y := range nodes {
			if !seen[y] {
				seen[y] = true
				prod[y] = prod[x] * probs[j]
				queue = append(queue, y)
			}
		}
	}
	return 0
}

// Harmonic returns H(n) = sum_{i=1..n} 1/i, the harmonic number appearing in
// the ACP bounds (Lemma 3).
func Harmonic(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// SampleSize returns the number of samples r that makes the Monte Carlo
// estimate of a probability >= q an (eps, delta)-approximation (Equation 4):
// r >= 3 ln(2/delta) / (eps^2 q).
func SampleSize(q, eps, delta float64) int {
	if q <= 0 || eps <= 0 || delta <= 0 {
		panic("conn: SampleSize arguments must be positive")
	}
	return int(math.Ceil(3 * math.Log(2/delta) / (eps * eps * q)))
}

// MCPSamples returns the per-iteration sample count of the MCP
// implementation (Equation 9):
// r = ceil( 12/(q eps^2) * ln( 2 n^3 (1 + floor(log_{1+gamma} 1/pL)) ) ).
func MCPSamples(q, eps, gamma, pL float64, n int) int {
	if q <= 0 || eps <= 0 || gamma <= 0 || pL <= 0 || pL > 1 || n < 1 {
		panic("conn: MCPSamples arguments out of range")
	}
	guesses := 1 + math.Floor(math.Log(1/pL)/math.Log(1+gamma))
	ln := math.Log(2 * math.Pow(float64(n), 3) * guesses)
	return int(math.Ceil(12 / (q * eps * eps) * ln))
}

// ACPSamples returns the per-iteration sample count of the ACP
// implementation (Equation 10):
// r = ceil( 12/(q^3 eps^2) * ln( 2 n^3 (1 + floor(log_{1+gamma} H(n)/pL)) ) ).
func ACPSamples(q, eps, gamma, pL float64, n int) int {
	if q <= 0 || eps <= 0 || gamma <= 0 || pL <= 0 || pL > 1 || n < 1 {
		panic("conn: ACPSamples arguments out of range")
	}
	guesses := 1 + math.Floor(math.Log(Harmonic(n)/pL)/math.Log(1+gamma))
	ln := math.Log(2 * math.Pow(float64(n), 3) * guesses)
	q3 := q * q * q
	return int(math.Ceil(12 / (q3 * eps * eps) * ln))
}

// Schedule chooses per-phase Monte Carlo sample sizes. The zero value is
// invalid; use DefaultSchedule or RigorousSchedule.
type Schedule struct {
	// Min is the floor on the sample count. Section 5 reports that starting
	// the progressive schedule from 50 samples is accurate in practice.
	Min int
	// Max caps the sample count so that tiny probability guesses do not
	// request astronomically many worlds.
	Max int
	// Coef scales the 1/q (or 1/q^3) growth: r ~ Coef/q.
	Coef float64
	// Cubic selects the ACP-style 1/q^3 growth instead of 1/q.
	Cubic bool
	// Rigorous switches to the conservative union-bound counts of
	// Equations 9–10 (still clamped to Max). Eps, Gamma, PL and N configure
	// those formulas.
	Rigorous bool
	Eps      float64
	Gamma    float64
	PL       float64
	N        int
}

// DefaultSchedule is the practical schedule of Section 5 for an n-node
// graph: start at 50 samples and grow like 1/q, capped.
func DefaultSchedule(n int) Schedule {
	return Schedule{Min: 50, Max: 4096, Coef: 8}
}

// RigorousSchedule is the Eq. (9)/(10) schedule with the given parameters.
func RigorousSchedule(n int, eps, gamma, pL float64, cubic bool) Schedule {
	return Schedule{
		Min: 1, Max: 1 << 22, Cubic: cubic,
		Rigorous: true, Eps: eps, Gamma: gamma, PL: pL, N: n,
	}
}

// Samples returns the sample count for probability guess q.
func (s Schedule) Samples(q float64) int {
	if q <= 0 {
		q = 1e-12
	}
	if q > 1 {
		q = 1
	}
	var r int
	if s.Rigorous {
		if s.Cubic {
			r = ACPSamples(q, s.Eps, s.Gamma, s.PL, s.N)
		} else {
			r = MCPSamples(q, s.Eps, s.Gamma, s.PL, s.N)
		}
	} else {
		den := q
		if s.Cubic {
			den = q * q * q
		}
		r = int(math.Ceil(s.Coef / den))
	}
	if r < s.Min {
		r = s.Min
	}
	if s.Max > 0 && r > s.Max {
		r = s.Max
	}
	return r
}
