package main

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
	"ucgraph/internal/shard"
	"ucgraph/internal/worldstore"
)

// The traced replay measures each layer from outside, at its public entry
// point, on the workload's own fixture. It replays a prefix of the request
// sequence serially, one rung at a time, top to bottom:
//
//	http + server  the client round trip, and the time inside
//	               Server.ServeHTTP (a timing handler the harness mounts)
//	core / conn    core.MCPCtx/ACPCtx on a forked shard.Coordinator, or the
//	               handler's conn estimator call, through a timing wrapper
//	               around the oracle
//	worldstore     CountConnectedFromMulti/CountWithinMulti replayed on the
//	               centers and world ranges the oracle had to tally, and
//	               EstimatePairCtx for pairs
//	sampler        the per-world kernels on the fixture's worlds
//
// A layer's self time is its rung minus the rung below for the same
// request. Each rung gets its own instance of every cache the rung below
// would read (daemon and coordinator tally caches, worker tally caches),
// warmed with the same request prefix, so rungs see the same cache state.
// Because the replay is serial, each counter delta belongs to exactly one
// request. Spans are kept in memory and written out at the end.

// span is one harness span: a rung's call for one replayed request.
type span struct {
	Req   int     `json:"req"`
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`
}

// oracleCall is one call into the oracle, as the wrapper saw it.
type oracleCall struct {
	centers []graph.NodeID
	depth   int
	r       int
	pair    bool // PairCtx(centers[0], v, r)
	v       graph.NodeID
}

// timedOracle wraps a coordinator: it records every call and the time
// spent inside. It forwards Store so adaptive rounds align to the same
// block size as on the bare coordinator.
type timedOracle struct {
	o     *shard.Coordinator
	calls []oracleCall
	took  time.Duration
}

func (t *timedOracle) NumNodes() int            { return t.o.NumNodes() }
func (t *timedOracle) Store() *worldstore.Store { return t.o.Store() }
func (t *timedOracle) reset()                   { t.calls, t.took = nil, 0 }
func (t *timedOracle) note(c oracleCall, t0 time.Time) {
	t.took += time.Since(t0)
	t.calls = append(t.calls, c)
}

func (t *timedOracle) FromCenter(c graph.NodeID, depth, r int) []float64 {
	out, _ := t.FromCenterCtx(context.Background(), c, depth, r)
	return out
}

func (t *timedOracle) FromCenters(cs []graph.NodeID, depth, r int) [][]float64 {
	out, _ := t.FromCentersCtx(context.Background(), cs, depth, r)
	return out
}

func (t *timedOracle) FromCenterCtx(ctx context.Context, c graph.NodeID, depth, r int) ([]float64, error) {
	t0 := time.Now()
	out, err := t.o.FromCenterCtx(ctx, c, depth, r)
	t.note(oracleCall{centers: []graph.NodeID{c}, depth: depth, r: r}, t0)
	return out, err
}

func (t *timedOracle) FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth, r int) ([][]float64, error) {
	t0 := time.Now()
	out, err := t.o.FromCentersCtx(ctx, cs, depth, r)
	t.note(oracleCall{centers: append([]graph.NodeID(nil), cs...), depth: depth, r: r}, t0)
	return out, err
}

func (t *timedOracle) PairCtx(ctx context.Context, u, v graph.NodeID, r int) (float64, error) {
	t0 := time.Now()
	p, err := t.o.PairCtx(ctx, u, v, r)
	t.note(oracleCall{centers: []graph.NodeID{u}, pair: true, v: v, r: r}, t0)
	return p, err
}

// replayOracle is what a recorded call is replayed on: conn.MonteCarlo
// (the local replay behind shard.overhead_ms) or a shard.Coordinator (the
// cache-off scatter).
type replayOracle interface {
	FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth, r int) ([][]float64, error)
	PairCtx(ctx context.Context, u, v graph.NodeID, r int) (float64, error)
}

func replayCall(ctx context.Context, o replayOracle, c oracleCall) error {
	if c.pair {
		_, err := o.PairCtx(ctx, c.centers[0], c.v, c.r)
		return err
	}
	_, err := o.FromCentersCtx(ctx, c.centers, c.depth, c.r)
	return err
}

// shadow models the oracle's tally cache — per-(center, depth) world
// counts, FIFO-evicted at the same capacity — to recover which centers
// each call had to extend, and over which world ranges: the documented
// tally-extension contract, observed from outside.
type shadow struct {
	done  map[shadowKey]int
	order []shadowKey
	head  int
	max   int
}

type shadowKey struct {
	c     graph.NodeID
	depth int
}

func newShadow(n int) *shadow {
	max := 64 << 20 / (4 * n)
	if max < 64 {
		max = 64
	}
	return &shadow{done: map[shadowKey]int{}, max: max}
}

func (s *shadow) lookup(k shadowKey) int {
	if d, ok := s.done[k]; ok {
		return d
	}
	if len(s.order) >= s.max {
		delete(s.done, s.order[s.head])
		s.order[s.head] = k
		s.head = (s.head + 1) % len(s.order)
	} else {
		s.order = append(s.order, k)
	}
	s.done[k] = 0
	return 0
}

// extension is the world ranges one call had to tally.
type extension struct {
	centers []graph.NodeID
	los     []int
	depth   int
	r       int
}

// apply records a call and returns its pending extension (nil when every
// tally already covered the call), with the lookup and hit counts.
func (s *shadow) apply(c oracleCall) (ext *extension, lookups, hits int) {
	depth := c.depth
	if depth < 0 {
		depth = conn.Unlimited
	}
	seen := map[graph.NodeID]bool{}
	ext = &extension{depth: depth, r: c.r}
	for _, ctr := range c.centers {
		if seen[ctr] {
			continue
		}
		seen[ctr] = true
		lookups++
		k := shadowKey{ctr, depth}
		if d := s.lookup(k); d < c.r {
			ext.centers = append(ext.centers, ctr)
			ext.los = append(ext.los, d)
		} else {
			hits++
		}
	}
	for _, ctr := range ext.centers {
		s.done[shadowKey{ctr, depth}] = c.r
	}
	if len(ext.centers) == 0 {
		return nil, lookups, hits
	}
	return ext, lookups, hits
}

func (e *extension) worlds() int64 {
	var w int64
	for _, lo := range e.los {
		w += int64(e.r - lo)
	}
	return w
}

// replayExtension performs an extension directly on the store with the
// estimator's fan-out: a batch splits its centers across two goroutines, a
// single center its world range. It returns the time taken, excluding
// the count buffers, which the estimator allocates when it looks a tally
// up.
func replayExtension(st *worldstore.Store, g *graph.Uncertain, seed uint64, e *extension) time.Duration {
	n := st.NumNodes()
	counts := make([][]int32, len(e.centers))
	for i := range counts {
		counts[i] = make([]int32, n)
	}
	count := func(cs []graph.NodeID, los []int, hi int, counts [][]int32) {
		switch {
		case e.depth < 0 && len(cs) == 1:
			st.CountConnectedFrom(cs[0], los[0], hi, counts[0])
		case e.depth < 0:
			st.CountConnectedFromMulti(cs, los, hi, counts)
		case len(cs) == 1 && !st.BitsWarm(los[0], hi):
			sampler.NewReachCounter(g, seed).CountWithin(cs[0], e.depth, los[0], hi, counts[0])
		default:
			st.CountWithinMulti(cs, e.depth, los, hi, counts)
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	if len(e.centers) == 1 {
		lo, hi := e.los[0], e.r
		if hi-lo >= 16 {
			mid := lo + (hi-lo+1)/2
			extra := [][]int32{make([]int32, n)}
			wg.Add(1)
			go func() {
				defer wg.Done()
				count(e.centers, []int{mid}, hi, extra)
			}()
			hi = mid
			count(e.centers, []int{lo}, hi, counts)
			wg.Wait()
			for u, c := range extra[0] {
				counts[0][u] += c
			}
		} else {
			count(e.centers, e.los, hi, counts)
		}
	} else {
		half := (len(e.centers) + 1) / 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			count(e.centers[half:], e.los[half:], e.r, counts[half:])
		}()
		count(e.centers[:half], e.los[:half], e.r, counts[:half])
		wg.Wait()
	}
	return time.Since(t0)
}

// replayReq holds everything measured for one replayed request.
type replayReq struct {
	client, clientOff, handler float64 // ms
	bytes                      int
	ok                         bool
	rung                       float64 // core run (cluster) or conn call (conn), ms
	oracle                     float64 // inside the oracle wrapper, ms
	local, nocache             float64 // sharded: local replay and cache-off scatter, ms
	ws, pair                   float64 // worldstore rung, ms
	pairs                      int
	stats                      core.Stats
	calls, centers             int
	lookups, hits              int
	extWorlds                  int64
	st                         worldstore.Stats // delta around the http rung
	resident                   int64
	adaptiveUsed               float64
	adaptive                   bool
	wReq, wWorlds, wHit, wMiss uint64
	wFail                      uint64
	fabric                     shard.FabricStats
	wire                       int64
	explain, plain             float64
}

// connCall makes the estimator call the daemon's /v1/conn handler makes.
func connCall(ctx context.Context, o *timedOracle, b *connBody) error {
	depth := b.Depth
	if depth <= 0 {
		depth = conn.Unlimited
	}
	var err error
	switch {
	case b.Eps > 0:
		p := conn.AdaptiveParams{Eps: b.Eps, Delta: b.Delta, MaxWorlds: b.Samples}
		if b.Source != nil {
			_, _, err = conn.AdaptivePairInterval(ctx, o, *b.Source, *b.Target, depth, p, nil)
		} else {
			_, _, err = conn.AdaptiveFromCenters(ctx, o, b.Centers, depth, b.Targets, p, nil)
		}
	case b.Source != nil && depth == conn.Unlimited:
		_, err = o.PairCtx(ctx, *b.Source, *b.Target, b.Samples)
	case b.Source != nil:
		_, err = o.FromCenterCtx(ctx, *b.Source, depth, b.Samples)
	default:
		_, err = o.FromCentersCtx(ctx, b.Centers, depth, b.Samples)
	}
	return err
}

func workerCounters(ws []*worker) shard.WorkerCounters {
	var sum shard.WorkerCounters
	for _, w := range ws {
		c := w.w.Counters()
		sum.Requests += c.Requests
		sum.Failures += c.Failures
		sum.Worlds += c.Worlds
		sum.CacheHits += c.CacheHits
		sum.CacheMiss += c.CacheMiss
	}
	return sum
}

func wireBytes(ws []*worker) int64 {
	var b int64
	for _, w := range ws {
		b += w.bytes.Load()
	}
	return b
}

func fabricDelta(a, b shard.FabricStats) shard.FabricStats {
	return shard.FabricStats{
		Hedges:     a.Hedges - b.Hedges,
		Duplicates: a.Duplicates - b.Duplicates,
		Rescatters: a.Rescatters - b.Rescatters,
	}
}

func statsDelta(a, b worldstore.Stats) worldstore.Stats {
	return worldstore.Stats{
		Hits:             a.Hits - b.Hits,
		Materializations: a.Materializations - b.Materializations,
		DiskHits:         a.DiskHits - b.DiskHits,
		Recomputes:       a.Recomputes - b.Recomputes,
		Evictions:        a.Evictions - b.Evictions,
		SpillWrites:      a.SpillWrites - b.SpillWrites,
		AccumWorlds:      a.AccumWorlds - b.AccumWorlds,
		DirectWorlds:     a.DirectWorlds - b.DirectWorlds,
	}
}

// kernels times the sampler kernels on the fixture's first worlds.
type kernels struct {
	labelsUS, bitmapUS, reachUS, directUS, present float64
}

func samplerRung(g *graph.Uncertain, seed uint64, worlds int) kernels {
	n, m := g.NumNodes(), g.NumEdges()
	uf := graph.NewUnionFind(n)
	labels := make([]int32, n)
	bitmaps := make([][]uint64, worlds)
	var k kernels
	var tl, tb time.Duration
	present := 0
	for i := range bitmaps {
		w := sampler.World{G: g, Seed: seed, Index: uint64(i)}
		t0 := time.Now()
		w.ComponentLabels(uf, labels)
		tl += time.Since(t0)
		bitmaps[i] = make([]uint64, sampler.EdgeBitmapWords(m))
		t0 = time.Now()
		w.FillEdgeBitmap(bitmaps[i])
		tb += time.Since(t0)
		for _, word := range bitmaps[i] {
			present += bits.OnesCount64(word)
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(worlds) }
	k.labelsUS, k.bitmapUS = us(tl), us(tb)
	k.present = float64(present) / float64(worlds*m)

	// A 64-center depth-2 batch through both reach kernels.
	x := rng.NewXoshiro256(rng.Stream(seed, 0x72656163))
	perm := x.Perm(n)
	cs := make([]graph.NodeID, 64)
	counts := make([][]int32, 64)
	for i := range cs {
		cs[i] = graph.NodeID(perm[i%n])
		counts[i] = make([]int32, n)
	}
	mrc := sampler.NewMultiReachCounter(g)
	if mrc.BeginAccum() {
		t0 := time.Now()
		for i, b := range bitmaps {
			mrc.AccumWorld(b, cs, 2)
			if (i+1)%mrc.AccumCapacity() == 0 {
				mrc.FlushAccum(counts)
			}
		}
		mrc.FlushAccum(counts)
		k.reachUS = us(time.Since(t0))
	}
	t0 := time.Now()
	for _, b := range bitmaps {
		mrc.CountWithinWorld(b, cs, 2, counts)
	}
	k.directUS = us(time.Since(t0))
	return k
}

// tiers times one block of the fixture in each storage tier, on private
// stores: cold (first computation), disk (reloaded from the spill tier
// after eviction) and recompute (recomputed after eviction with no disk
// tier). It returns medians over a few blocks, in ms, keyed by metric.
func tiers(g *graph.Uncertain, seed uint64, dir string) (map[string]float64, error) {
	samples := map[string][]float64{}
	add := func(name string, d time.Duration) { samples[name] = append(samples[name], ms(d)) }
	timeIt := func(f func()) time.Duration { t0 := time.Now(); f(); return time.Since(t0) }
	noLabels := func(int, []int32) {}
	noBits := func(int, []uint64) {}
	for b := 0; b < 3; b++ {
		plain := worldstore.New(g, seed)
		plain.SetBudget(0)
		bw := plain.BlockWorlds()
		lo, hi := b*bw, (b+1)*bw
		add("labels_block_ms.cold", timeIt(func() { plain.Scan(lo, hi, noLabels) }))
		add("bits_block_ms.cold", timeIt(func() { plain.ScanBits(lo, hi, noBits) }))
		plain.SetBudget(1)
		plain.SetBudget(0)
		add("labels_block_ms.recompute", timeIt(func() { plain.Scan(lo, hi, noLabels) }))
		if st := plain.Stats(); st.Recomputes < 1 {
			return nil, fmt.Errorf("tier probe: block %d was not recomputed", b)
		}

		spilled := worldstore.New(g, seed)
		spilled.SetBudget(0)
		cache := filepath.Join(dir, fmt.Sprintf("tier-%d", b))
		if err := spilled.AttachCache(cache); err != nil {
			return nil, err
		}
		spilled.Scan(lo, hi, noLabels)
		spilled.ScanBits(lo, hi, noBits)
		spilled.SetBudget(1)
		spilled.SetBudget(0)
		add("labels_block_ms.disk", timeIt(func() { spilled.Scan(lo, hi, noLabels) }))
		add("bits_block_ms.disk", timeIt(func() { spilled.ScanBits(lo, hi, noBits) }))
		if st := spilled.Stats(); st.DiskHits != 2 {
			return nil, fmt.Errorf("tier probe: block %d: %d disk hits, want 2", b, st.DiskHits)
		}
		if err := os.RemoveAll(cache); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		sort.Float64s(xs)
		out[name] = xs[len(xs)/2]
	}
	return out, nil
}

// writeSpans writes the replay's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	for _, s := range spans {
		fmt.Fprintf(&buf, `{"req":%d,"layer":%q,"ms":%.4f}`+"\n", s.Req, s.Layer, s.MS)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
