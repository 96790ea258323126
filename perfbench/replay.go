package main

import (
	"context"
	"net/http"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/shard"
	"ucgraph/internal/worldstore"
)

// tracer runs the replay for one workload. Every rung instance is built
// and warmed first; then each measured request goes through all rungs in
// turn before the next one starts, so the shared store (and its disk
// tier) is in the same state for every rung of a request.
type tracer struct {
	w     *workload
	g     *graph.Uncertain
	seed  uint64
	store *worldstore.Store // the daemon's own store
	seq   []prepared
	spans []span
	reqs  []replayReq

	// http + server: a daemon behind the timing handler, and one mounted
	// without it (the price of the harness span).
	traced, untraced *daemon
	tclient, uclient *http.Client
	// estimator rung: a coordinator (over cache-on workers when sharded)
	// and, sharded, one over cache-off workers, which also back the
	// explain daemon.
	coord, offCoord *shard.Coordinator
	wrapped         *timedOracle
	sh              *shadow
	onWorkers       []*worker
	explainD        *daemon
	eclient         *http.Client
	closers         []func()
}

func (t *tracer) span(req int, layer string, ms float64) {
	t.spans = append(t.spans, span{Req: req, Layer: layer, MS: ms})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (t *tracer) sharded() bool { return t.w.workers > 0 }

func (t *tracer) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// workerSet starts and warms a fresh set of loopback workers.
func (t *tracer) workerSet(cacheBytes int64) ([]*worker, error) {
	ws, err := startWorkers(t.g, t.seed, t.w.workers, cacheBytes)
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, func() { closeWorkers(ws) })
	return ws, warmWorkers(t.g, t.seed, ws, t.w.warmWorlds)
}

// daemonRung starts a fresh daemon, over fresh workers when sharded.
func (t *tracer) daemonRung(timed bool, cacheBytes int64) (*daemon, *http.Client, error) {
	var shards []string
	if t.sharded() {
		ws, err := t.workerSet(cacheBytes)
		if err != nil {
			return nil, nil, err
		}
		shards = workerURLs(ws)
	}
	d, err := startDaemon(t.g, t.seed, shards, "", timed)
	if err != nil {
		return nil, nil, err
	}
	client := newClient()
	t.closers = append(t.closers, d.close, client.CloseIdleConnections)
	return d, client, nil
}

// build creates every rung instance.
func (t *tracer) build() error {
	var err error
	if t.traced, t.tclient, err = t.daemonRung(true, 0); err != nil {
		return err
	}
	if t.untraced, t.uclient, err = t.daemonRung(false, 0); err != nil {
		return err
	}
	var off []*worker
	if t.sharded() {
		if t.onWorkers, err = t.workerSet(0); err != nil {
			return err
		}
		if off, err = t.workerSet(-1); err != nil {
			return err
		}
		if t.explainD, err = startDaemon(t.g, t.seed, workerURLs(off), "", false); err != nil {
			return err
		}
		t.eclient = newClient()
		t.closers = append(t.closers, t.explainD.close, t.eclient.CloseIdleConnections)
	}
	t.coord = shard.NewCoordinator(graphName, t.g, t.seed, workerURLs(t.onWorkers), shard.CoordinatorOptions{})
	t.offCoord = shard.NewCoordinator(graphName, t.g, t.seed, workerURLs(off), shard.CoordinatorOptions{})
	t.closers = append(t.closers, t.coord.Close, t.offCoord.Close)
	// Conn requests share one long-lived coordinator, as the daemon's do;
	// clusterings fork a private one per request.
	t.wrapped = &timedOracle{o: t.coord}
	t.sh = newShadow(t.g.NumNodes())
	return nil
}

// warm sends one prefix request to every rung instance that caches
// across requests.
func (t *tracer) warm(ctx context.Context, p prepared) error {
	do(t.tclient, t.traced.url, p)
	if _, err := t.traced.handlerTime(); err != nil {
		return err
	}
	do(t.uclient, t.untraced.url, p)
	if b := p.req.Cluster; b != nil {
		// A clustering forks a private coordinator, but when sharded its
		// scatters warm the worker tally caches.
		if t.sharded() {
			_, _, err := runClustering(ctx, t.coord.Fork(), b, true)
			return err
		}
		return nil
	}
	t.wrapped.reset()
	if err := connCall(ctx, t.wrapped, p.req.Conn); err != nil {
		return err
	}
	for _, c := range t.wrapped.calls {
		t.sh.apply(c)
	}
	return nil
}

// run performs the whole replay.
func (t *tracer) run() error {
	defer t.close()
	if err := t.build(); err != nil {
		return err
	}
	ctx := context.Background()
	at := func(i int) prepared { return t.seq[i%len(t.seq)] }
	for i := 0; i < t.w.replayWarm; i++ {
		if err := t.warm(ctx, at(i)); err != nil {
			return err
		}
	}
	t.reqs = make([]replayReq, t.w.replayLen)
	for i := range t.reqs {
		p := at(t.w.replayWarm + i)
		if err := t.httpRung(i, p); err != nil {
			return err
		}
		t.reqs[i].clientOff = ms(do(t.uclient, t.untraced.url, p).latency)
		if err := t.estimatorRung(ctx, i, p); err != nil {
			return err
		}
		if t.sharded() {
			if err := t.explainRung(i, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// httpRung: client round trip, time in ServeHTTP, response size, and the
// daemon store's counter deltas.
func (t *tracer) httpRung(i int, p prepared) error {
	before := t.store.Stats()
	o := do(t.tclient, t.traced.url, p)
	h, err := t.traced.handlerTime()
	if err != nil {
		return err
	}
	after := t.store.Stats()
	r := &t.reqs[i]
	r.client, r.handler, r.bytes = ms(o.latency), ms(h), o.bytes
	r.ok = o.err == nil && o.status == http.StatusOK
	r.st = statsDelta(after, before)
	r.resident = after.ResidentBytes
	t.span(i, "http", r.client)
	t.span(i, "server", r.handler)
	if p.req.Conn != nil && p.req.adaptive() && r.ok {
		if a, err := decodeConn(&o); err == nil && a.Budget > 0 {
			r.adaptive, r.adaptiveUsed = true, float64(a.Worlds)/float64(a.Budget)
		}
	}
	return nil
}

// estimatorRung runs the request's estimator below the server — core on a
// forked coordinator for a clustering, the handler's conn call otherwise —
// through the timing wrapper; then replays the recorded calls on the
// store and, sharded, locally and through cache-off workers.
func (t *tracer) estimatorRung(ctx context.Context, i int, p prepared) error {
	r := &t.reqs[i]
	before := workerCounters(t.onWorkers)
	fabric := t.coord.FabricStats()
	wire := wireBytes(t.onWorkers)
	sh := t.sh
	wrapped := t.wrapped
	wrapped.reset()
	t0 := time.Now()
	if b := p.req.Cluster; b != nil {
		sh = newShadow(t.g.NumNodes())
		wrapped = &timedOracle{o: t.coord.Fork()}
		_, st, err := runClustering(ctx, wrapped, b, t.sharded())
		if err != nil {
			return err
		}
		r.rung, r.stats = ms(time.Since(t0)), st
		r.oracle = ms(wrapped.took)
		t.span(i, "core", r.rung)
	} else {
		if err := connCall(ctx, wrapped, p.req.Conn); err != nil {
			return err
		}
		// The whole call is conn-layer code: the adaptive driver's rounds
		// around the oracle belong to the conn layer too.
		r.rung = ms(time.Since(t0))
		r.oracle = r.rung
	}
	t.span(i, "conn", r.oracle)
	after := workerCounters(t.onWorkers)
	r.wReq, r.wWorlds = after.Requests-before.Requests, after.Worlds-before.Worlds
	r.wHit, r.wMiss = after.CacheHits-before.CacheHits, after.CacheMiss-before.CacheMiss
	r.wFail = after.Failures - before.Failures
	r.fabric = fabricDelta(t.coord.FabricStats(), fabric)
	r.wire = wireBytes(t.onWorkers) - wire

	// worldstore rung: the recorded calls' extensions, on the store.
	r.calls = len(wrapped.calls)
	for _, c := range wrapped.calls {
		r.centers += len(c.centers)
		if c.pair {
			t0 := time.Now()
			if _, err := t.store.EstimatePairCtx(ctx, c.centers[0], c.v, c.r); err != nil {
				return err
			}
			r.pair += ms(time.Since(t0))
			r.pairs++
			continue
		}
		ext, lookups, hits := sh.apply(c)
		r.lookups += lookups
		r.hits += hits
		if ext != nil {
			r.extWorlds += ext.worlds()
			r.ws += ms(replayExtension(t.store, t.g, t.seed, ext))
		}
	}
	t.span(i, "worldstore", r.ws+r.pair)

	if t.sharded() {
		local := conn.NewMonteCarlo(t.g, t.seed)
		t0 := time.Now()
		for _, c := range wrapped.calls {
			if err := replayCall(ctx, local, c); err != nil {
				return err
			}
		}
		r.local = ms(time.Since(t0))
		nc := t.offCoord.Fork()
		t0 = time.Now()
		for _, c := range wrapped.calls {
			if err := replayCall(ctx, nc, c); err != nil {
				return err
			}
		}
		r.nocache = ms(time.Since(t0))
		t.span(i, "shard-local", r.local)
		t.span(i, "shard-nocache", r.nocache)
	}
	return nil
}

// explainRung: the sharded request with "explain" on and off, against
// cache-off workers (the scanning path). The order alternates, so neither
// side always runs second.
func (t *tracer) explainRung(i int, p prepared) error {
	ex := *p.req.Cluster
	ex.Explain = true
	exp, err := prepare([]request{{Cluster: &ex}})
	if err != nil {
		return err
	}
	r := &t.reqs[i]
	if i%2 == 0 {
		r.plain = ms(do(t.eclient, t.explainD.url, p).latency)
		r.explain = ms(do(t.eclient, t.explainD.url, exp[0]).latency)
	} else {
		r.explain = ms(do(t.eclient, t.explainD.url, exp[0]).latency)
		r.plain = ms(do(t.eclient, t.explainD.url, p).latency)
	}
	t.span(i, "explain", r.explain)
	return nil
}
