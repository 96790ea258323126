package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/gmm"
	"ucgraph/internal/graph"
	"ucgraph/internal/knn"
	"ucgraph/internal/kpt"
	"ucgraph/internal/mcl"
	"ucgraph/internal/obs"
	"ucgraph/internal/shard"
)

// ---- /healthz, /statsz, /v1/graphs ------------------------------------

// healthPingTimeout bounds the shard pings one readiness probe spends.
const healthPingTimeout = 2 * time.Second

// handleHealthz reports liveness — and, in a sharded deployment,
// readiness: until every configured shard worker answers a ping (for
// every served graph, with matching graph identity), the daemon reports
// not_ready with a 503 so load balancers keep traffic away from a
// coordinator whose workers are still coming up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{
			"status":    "draining",
			"uptime_ms": time.Since(s.start).Milliseconds(),
			// Exclude this probe from the count the operator watches.
			"inflight": s.inflight.Load() - 1,
		})
		return
	}
	body := map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"graphs":    len(s.graphs),
	}
	if len(s.opts.Shards) > 0 {
		body["shards"] = len(s.opts.Shards)
		ctx, cancel := context.WithTimeout(r.Context(), healthPingTimeout)
		defer cancel()
		// All graphs ping concurrently (and each coordinator pings its
		// workers concurrently), so the probe costs one slowest
		// round-trip, not graphs x workers of them.
		errs := make([]error, len(s.names))
		var wg sync.WaitGroup
		for i, name := range s.names {
			wg.Add(1)
			go func(i int, h *graphHandle) {
				defer wg.Done()
				errs[i] = h.coord.Ping(ctx)
			}(i, s.graphs[name])
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			body["status"] = "not_ready"
			body["error"] = err.Error()
			s.writeJSONStatus(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	s.writeJSON(w, body)
}

// handleStatsz renders the stat tables over one snapshot of each source,
// with every graph's identity beside its store, fabric and worker blocks.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	graphs := make(map[string]any, len(s.graphs))
	for name, h := range s.graphs {
		gm := map[string]any{
			"nodes": h.g.NumNodes(),
			"edges": h.g.NumEdges(),
			"seed":  h.seed,
			"store": statsObject(storeTable, h.store.Stats()),
		}
		if h.coord.Sharded() {
			gm["shards"] = statsObjects(workerTable, h.coord.WorkerStats())
			gm["fabric"] = statsObject(fabricTable, h.coord.FabricStats())
		}
		graphs[name] = gm
	}
	body := statsObject(serverTable, s)
	body["graphs"] = graphs
	s.writeJSON(w, body)
}

// ---- /v1/shards ---------------------------------------------------------

// handleShardsGet reports the shard membership per graph: every worker's
// address, up/down/removed state and health counters, plus the fabric
// counters. On an unsharded daemon the lists are empty.
func (s *Server) handleShardsGet(w http.ResponseWriter, r *http.Request) {
	graphs := make(map[string]any, len(s.graphs))
	for name, h := range s.graphs {
		graphs[name] = map[string]any{
			"workers": statsObjects(workerTable, h.coord.WorkerStats()),
			"fabric":  statsObject(fabricTable, h.coord.FabricStats()),
		}
	}
	s.writeJSON(w, map[string]any{"graphs": graphs})
}

type shardsRequest struct {
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

// handleShardsPost changes the shard membership without a restart:
// "add" joins workers (every served graph's coordinator starts striping
// fresh world blocks to them; re-adding a removed address revives it),
// "remove" drains them (their blocks re-stripe to the survivors; requests
// already in flight fail over through the retry rounds). Because every
// worker must serve every configured graph, membership changes apply to
// all graphs at once, and only after the whole request is checked: a
// blank address (400) or an unknown one to remove (404) changes nothing.
// Estimates are unaffected — see the bit-identity invariant in
// docs/SHARD_PROTOCOL.md.
func (s *Server) handleShardsPost(w http.ResponseWriter, r *http.Request) {
	var req shardsRequest
	if e := decode(r, &req); e != nil {
		s.writeError(w, e)
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		s.writeError(w, badRequest("need \"add\" and/or \"remove\" worker addresses"))
		return
	}
	// A remove names a current worker of some graph, or one this request
	// adds (adds apply first).
	known := map[string]bool{}
	for _, name := range s.names {
		for _, addr := range s.graphs[name].coord.Workers() {
			known[addr] = true
		}
	}
	blank := badRequest("blank worker address")
	for _, addr := range req.Add {
		u := shard.NormalizeAddr(addr)
		if u == "" {
			s.writeError(w, blank)
			return
		}
		known[u] = true
	}
	for _, addr := range req.Remove {
		switch u := shard.NormalizeAddr(addr); {
		case u == "":
			s.writeError(w, blank)
			return
		case !known[u]:
			s.writeError(w, &apiError{http.StatusNotFound, fmt.Sprintf("unknown worker %q", addr)})
			return
		}
	}
	for _, name := range s.names {
		h := s.graphs[name]
		for _, addr := range req.Add {
			h.coord.AddWorker(addr)
		}
		for _, addr := range req.Remove {
			h.coord.RemoveWorker(addr)
		}
	}
	s.handleShardsGet(w, r)
}

type graphInfo struct {
	Name   string `json:"name"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	Seed   uint64 `json:"seed"`
	Worlds int    `json:"worlds"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	out := make([]graphInfo, 0, len(s.names))
	for _, name := range s.names {
		h := s.graphs[name]
		out = append(out, graphInfo{
			Name:   name,
			Nodes:  h.g.NumNodes(),
			Edges:  h.g.NumEdges(),
			Seed:   h.seed,
			Worlds: h.store.Worlds(),
		})
	}
	s.writeJSON(w, map[string]any{"graphs": out})
}

// ---- /v1/conn ----------------------------------------------------------

type connRequest struct {
	Graph   string  `json:"graph"`
	Source  *int32  `json:"source,omitempty"`
	Target  *int32  `json:"target,omitempty"`
	Centers []int32 `json:"centers,omitempty"`
	Targets []int32 `json:"targets,omitempty"`
	Depth   int     `json:"depth,omitempty"` // <= 0 means unlimited
	Samples int     `json:"samples,omitempty"`
	// Eps/Delta switch the request to confidence-target mode: stop as
	// soon as every estimate is within eps with confidence 1-delta,
	// consuming at most Samples worlds. Stream additionally turns the
	// response into SSE refinement frames (and implies the default
	// target when eps is omitted). See docs/API.md.
	Eps       float64 `json:"eps,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	Stream    bool    `json:"stream,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	// Explain returns the request's finished trace inline: a "trace"
	// field on the JSON response, or one trailing SSE frame after the
	// final estimate frame in streaming mode. The answer is unchanged.
	Explain bool `json:"explain,omitempty"`
}

// query is one fully validated estimating request: what the shared step
// list (serve) needs to admit, trace and answer it.
type query struct {
	h        *graphHandle
	endpoint string // the trace name
	// worlds x centers is the admission price (see requestCost). A query
	// with no world demand (worlds == 0) is neither priced nor gated.
	worlds, centers int
	timeoutMS       int64
	explain         bool
	stream          bool       // answer with SSE frames emitted by estimate
	job             string     // non-empty: run as an async job of this "algo"
	attrs           []obs.Attr // trace root attributes beyond graph and samples
	// estimate computes the answer under the "estimate" span and returns
	// the JSON body. A streaming query emits its frames through emit
	// instead and returns a nil body; emit is nil otherwise.
	estimate func(ctx context.Context, emit func(any) error) (map[string]any, error)
}

// endpoint serves one estimating endpoint: decode the JSON body, validate
// it into a query — every 400, and the 501 for a stream the transport
// cannot flush, is decided here, before admission charges anything — and
// run the shared step list.
func endpoint[T any](s *Server, parse func(*T) (query, *apiError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		e := decode(r, &req)
		var q query
		if e == nil {
			q, e = parse(&req)
		}
		if e == nil {
			e = checkTimeout(q.timeoutMS)
		}
		if _, ok := w.(http.Flusher); e == nil && q.stream && !ok {
			e = &apiError{http.StatusNotImplemented, "streaming unsupported by this transport"}
		}
		if e != nil {
			s.writeError(w, e)
			return
		}
		s.serve(w, r, q)
	}
}

// serve is the step list every estimating endpoint shares: cost
// admission, then either an async job (answered 202 at once) or, for
// the request itself, deadline, trace, admission gate, the estimate
// span, error mapping, and the answer — JSON (with the trace inline on
// "explain": true), or for a streaming query the SSE frames with one
// trailing trace frame on explain.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, q query) {
	release := func() {}
	if q.worlds > 0 {
		var e *apiError
		if release, e = s.admitCost(r, q.worlds, q.centers); e != nil {
			s.writeError(w, e)
			return
		}
	}
	if q.job != "" {
		// The job's deadline runs against the background context: the
		// client disconnects after the 202, the job keeps computing,
		// untraced, and holds its quota slot until it ends. It has no
		// response to stream to; clusterQuery rejects stream with async.
		ctx, cancel := s.deadline(context.Background(), q.timeoutMS)
		j := s.jobs.create(q.h.name, q.job, cancel)
		go func() {
			defer cancel()
			defer release()
			body, _, err := q.run(ctx, nil)
			j.finish(body, err)
			s.jobs.noteFinished(j.id)
		}()
		s.writeJSONStatus(w, http.StatusAccepted, j.view())
		return
	}
	defer release()
	ctx, cancel := s.deadline(r.Context(), q.timeoutMS)
	defer cancel()
	ctx, tr := s.startTrace(ctx, q.endpoint, q.h.name)
	defer s.finishTrace(tr)
	tr.Root().Set("samples", q.worlds)
	tr.Root().SetAll(q.attrs...)
	body, stream, err := q.run(ctx, w)
	switch {
	case err != nil && stream != nil:
		s.failures.Add(1)
		stream.errorFrame(estimationError(err))
	case err != nil:
		s.writeError(w, estimationError(err))
	case stream != nil:
		if q.explain {
			_ = stream.frame(map[string]any{"explain": true, "trace": explainView(tr)})
		}
	default:
		if q.explain {
			body["trace"] = explainView(tr)
		}
		s.writeJSON(w, body)
	}
}

// run is the gate-plus-estimate step of a request and of an async job:
// the graph's admission gate (skipped by a query with no world demand),
// then — for a streaming query — the switch of w to SSE, then the
// estimate under its span. A failure before the stream opens returns a
// nil stream, so the caller still answers with a status code.
func (q query) run(ctx context.Context, w http.ResponseWriter) (map[string]any, *sse, error) {
	if q.worlds > 0 {
		if err := q.h.admitTraced(ctx); err != nil {
			return nil, nil, err
		}
		defer q.h.release()
	}
	var stream *sse
	var emit func(any) error
	if q.stream {
		stream = startSSE(w)
		emit = stream.frame
	}
	ectx, fin := q.h.estimateSpan(ctx)
	body, err := q.estimate(ectx, emit)
	fin(err)
	return body, stream, err
}

// connQuery validates a connection-probability query: a pair query
// (source + target) or a batched multi-center query (centers, answered in
// one pass per world block through the shared FromCenters machinery —
// scattered across the shard workers when the daemon is the coordinator
// of a sharded deployment, with bit-identical results either way). Center
// queries go through the graph's long-lived estimator, so repeated
// centers across requests answer from cached tallies — when a cached
// tally already covers more worlds than requested, the higher-precision
// estimate is returned, exactly like the library's FromCenter. A pair is
// the center query {source} tracking {target}; only an unlimited-depth
// pair at a fixed budget scans its own pair tally instead.
func (s *Server) connQuery(req *connRequest) (query, *apiError) {
	h, e := s.handle(req.Graph)
	if e == nil {
		req.Samples, e = s.samples(req.Samples)
	}
	if e != nil {
		return query{}, e
	}
	depth := req.Depth
	if depth <= 0 {
		depth = conn.Unlimited
	}
	// Confidence-target mode? The request's sample budget caps the
	// adaptive run, so admission prices both modes identically.
	ad, e := parseAdaptive(req.Eps, req.Delta, req.Stream, req.Samples)
	if e != nil {
		return query{}, e
	}
	q := query{h: h, endpoint: "/v1/conn", worlds: req.Samples, timeoutMS: req.TimeoutMS, explain: req.Explain}
	var (
		centers, targets []graph.NodeID
		pair             func(p float64) map[string]any
		answer           func(ests [][]float64) map[string]any
	)
	switch {
	case len(req.Centers) > 0:
		for _, c := range req.Centers {
			if e := validNode(h, "centers", c); e != nil {
				return query{}, e
			}
		}
		for _, t := range req.Targets {
			if e := validNode(h, "targets", t); e != nil {
				return query{}, e
			}
		}
		centers, targets = req.Centers, req.Targets
		q.attrs = []obs.Attr{{Key: "kind", Value: "centers"}, {Key: "centers", Value: len(centers)}}
		answer = func(ests [][]float64) map[string]any {
			// Project each estimate vector onto the requested targets.
			return map[string]any{"centers": req.Centers, "targets": req.Targets, "estimates": project(ests, req.Targets)}
		}
	case req.Source != nil && req.Target != nil:
		if e := validNode(h, "source", *req.Source); e != nil {
			return query{}, e
		}
		if e := validNode(h, "target", *req.Target); e != nil {
			return query{}, e
		}
		centers, targets = []graph.NodeID{*req.Source}, []graph.NodeID{*req.Target}
		q.attrs = []obs.Attr{{Key: "kind", Value: "pair"}}
		pair = func(p float64) map[string]any {
			return map[string]any{"source": *req.Source, "target": *req.Target, "probability": p}
		}
		answer = func(ests [][]float64) map[string]any { return pair(ests[0][*req.Target]) }
	default:
		return query{}, badRequest("need either \"centers\" or both \"source\" and \"target\"")
	}
	q.centers = len(centers)
	if ad != nil {
		q.stream = ad.stream
		q.estimate = s.adaptiveConn(h, req.Depth, depth, centers, targets, ad, answer)
		return q, nil
	}
	q.estimate = func(ctx context.Context, _ func(any) error) (map[string]any, error) {
		var body map[string]any
		if pair != nil && depth == conn.Unlimited {
			p, err := h.coord.PairCtx(ctx, *req.Source, *req.Target, req.Samples)
			if err != nil {
				return nil, err
			}
			body = pair(p)
		} else {
			ests, err := h.coord.FromCentersCtx(ctx, centers, depth, req.Samples)
			if err != nil {
				return nil, err
			}
			body = answer(ests)
		}
		body["graph"], body["samples"], body["depth"] = h.name, req.Samples, req.Depth
		return body, nil
	}
	return q, nil
}

// ---- /v1/cluster and /v1/jobs ------------------------------------------

type clusterRequest struct {
	Graph     string  `json:"graph"`
	Algo      string  `json:"algo,omitempty"` // mcp (default), acp, mcl, gmm, kpt
	K         int     `json:"k,omitempty"`
	Depth     int     `json:"depth,omitempty"` // <= 0 means unlimited
	Alpha     int     `json:"alpha,omitempty"`
	Seed      uint64  `json:"seed,omitempty"` // driver seed (candidate selection)
	Inflation float64 `json:"inflation,omitempty"`
	Async     bool    `json:"async,omitempty"`
	// Eps/Delta switch MCP/ACP candidate scoring to confidence-target
	// racing (core.AdaptiveScoring): candidates whose score intervals
	// separate stop consuming worlds. Stream turns the response into SSE
	// progress frames, one per selected center, ending in the full
	// result. See docs/API.md.
	Eps       float64 `json:"eps,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	Stream    bool    `json:"stream,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	// Explain returns the run's finished trace inline (a "trace" field
	// on the response, or one trailing SSE frame when streaming).
	// Incompatible with async — poll jobs carry no trace.
	Explain bool `json:"explain,omitempty"`
}

// shardScoreChunk is the min-partial scoring batch size a sharded
// clustering run uses: larger than the in-process default because each
// batched FromCenters query costs a network scatter, so fewer, fatter
// batches amortize the round-trips. The chunk size never affects the
// clustering (see core.PartialParams.ScoreChunk).
const shardScoreChunk = 256

// clusterQuery validates a clustering request: synchronous, streamed
// (SSE progress frames, one per selected center, then the result), or —
// with "async": true — a job whose deadline is decoupled from the HTTP
// request, polled at GET /v1/jobs/{id} (DELETE cancels).
//
// MCP/ACP runs fork a PRIVATE estimator over the graph's long-lived
// coordinator: the expensive substrate (sampled worlds and their labels,
// local or on the shard workers) is amortized across all traffic, while
// the tally cache is per-run, so a clustering's result depends only on
// (graph, seed, request) — bit-identical to core.MCPCtx with a fresh
// conn.NewMonteCarlo(g, seed) — never on which center queries other
// clients happened to warm first. In a sharded deployment the fork keeps
// scattering to the same workers; only the cache is fresh. The
// deterministic baselines (mcl/gmm/kpt) sample no worlds, so their query
// demands none and serve neither prices nor gates them.
func (s *Server) clusterQuery(req *clusterRequest) (query, *apiError) {
	h, e := s.handle(req.Graph)
	if e != nil {
		return query{}, e
	}
	if req.Algo == "" {
		req.Algo = "mcp"
	}
	sampling := req.Algo == "mcp" || req.Algo == "acp"
	// Validate k and alpha up front so a client mistake reports as 400,
	// not as an estimation failure: MCP, ACP and GMM all need 1 <= k < n,
	// and MCP/ACP score alpha in [0, n] candidates per selection (0 is
	// the default 1, n every uncovered node).
	n := h.g.NumNodes()
	switch req.Algo {
	case "mcp", "acp", "gmm":
		if req.K < 1 || req.K >= n {
			return query{}, badRequest(fmt.Sprintf("\"k\" = %d out of range [1, %d)", req.K, n))
		}
	case "mcl", "kpt":
	default:
		return query{}, badRequest(fmt.Sprintf("unknown algorithm %q", req.Algo))
	}
	if sampling && (req.Alpha < 0 || req.Alpha > n) {
		return query{}, badRequest(fmt.Sprintf("\"alpha\" = %d out of range [0, %d]", req.Alpha, n))
	}
	if req.Eps != 0 || req.Delta != 0 {
		if !sampling {
			return query{}, badRequest(fmt.Sprintf("\"eps\"/\"delta\" apply to the sampling algorithms (mcp, acp), not %q", req.Algo))
		}
		// Reuse the conn-side validation and delta defaulting; the budget
		// for cluster scoring is schedule-driven, so only the target
		// matters here.
		ad, e := parseAdaptive(req.Eps, req.Delta, false, 0)
		if e != nil {
			return query{}, e
		}
		req.Eps, req.Delta = ad.params.Eps, ad.params.Delta
	}
	switch {
	case req.Stream && req.Async:
		return query{}, badRequest("\"stream\" and \"async\" are mutually exclusive: poll /v1/jobs for async runs")
	case req.Explain && req.Async:
		return query{}, badRequest("\"explain\" and \"async\" are mutually exclusive: traces attach to the request that ran the query")
	case req.Stream && !sampling:
		return query{}, badRequest(fmt.Sprintf("\"stream\" applies to the sampling algorithms (mcp, acp), not %q", req.Algo))
	}
	q := query{h: h, endpoint: "/v1/cluster", timeoutMS: req.TimeoutMS, explain: req.Explain, stream: req.Stream,
		attrs: []obs.Attr{{Key: "algo", Value: req.Algo}, {Key: "k", Value: req.K}}}
	if req.Async {
		q.job = req.Algo
	}
	if sampling {
		// A clustering's world demand is schedule-driven, so admission
		// prices it at the default sample budget per candidate center
		// scored: k selections of max(alpha, 1) candidates each.
		q.worlds, q.centers = s.opts.DefaultSamples, req.K*max(req.Alpha, 1)
	}
	depth := req.Depth
	if depth <= 0 {
		depth = conn.Unlimited
	}
	q.estimate = func(ctx context.Context, emit func(any) error) (map[string]any, error) {
		t0 := time.Now()
		var (
			cl    *core.Clustering
			stats map[string]any
			err   error
		)
		switch req.Algo {
		case "mcp", "acp":
			oracle := h.coord.Fork()
			opt := core.Options{Seed: req.Seed, Depth: depth, Alpha: req.Alpha}
			if oracle.Sharded() {
				opt.ScoreChunk = shardScoreChunk
			}
			if req.Eps > 0 {
				opt.Adaptive = &core.AdaptiveScoring{Eps: req.Eps, Delta: req.Delta}
			}
			if emit != nil {
				// A write error means the client left; its context then
				// cancels the run, so the frame is simply dropped.
				opt.Progress = func(ev core.ProgressEvent) {
					_ = emit(map[string]any{
						"graph": h.name, "algo": req.Algo,
						"centers": ev.Centers, "k": ev.K,
						"covered": ev.Covered, "nodes": ev.Nodes,
						"oracle_calls": ev.OracleCalls,
						"score_worlds": ev.ScoreWorlds,
						"final":        false,
					})
				}
			}
			run := core.MCPCtx
			if req.Algo == "acp" {
				run = core.ACPCtx
			}
			var st core.Stats
			cl, st, err = run(ctx, oracle, req.K, opt)
			stats = map[string]any{
				"invocations": st.Invocations, "oracle_calls": st.OracleCalls,
				"final_q": st.FinalQ, "max_samples": st.MaxSamples,
			}
		case "mcl":
			if err = ctx.Err(); err == nil {
				cl = mcl.Cluster(h.g, mcl.Options{Inflation: req.Inflation}).Clustering
			}
		case "gmm":
			if err = ctx.Err(); err == nil {
				cl, err = gmm.Cluster(h.g, req.K, req.Seed)
			}
		case "kpt":
			if err = ctx.Err(); err == nil {
				cl = kpt.Cluster(h.g, req.Seed)
			}
		}
		if err != nil {
			return nil, err
		}
		body := map[string]any{
			"graph": h.name, "algo": req.Algo, "k": cl.K(),
			"centers": cl.Centers, "assign": cl.Assign, "prob": cl.Prob,
			"covered": cl.Covered(), "min_prob": cl.MinProb(), "avg_prob": cl.AvgProb(),
			"elapsed_ms": time.Since(t0).Milliseconds(),
		}
		if stats != nil {
			body["stats"] = stats
		}
		if emit != nil {
			return nil, emit(map[string]any{"final": true, "result": body})
		}
		return body, nil
	}
	return q, nil
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &apiError{http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return
	}
	s.writeJSON(w, j.view())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &apiError{http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return
	}
	j.cancel()
	s.writeJSON(w, j.view())
}

// ---- /v1/knn -----------------------------------------------------------

type knnRequest struct {
	Graph     string `json:"graph"`
	Source    int32  `json:"source"`
	K         int    `json:"k,omitempty"`
	Measure   string `json:"measure,omitempty"` // median (default), majority, expected, reliability
	Samples   int    `json:"samples,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

type neighborView struct {
	Node        int32   `json:"node"`
	Distance    int32   `json:"distance"` // knn.Infinite (2^31-1) marks "unreachable"
	Reliability float64 `json:"reliability"`
}

func (s *Server) knnQuery(req *knnRequest) (query, *apiError) {
	h, e := s.handle(req.Graph)
	if e != nil {
		return query{}, e
	}
	if e := validNode(h, "source", req.Source); e != nil {
		return query{}, e
	}
	var measure knn.Measure
	switch req.Measure {
	case "", "median":
		measure = knn.MedianDistance
	case "majority":
		measure = knn.MajorityDistance
	case "expected":
		measure = knn.ExpectedReliableDistance
	case "reliability":
		measure = knn.ByReliability
	default:
		return query{}, badRequest(fmt.Sprintf("unknown measure %q", req.Measure))
	}
	if req.K <= 0 {
		req.K = 10
	}
	samples, e := s.samples(req.Samples)
	if e != nil {
		return query{}, e
	}
	return query{h: h, endpoint: "/v1/knn", worlds: samples, centers: 1, timeoutMS: req.TimeoutMS,
		estimate: func(ctx context.Context, _ func(any) error) (map[string]any, error) {
			// The coordinator scatters the distance tallies to the shard
			// workers when configured, and tallies the local store
			// otherwise — identical distributions either way.
			dd, err := h.coord.DistancesCtx(ctx, req.Source, samples)
			if err != nil {
				return nil, err
			}
			nbs := dd.KNN(req.K, measure)
			out := make([]neighborView, len(nbs))
			for i, nb := range nbs {
				out[i] = neighborView{Node: nb.Node, Distance: nb.Distance, Reliability: nb.Reliability}
			}
			return map[string]any{
				"graph":     h.name,
				"source":    req.Source,
				"measure":   req.Measure,
				"samples":   samples,
				"neighbors": out,
			}, nil
		}}, nil
}

// ---- /v1/influence -----------------------------------------------------

type influenceRequest struct {
	Graph     string  `json:"graph"`
	K         int     `json:"k,omitempty"`     // greedy maximization when seeds omitted
	Seeds     []int32 `json:"seeds,omitempty"` // spread evaluation of a fixed seed set
	Samples   int     `json:"samples,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

func (s *Server) influenceQuery(req *influenceRequest) (query, *apiError) {
	h, e := s.handle(req.Graph)
	if e != nil {
		return query{}, e
	}
	samples, e := s.samples(req.Samples)
	if e != nil {
		return query{}, e
	}
	for _, sd := range req.Seeds {
		if e := validNode(h, "seeds", sd); e != nil {
			return query{}, e
		}
	}
	q := query{h: h, endpoint: "/v1/influence", worlds: samples, centers: 1, timeoutMS: req.TimeoutMS}
	if len(req.Seeds) > 0 {
		q.attrs = []obs.Attr{{Key: "kind", Value: "spread"}}
		q.estimate = func(ctx context.Context, _ func(any) error) (map[string]any, error) {
			spread, err := h.coord.SpreadCtx(ctx, req.Seeds, samples)
			if err != nil {
				return nil, err
			}
			return map[string]any{
				"graph": h.name, "samples": samples,
				"seeds": req.Seeds, "spread": spread,
			}, nil
		}
		return q, nil
	}
	if req.K <= 0 {
		return query{}, badRequest("need \"k\" (greedy maximization) or \"seeds\" (spread evaluation)")
	}
	if n := h.g.NumNodes(); req.K > n {
		return query{}, badRequest(fmt.Sprintf("\"k\" = %d out of range [1, %d]", req.K, n))
	}
	// A spread evaluation drives one seed set; greedy maximization drives
	// k of them.
	q.centers = req.K
	q.attrs = []obs.Attr{{Key: "kind", Value: "greedy"}, {Key: "k", Value: req.K}}
	q.estimate = func(ctx context.Context, _ func(any) error) (map[string]any, error) {
		// Greedy maximization fans its marginal-gain tallies out to the
		// shard workers when configured (see shard.Coordinator.GreedyCtx).
		res, err := h.coord.GreedyCtx(ctx, req.K, samples)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"graph": h.name, "samples": samples,
			"seeds": res.Seeds, "spread": res.Spread, "evaluations": res.Evaluations,
		}, nil
	}
	return q, nil
}

// ---- /v1/reliability ---------------------------------------------------

type reliabilityRequest struct {
	Graph     string  `json:"graph"`
	Kind      string  `json:"kind,omitempty"` // set, all_terminal, components, largest_component
	Set       []int32 `json:"set,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

func (s *Server) reliabilityQuery(req *reliabilityRequest) (query, *apiError) {
	h, e := s.handle(req.Graph)
	if e != nil {
		return query{}, e
	}
	samples, e := s.samples(req.Samples)
	if e != nil {
		return query{}, e
	}
	for _, u := range req.Set {
		if e := validNode(h, "set", u); e != nil {
			return query{}, e
		}
	}
	// Every kind routes through the coordinator: scattered to the shard
	// workers as integer tallies when the daemon coordinates a sharded
	// deployment, computed on the local store otherwise — bit-identical to
	// the metrics package either way.
	var value func(ctx context.Context) (float64, error)
	switch req.Kind {
	case "set":
		if len(req.Set) == 0 {
			return query{}, badRequest("kind \"set\" needs a non-empty \"set\"")
		}
		value = func(ctx context.Context) (float64, error) { return h.coord.SetReliabilityCtx(ctx, req.Set, samples) }
	case "", "all_terminal":
		value = func(ctx context.Context) (float64, error) { return h.coord.AllTerminalReliabilityCtx(ctx, samples) }
	case "components":
		value = func(ctx context.Context) (float64, error) { return h.coord.ExpectedComponentsCtx(ctx, samples) }
	case "largest_component":
		value = func(ctx context.Context) (float64, error) { return h.coord.LargestComponentFractionCtx(ctx, samples) }
	default:
		return query{}, badRequest(fmt.Sprintf("unknown kind %q", req.Kind))
	}
	return query{h: h, endpoint: "/v1/reliability", worlds: samples, centers: 1, timeoutMS: req.TimeoutMS,
		attrs: []obs.Attr{{Key: "kind", Value: req.Kind}},
		estimate: func(ctx context.Context, _ func(any) error) (map[string]any, error) {
			v, err := value(ctx)
			if err != nil {
				return nil, err
			}
			return map[string]any{"graph": h.name, "kind": req.Kind, "samples": samples, "value": v}, nil
		}}, nil
}
