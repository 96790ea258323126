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

// storeStats mirrors worldstore.Stats with stable JSON names.
type storeStats struct {
	Worlds               int    `json:"worlds"`
	ResidentBlocks       int    `json:"resident_blocks"`
	ResidentLabelBlocks  int    `json:"resident_label_blocks"`
	ResidentBitmapBlocks int    `json:"resident_bitmap_blocks"`
	ResidentBytes        int64  `json:"resident_bytes"`
	BlockWorlds          int    `json:"block_worlds"`
	Hits                 uint64 `json:"hits"`
	Materializations     uint64 `json:"materializations"`
	Recomputes           uint64 `json:"recomputes"`
	ColdRecomputes       uint64 `json:"cold_recomputes"`
	PostSpillRecomputes  uint64 `json:"post_spill_recomputes"`
	Evictions            uint64 `json:"evictions"`
	DiskHits             uint64 `json:"disk_hits"`
	DiskBytes            int64  `json:"disk_bytes"`
	SpillWrites          uint64 `json:"spill_writes"`
	CorruptDropped       uint64 `json:"corrupt_dropped"`
	AccumWorlds          uint64 `json:"accum_worlds"`
	AccumFlushes         uint64 `json:"accum_flushes"`
	DirectWorlds         uint64 `json:"direct_worlds"`
	CacheDir             string `json:"cache_dir,omitempty"`
}

func (h *graphHandle) storeStats() storeStats {
	st := h.store.Stats()
	return storeStats{
		Worlds:               st.Worlds,
		ResidentBlocks:       st.ResidentBlocks,
		ResidentLabelBlocks:  st.ResidentLabelBlocks,
		ResidentBitmapBlocks: st.ResidentBitmapBlocks,
		ResidentBytes:        st.ResidentBytes,
		BlockWorlds:          st.BlockWorlds,
		Hits:                 st.Hits,
		Materializations:     st.Materializations,
		Recomputes:           st.Recomputes,
		ColdRecomputes:       st.ColdRecomputes,
		PostSpillRecomputes:  st.PostSpillRecomputes,
		Evictions:            st.Evictions,
		DiskHits:             st.DiskHits,
		DiskBytes:            st.DiskBytes,
		SpillWrites:          st.SpillWrites,
		CorruptDropped:       st.CorruptDropped,
		AccumWorlds:          st.AccumWorlds,
		AccumFlushes:         st.AccumFlushes,
		DirectWorlds:         st.DirectWorlds,
		CacheDir:             st.CacheDir,
	}
}

// shardStats mirrors shard.WorkerStats with stable JSON names — the
// per-graph shard health block of /statsz.
type shardStats struct {
	Addr             string `json:"addr"`
	State            string `json:"state"`
	Requests         uint64 `json:"requests"`
	Failures         uint64 `json:"failures"`
	Duplicates       uint64 `json:"duplicates"`
	RangesServed     uint64 `json:"ranges_served"`
	WorldsServed     uint64 `json:"worlds_served"`
	BreakerTrips     uint64 `json:"breaker_trips,omitempty"`
	BreakerOpen      bool   `json:"breaker_open,omitempty"`
	IntegrityRejects uint64 `json:"integrity_rejects,omitempty"`
	LastRTTMS        int64  `json:"last_rtt_ms"`
	LastOKMS         int64  `json:"last_ok_unix_ms,omitempty"`
	LastErr          string `json:"last_err,omitempty"`
}

func (h *graphHandle) shardStats() []shardStats {
	ws := h.coord.WorkerStats()
	out := make([]shardStats, len(ws))
	for i, st := range ws {
		out[i] = shardStats{
			Addr:             st.Addr,
			State:            st.State,
			Requests:         st.Requests,
			Failures:         st.Failures,
			Duplicates:       st.Duplicates,
			RangesServed:     st.RangesServed,
			WorldsServed:     st.WorldsServed,
			BreakerTrips:     st.BreakerTrips,
			BreakerOpen:      st.BreakerOpen,
			IntegrityRejects: st.IntegrityRejects,
			LastRTTMS:        st.LastRTT.Milliseconds(),
			LastErr:          st.LastErr,
		}
		if !st.LastOK.IsZero() {
			out[i].LastOKMS = st.LastOK.UnixMilli()
		}
	}
	return out
}

// fabricStats mirrors shard.FabricStats — coordinator-wide hedging and
// re-scatter counters for one graph.
type fabricStats struct {
	Hedges           uint64 `json:"hedges"`
	Duplicates       uint64 `json:"duplicates"`
	Rescatters       uint64 `json:"rescatters"`
	BreakerTrips     uint64 `json:"breaker_trips"`
	Quarantines      uint64 `json:"quarantines"`
	IntegrityRejects uint64 `json:"integrity_rejects"`
	Audits           uint64 `json:"audits"`
	AuditDivergences uint64 `json:"audit_divergences"`
}

func (h *graphHandle) fabricStats() fabricStats {
	fs := h.coord.FabricStats()
	return fabricStats{
		Hedges:           fs.Hedges,
		Duplicates:       fs.Duplicates,
		Rescatters:       fs.Rescatters,
		BreakerTrips:     fs.BreakerTrips,
		Quarantines:      fs.Quarantines,
		IntegrityRejects: fs.IntegrityRejects,
		Audits:           fs.Audits,
		AuditDivergences: fs.AuditDivergences,
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	graphs := make(map[string]any, len(s.graphs))
	for name, h := range s.graphs {
		gm := map[string]any{
			"nodes": h.g.NumNodes(),
			"edges": h.g.NumEdges(),
			"seed":  h.seed,
			"store": h.storeStats(),
		}
		if h.coord.Sharded() {
			gm["shards"] = h.shardStats()
			gm["fabric"] = h.fabricStats()
		}
		graphs[name] = gm
	}
	s.writeJSON(w, map[string]any{
		"uptime_ms":        time.Since(s.start).Milliseconds(),
		"build":            obs.BuildInfo(),
		"draining":         s.draining.Load(),
		"requests":         s.requests.Load(),
		"failures":         s.failures.Load(),
		"adaptive_queries": s.adaptiveQueries.Load(),
		"worlds_saved":     s.worldsSaved.Load(),
		"jobs":             s.jobs.counts(),
		"graphs":           graphs,
	})
}

// ---- /v1/shards ---------------------------------------------------------

// handleShardsGet reports the shard membership per graph: every worker's
// address, up/down/removed state and health counters, plus the fabric
// counters. On an unsharded daemon the lists are empty.
func (s *Server) handleShardsGet(w http.ResponseWriter, r *http.Request) {
	graphs := make(map[string]any, len(s.graphs))
	for name, h := range s.graphs {
		graphs[name] = map[string]any{
			"workers": h.shardStats(),
			"fabric":  h.fabricStats(),
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
// all graphs at once. Estimates are unaffected — see the bit-identity
// invariant in docs/SHARD_PROTOCOL.md.
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
	removed := make(map[string]bool, len(req.Remove))
	for _, name := range s.names {
		h := s.graphs[name]
		for _, addr := range req.Add {
			h.coord.AddWorker(addr)
		}
		for _, addr := range req.Remove {
			if h.coord.RemoveWorker(addr) {
				removed[addr] = true
			}
		}
	}
	for _, addr := range req.Remove {
		if !removed[addr] {
			s.writeError(w, &apiError{http.StatusNotFound, fmt.Sprintf("unknown worker %q", addr)})
			return
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

// handleConn answers connection-probability queries: a pair query
// (source + target) or a batched multi-center query (centers, answered in
// one pass per world block through the shared FromCenters machinery —
// scattered across the shard workers when the daemon is the coordinator
// of a sharded deployment, with bit-identical results either way).
// Center queries go through the graph's long-lived estimator, so repeated
// centers across requests answer from cached tallies — when a cached tally
// already covers more worlds than requested, the higher-precision estimate
// is returned, exactly like the library's FromCenter.
func (s *Server) handleConn(w http.ResponseWriter, r *http.Request) {
	var req connRequest
	if e := decode(r, &req); e != nil {
		s.writeError(w, e)
		return
	}
	h, e := s.handle(req.Graph)
	if e == nil {
		var r2 int
		if r2, e = s.samples(req.Samples); e == nil {
			req.Samples = r2
		}
	}
	if e != nil {
		s.writeError(w, e)
		return
	}
	depth := req.Depth
	if depth <= 0 {
		depth = conn.Unlimited
	}
	// Confidence-target mode? The request's sample budget caps the
	// adaptive run, so admission prices both modes identically.
	ad, e := parseAdaptive(req.Eps, req.Delta, req.Stream, req.Samples)
	if e != nil {
		s.writeError(w, e)
		return
	}

	switch {
	case len(req.Centers) > 0:
		for _, c := range req.Centers {
			if e := validNode(h, "centers", c); e != nil {
				s.writeError(w, e)
				return
			}
		}
		for _, t := range req.Targets {
			if e := validNode(h, "targets", t); e != nil {
				s.writeError(w, e)
				return
			}
		}
		release, e := s.admitCost(r, req.Samples, len(req.Centers))
		if e != nil {
			s.writeError(w, e)
			return
		}
		defer release()
		ctx, cancel, e := s.deadline(r.Context(), req.TimeoutMS)
		if e != nil {
			s.writeError(w, e)
			return
		}
		defer cancel()
		ctx, tr := s.startTrace(ctx, "/v1/conn", h.name)
		defer s.finishTrace(tr)
		tr.Root().Set("kind", "centers")
		tr.Root().Set("centers", len(req.Centers))
		tr.Root().Set("samples", req.Samples)
		if err := h.admitTraced(ctx); err != nil {
			s.writeError(w, estimationError(err))
			return
		}
		defer h.release()
		if ad != nil {
			s.adaptiveConnCenters(ctx, w, h, req, depth, ad)
			return
		}
		ectx, fin := h.estimateSpan(ctx)
		ests, err := h.coord.FromCentersCtx(ectx, req.Centers, depth, req.Samples)
		fin(err)
		if err != nil {
			s.writeError(w, estimationError(err))
			return
		}
		// Project each estimate vector onto the requested targets.
		ests = project(ests, req.Targets)
		body := map[string]any{
			"graph":     h.name,
			"samples":   req.Samples,
			"depth":     req.Depth,
			"centers":   req.Centers,
			"targets":   req.Targets,
			"estimates": ests,
		}
		if req.Explain {
			body["trace"] = explainView(tr)
		}
		s.writeJSON(w, body)

	case req.Source != nil && req.Target != nil:
		if e := validNode(h, "source", *req.Source); e != nil {
			s.writeError(w, e)
			return
		}
		if e := validNode(h, "target", *req.Target); e != nil {
			s.writeError(w, e)
			return
		}
		release, e := s.admitCost(r, req.Samples, 1)
		if e != nil {
			s.writeError(w, e)
			return
		}
		defer release()
		ctx, cancel, e := s.deadline(r.Context(), req.TimeoutMS)
		if e != nil {
			s.writeError(w, e)
			return
		}
		defer cancel()
		ctx, tr := s.startTrace(ctx, "/v1/conn", h.name)
		defer s.finishTrace(tr)
		tr.Root().Set("kind", "pair")
		tr.Root().Set("samples", req.Samples)
		if err := h.admitTraced(ctx); err != nil {
			s.writeError(w, estimationError(err))
			return
		}
		defer h.release()
		if ad != nil {
			s.adaptiveConnPair(ctx, w, h, req, depth, ad)
			return
		}
		ectx, fin := h.estimateSpan(ctx)
		var p float64
		var err error
		if depth == conn.Unlimited {
			p, err = h.coord.PairCtx(ectx, *req.Source, *req.Target, req.Samples)
		} else {
			// Depth-limited pairs route through the cached center tallies.
			var est []float64
			est, err = h.coord.FromCenterCtx(ectx, *req.Source, depth, req.Samples)
			if err == nil {
				p = est[*req.Target]
			}
		}
		fin(err)
		if err != nil {
			s.writeError(w, estimationError(err))
			return
		}
		body := map[string]any{
			"graph":       h.name,
			"samples":     req.Samples,
			"depth":       req.Depth,
			"source":      *req.Source,
			"target":      *req.Target,
			"probability": p,
		}
		if req.Explain {
			body["trace"] = explainView(tr)
		}
		s.writeJSON(w, body)

	default:
		s.writeError(w, badRequest("need either \"centers\" or both \"source\" and \"target\""))
	}
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
	Samples   int     `json:"samples,omitempty"` // unused by mcp/acp (schedule-driven); reserved
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
	// on the response, or on the final SSE frame when streaming).
	// Incompatible with async — poll jobs carry no trace.
	Explain bool `json:"explain,omitempty"`
}

type clusterStats struct {
	Invocations int     `json:"invocations"`
	OracleCalls int     `json:"oracle_calls"`
	FinalQ      float64 `json:"final_q"`
	MaxSamples  int     `json:"max_samples"`
}

type clusterResponse struct {
	Graph     string        `json:"graph"`
	Algo      string        `json:"algo"`
	K         int           `json:"k"`
	Centers   []int32       `json:"centers"`
	Assign    []int32       `json:"assign"`
	Prob      []float64     `json:"prob"`
	Covered   int           `json:"covered"`
	MinProb   float64       `json:"min_prob"`
	AvgProb   float64       `json:"avg_prob"`
	ElapsedMS int64         `json:"elapsed_ms"`
	Stats     *clusterStats `json:"stats,omitempty"`
	// Trace is the run's finished trace when the request asked for
	// "explain": true; omitted otherwise.
	Trace *obs.TraceView `json:"trace,omitempty"`
}

// handleCluster runs a clustering synchronously, or — with "async": true —
// as a job whose deadline is decoupled from the HTTP request, for runs
// longer than a client wants to block on. Async responses carry the job ID
// to poll at GET /v1/jobs/{id} (DELETE cancels).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req clusterRequest
	if e := decode(r, &req); e != nil {
		s.writeError(w, e)
		return
	}
	h, e := s.handle(req.Graph)
	if e != nil {
		s.writeError(w, e)
		return
	}
	switch req.Algo {
	case "", "mcp", "acp", "gmm", "mcl", "kpt":
	default:
		s.writeError(w, badRequest(fmt.Sprintf("unknown algorithm %q", req.Algo)))
		return
	}
	if req.Algo == "" {
		req.Algo = "mcp"
	}
	// Validate k up front so a client mistake reports as 400, not as an
	// estimation failure. MCP/ACP need 1 <= k < n; GMM allows k = n.
	switch n := h.g.NumNodes(); req.Algo {
	case "mcp", "acp":
		if req.K < 1 || req.K >= n {
			s.writeError(w, badRequest(fmt.Sprintf("\"k\" = %d out of range [1, %d)", req.K, n)))
			return
		}
	case "gmm":
		if req.K < 1 || req.K > n {
			s.writeError(w, badRequest(fmt.Sprintf("\"k\" = %d out of range [1, %d]", req.K, n)))
			return
		}
	}
	if req.TimeoutMS < 0 {
		s.writeError(w, badRequest("\"timeout_ms\" must be positive"))
		return
	}
	if req.Eps != 0 || req.Delta != 0 {
		if req.Algo != "mcp" && req.Algo != "acp" {
			s.writeError(w, badRequest(fmt.Sprintf("\"eps\"/\"delta\" apply to the sampling algorithms (mcp, acp), not %q", req.Algo)))
			return
		}
		// Reuse the conn-side validation and delta defaulting; the budget
		// for cluster scoring is schedule-driven, so only the target
		// matters here.
		ad, e := parseAdaptive(req.Eps, req.Delta, false, 0)
		if e != nil {
			s.writeError(w, e)
			return
		}
		req.Eps, req.Delta = ad.params.Eps, ad.params.Delta
	}
	if req.Stream && req.Async {
		s.writeError(w, badRequest("\"stream\" and \"async\" are mutually exclusive: poll /v1/jobs for async runs"))
		return
	}
	if req.Explain && req.Async {
		s.writeError(w, badRequest("\"explain\" and \"async\" are mutually exclusive: traces attach to the request that ran the query"))
		return
	}
	if req.Stream && req.Algo != "mcp" && req.Algo != "acp" {
		s.writeError(w, badRequest(fmt.Sprintf("\"stream\" applies to the sampling algorithms (mcp, acp), not %q", req.Algo)))
		return
	}

	// Cost-based admission: a clustering's world demand is schedule-driven,
	// so price it at the default sample budget per center driven. An async
	// job holds its client-quota slot until the job finishes, not until
	// the 202 goes out.
	release := func() {}
	if req.Algo == "mcp" || req.Algo == "acp" {
		var e *apiError
		if release, e = s.admitCost(r, s.opts.DefaultSamples, req.K); e != nil {
			s.writeError(w, e)
			return
		}
	}

	if req.Async {
		// The job's deadline runs against the background context: the
		// client disconnects after the 202, the job keeps computing.
		ctx, cancel, e := s.deadline(context.Background(), req.TimeoutMS)
		if e != nil {
			release()
			s.writeError(w, e)
			return
		}
		j := s.jobs.create(h.name, req.Algo, cancel)
		go func() {
			defer cancel()
			defer release()
			res, err := s.runCluster(ctx, h, req, nil)
			j.finish(res, err)
			s.jobs.noteFinished(j.id)
		}()
		s.writeJSONStatus(w, http.StatusAccepted, j.view())
		return
	}
	defer release()

	ctx, cancel, e := s.deadline(r.Context(), req.TimeoutMS)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer cancel()
	ctx, tr := s.startTrace(ctx, "/v1/cluster", h.name)
	defer s.finishTrace(tr)
	tr.Root().Set("algo", req.Algo)
	tr.Root().Set("k", req.K)
	if req.Stream {
		s.streamCluster(ctx, w, h, req)
		return
	}
	res, err := s.runCluster(ctx, h, req, nil)
	if err != nil {
		s.writeError(w, estimationError(err))
		return
	}
	if req.Explain {
		v := explainView(tr)
		res.Trace = &v
	}
	s.writeJSON(w, res)
}

// shardScoreChunk is the min-partial scoring batch size a sharded
// clustering run uses: larger than the in-process default because each
// batched FromCenters query costs a network scatter, so fewer, fatter
// batches amortize the round-trips. The chunk size never affects the
// clustering (see core.PartialParams.ScoreChunk).
const shardScoreChunk = 256

// runCluster executes one clustering request under the admission gate.
//
// MCP/ACP runs fork a PRIVATE estimator over the graph's long-lived
// coordinator: the expensive substrate (sampled worlds and their labels,
// local or on the shard workers) is amortized across all traffic, while
// the tally cache is per-run, so a clustering's result depends only on
// (graph, seed, request) — bit-identical to core.MCPCtx with a fresh
// conn.NewMonteCarlo(g, seed) — never on which center queries other
// clients happened to warm first. In a sharded deployment the fork keeps
// scattering to the same workers; only the cache is fresh.
func (s *Server) runCluster(ctx context.Context, h *graphHandle, req clusterRequest, progress func(core.ProgressEvent)) (*clusterResponse, error) {
	// Only the sampling algorithms drive world materialization; the
	// deterministic baselines (mcl/gmm/kpt) never touch the store, so they
	// bypass the admission gate instead of occupying the slots it reserves
	// for store traffic.
	if req.Algo == "mcp" || req.Algo == "acp" {
		if err := h.admitTraced(ctx); err != nil {
			return nil, err
		}
		defer h.release()
	}

	depth := req.Depth
	if depth <= 0 {
		depth = conn.Unlimited
	}
	t0 := time.Now()
	ctx, fin := h.estimateSpan(ctx)
	var (
		cl  *core.Clustering
		st  *clusterStats
		err error
	)
	switch req.Algo {
	case "mcp", "acp":
		oracle := h.coord.Fork()
		opt := core.Options{
			Seed: req.Seed, Depth: depth, Alpha: req.Alpha,
			Parallelism: s.opts.Parallelism,
			Progress:    progress,
		}
		if oracle.Sharded() {
			opt.ScoreChunk = shardScoreChunk
		}
		if req.Eps > 0 {
			opt.Adaptive = &core.AdaptiveScoring{Eps: req.Eps, Delta: req.Delta}
		}
		var cst core.Stats
		if req.Algo == "acp" {
			cl, cst, err = core.ACPCtx(ctx, oracle, req.K, opt)
		} else {
			cl, cst, err = core.MCPCtx(ctx, oracle, req.K, opt)
		}
		st = &clusterStats{
			Invocations: cst.Invocations,
			OracleCalls: cst.OracleCalls,
			FinalQ:      cst.FinalQ,
			MaxSamples:  cst.MaxSamples,
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
	fin(err)
	if err != nil {
		return nil, err
	}
	return &clusterResponse{
		Graph:     h.name,
		Algo:      req.Algo,
		K:         cl.K(),
		Centers:   cl.Centers,
		Assign:    cl.Assign,
		Prob:      cl.Prob,
		Covered:   cl.Covered(),
		MinProb:   cl.MinProb(),
		AvgProb:   cl.AvgProb(),
		ElapsedMS: time.Since(t0).Milliseconds(),
		Stats:     st,
	}, nil
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

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req knnRequest
	if e := decode(r, &req); e != nil {
		s.writeError(w, e)
		return
	}
	h, e := s.handle(req.Graph)
	if e != nil {
		s.writeError(w, e)
		return
	}
	if e := validNode(h, "source", req.Source); e != nil {
		s.writeError(w, e)
		return
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
		s.writeError(w, badRequest(fmt.Sprintf("unknown measure %q", req.Measure)))
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	samples, e := s.samples(req.Samples)
	if e != nil {
		s.writeError(w, e)
		return
	}
	release, e := s.admitCost(r, samples, 1)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer release()
	ctx, cancel, e := s.deadline(r.Context(), req.TimeoutMS)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer cancel()
	if err := h.admit(ctx); err != nil {
		s.writeError(w, estimationError(err))
		return
	}
	defer h.release()
	// The coordinator scatters the distance tallies to the shard workers
	// when configured, and runs knn.SampleStoreCtx on the local store
	// otherwise — identical distributions either way.
	dd, err := h.coord.DistancesCtx(ctx, req.Source, samples)
	if err != nil {
		s.writeError(w, estimationError(err))
		return
	}
	nbs := dd.KNN(req.K, measure)
	out := make([]neighborView, len(nbs))
	for i, nb := range nbs {
		out[i] = neighborView{Node: nb.Node, Distance: nb.Distance, Reliability: nb.Reliability}
	}
	s.writeJSON(w, map[string]any{
		"graph":     h.name,
		"source":    req.Source,
		"measure":   req.Measure,
		"samples":   samples,
		"neighbors": out,
	})
}

// ---- /v1/influence -----------------------------------------------------

type influenceRequest struct {
	Graph     string  `json:"graph"`
	K         int     `json:"k,omitempty"`     // greedy maximization when seeds omitted
	Seeds     []int32 `json:"seeds,omitempty"` // spread evaluation of a fixed seed set
	Samples   int     `json:"samples,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

func (s *Server) handleInfluence(w http.ResponseWriter, r *http.Request) {
	var req influenceRequest
	if e := decode(r, &req); e != nil {
		s.writeError(w, e)
		return
	}
	h, e := s.handle(req.Graph)
	if e != nil {
		s.writeError(w, e)
		return
	}
	samples, e := s.samples(req.Samples)
	if e != nil {
		s.writeError(w, e)
		return
	}
	for _, sd := range req.Seeds {
		if e := validNode(h, "seeds", sd); e != nil {
			s.writeError(w, e)
			return
		}
	}
	// A spread evaluation drives one seed set; greedy maximization drives
	// k of them.
	centers := 1
	if len(req.Seeds) == 0 {
		if req.K <= 0 {
			s.writeError(w, badRequest("need \"k\" (greedy maximization) or \"seeds\" (spread evaluation)"))
			return
		}
		centers = req.K
	}
	release, e := s.admitCost(r, samples, centers)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer release()
	ctx, cancel, e := s.deadline(r.Context(), req.TimeoutMS)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer cancel()
	if err := h.admit(ctx); err != nil {
		s.writeError(w, estimationError(err))
		return
	}
	defer h.release()

	if len(req.Seeds) > 0 {
		spread, err := h.coord.SpreadCtx(ctx, req.Seeds, samples)
		if err != nil {
			s.writeError(w, estimationError(err))
			return
		}
		s.writeJSON(w, map[string]any{
			"graph": h.name, "samples": samples,
			"seeds": req.Seeds, "spread": spread,
		})
		return
	}
	// Greedy maximization fans its marginal-gain tallies out to the shard
	// workers when configured (see shard.Coordinator.GreedyCtx).
	res, err := h.coord.GreedyCtx(ctx, req.K, samples)
	if err != nil {
		s.writeError(w, estimationError(err))
		return
	}
	s.writeJSON(w, map[string]any{
		"graph": h.name, "samples": samples,
		"seeds": res.Seeds, "spread": res.Spread, "evaluations": res.Evaluations,
	})
}

// ---- /v1/reliability ---------------------------------------------------

type reliabilityRequest struct {
	Graph     string  `json:"graph"`
	Kind      string  `json:"kind,omitempty"` // set, all_terminal, components, largest_component
	Set       []int32 `json:"set,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

func (s *Server) handleReliability(w http.ResponseWriter, r *http.Request) {
	var req reliabilityRequest
	if e := decode(r, &req); e != nil {
		s.writeError(w, e)
		return
	}
	h, e := s.handle(req.Graph)
	if e != nil {
		s.writeError(w, e)
		return
	}
	samples, e := s.samples(req.Samples)
	if e != nil {
		s.writeError(w, e)
		return
	}
	for _, u := range req.Set {
		if e := validNode(h, "set", u); e != nil {
			s.writeError(w, e)
			return
		}
	}
	release, e := s.admitCost(r, samples, 1)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer release()
	ctx, cancel, e := s.deadline(r.Context(), req.TimeoutMS)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer cancel()
	if err := h.admit(ctx); err != nil {
		s.writeError(w, estimationError(err))
		return
	}
	defer h.release()

	// Every kind routes through the coordinator: scattered to the shard
	// workers as integer tallies when the daemon coordinates a sharded
	// deployment, computed on the local store otherwise — bit-identical to
	// the metrics package either way.
	var (
		value float64
		err   error
	)
	switch req.Kind {
	case "set":
		if len(req.Set) == 0 {
			s.writeError(w, badRequest("kind \"set\" needs a non-empty \"set\""))
			return
		}
		set := make([]graph.NodeID, len(req.Set))
		for i, u := range req.Set {
			set[i] = u
		}
		value, err = h.coord.SetReliabilityCtx(ctx, set, samples)
	case "", "all_terminal":
		value, err = h.coord.AllTerminalReliabilityCtx(ctx, samples)
	case "components":
		value, err = h.coord.ExpectedComponentsCtx(ctx, samples)
	case "largest_component":
		value, err = h.coord.LargestComponentFractionCtx(ctx, samples)
	default:
		s.writeError(w, badRequest(fmt.Sprintf("unknown kind %q", req.Kind)))
		return
	}
	if err != nil {
		s.writeError(w, estimationError(err))
		return
	}
	s.writeJSON(w, map[string]any{
		"graph": h.name, "kind": req.Kind, "samples": samples, "value": value,
	})
}
