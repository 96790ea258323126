// Package server implements the ucserve query daemon: a long-running HTTP
// frontend over one or more uncertain graphs and their shared possible-world
// stores, so that many clients amortize one store instead of re-sampling
// worlds per process (the scale step after the in-process Shared registry
// of internal/worldstore; see docs/SERVER.md for the endpoint reference).
//
// The daemon exposes the estimator surface as JSON endpoints:
//
//	GET  /healthz          liveness (readiness on a sharded coordinator)
//	GET  /statsz           server + per-graph world-store counters
//	GET  /metricsz         the same counters and latency histograms, Prometheus text
//	GET  /v1/graphs        the served graphs
//	POST /v1/conn          connection probabilities (pair or multi-center)
//	POST /v1/cluster       MCP/ACP/MCL/GMM/KPT clustering (sync, streamed or async)
//	GET  /v1/jobs/{id}     async clustering job status/result
//	DELETE /v1/jobs/{id}   cancel an async job
//	POST /v1/knn           k-nearest neighbors under probabilistic distances
//	POST /v1/influence     influence spread / greedy maximization
//	POST /v1/reliability   network-reliability statistics
//	GET  /v1/shards        shard membership and health
//	POST /v1/shards        add or remove shard workers
//	GET  /debug/traces     recent query traces (/{id} for one)
//
// The five estimating endpoints (conn, cluster, knn, influence,
// reliability) validate their body into a query and share one step
// list, Server.serve. Every estimating request carries a deadline and a
// world budget (a clustering's follows the sampling schedule), enforced
// through the context-aware entry points added across the library
// (worldstore.ScanCtx, conn.ContextOracle, core.MCPCtx/ACPCtx, ...): a
// request past its deadline aborts at the next chunk of sampled worlds and
// reports 504. Requests that complete return answers bit-identical to the
// corresponding library calls — the daemon adds transport and admission
// control, never approximation.
//
// A per-graph admission gate bounds how many requests may drive world
// materialization concurrently, so a traffic burst cannot multiply the
// store's resident label blocks past the -worldmem budget: excess requests
// queue on the gate (respecting their deadlines) instead of racing the
// evictor.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"ucgraph/internal/graph"
	"ucgraph/internal/obs"
	"ucgraph/internal/shard"
	"ucgraph/internal/worldstore"
)

// Options configures a Server. The zero value selects the documented
// defaults.
type Options struct {
	// DefaultSamples is the sample budget applied when a request omits one
	// (default 1000).
	DefaultSamples int
	// MaxSamples caps per-request sample budgets (default 1 << 20); larger
	// requests are rejected with 400 rather than silently clamped.
	MaxSamples int
	// DefaultTimeout is the per-request deadline applied when a request
	// omits timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps requested deadlines (default 5m).
	MaxTimeout time.Duration
	// Gate bounds, per graph, the number of requests concurrently driving
	// world materialization (default 2). Excess requests wait their turn,
	// still honoring their deadlines, so the store's memory budget holds
	// under bursts.
	Gate int
	// Shards lists shard-worker base URLs ("host:port" or full URLs).
	// When non-empty the daemon runs as the scatter/gather coordinator of
	// a sharded deployment: /v1/conn, /v1/cluster (its min-partial
	// scoring), /v1/knn, /v1/influence and /v1/reliability fan world
	// ranges out to the workers and merge their integer tallies — answers
	// stay bit-identical to local execution, because merged tallies are
	// order-free integer sums over the same deterministic world stream.
	// Every worker must serve every configured graph under the same name
	// and seed (/healthz reports not-ready until they all answer a ping).
	// Membership is elastic: POST /v1/shards adds and removes workers at
	// runtime (see docs/SHARD_PROTOCOL.md).
	Shards []string
	// ShardRetries and ShardRequestTimeout tune the coordinator's retry
	// rounds and per-worker-request deadline; zero selects the shard
	// package defaults.
	ShardRetries        int
	ShardRequestTimeout time.Duration
	// ShardBreakerThreshold tunes the per-worker circuit breakers: a
	// worker failing this many consecutive tallies is taken out of
	// assignment for an exponentially growing (seeded-jitter) backoff.
	// Zero selects the shard package default. Breaker state is surfaced
	// per worker at /statsz.
	ShardBreakerThreshold int
	// ShardRetryBudget caps the total block re-scatters one query may
	// spend across its retry rounds (0 = package default): a melting fleet
	// fails queries crisply instead of retrying forever.
	ShardRetryBudget int
	// ShardAuditFraction, in [0, 1], samples completed scatter groups for
	// audit re-execution on a second worker with byte-for-byte tally
	// comparison; divergent workers are quarantined. 0 disables.
	ShardAuditFraction float64
	// ShardHedge, when positive, arms hedged requests: a scatter group
	// unanswered after this delay is duplicated to another live worker and
	// the first answer wins (the loser is a suppressed duplicate, never a
	// failure). Zero disables hedging. Results are unaffected — merged
	// tallies are bit-identical whichever copy wins.
	ShardHedge time.Duration
	// ShardPingInterval, when positive, starts a background membership
	// refresher per graph: workers are pinged on this cadence and marked
	// up/down, so scatters route around dead workers without waiting for a
	// failed request, and revived workers rejoin without a restart. Zero
	// disables the background pings (health probes still refresh on
	// demand).
	ShardPingInterval time.Duration
	// WorldCacheDir, when non-empty, attaches a disk tier to every served
	// graph's world store (the -worldcache flag): blocks evicted under the
	// -worldmem budget spill to checksummed segment files under
	// WorldCacheDir/<graph name>/ instead of being forgotten, and a
	// restarted daemon pointed at the same directory comes back hot —
	// misses load persisted blocks instead of recomputing them. Answers
	// are bit-identical with or without the cache.
	WorldCacheDir string
	// MaxCost caps the estimated cost of one estimating request, measured
	// in world-extensions: the sample (or adaptive world) budget times the
	// number of centers it drives (a pair query counts one center, an
	// MCP/ACP clustering request its k x max(alpha, 1) candidates, at
	// DefaultSamples worlds each). Requests above the cap are rejected with
	// 400 before touching the store — the cost-based admission layer on
	// top of the concurrency gate. <= 0 selects 1 << 28.
	MaxCost int64
	// ClientConcurrent caps how many estimating requests one client (the
	// X-API-Client header, else the remote host) may have running at once;
	// excess requests are rejected with 429. 0 disables the quota.
	ClientConcurrent int
	// ClientWorldsPerMin refills each client's cost-token bucket at this
	// rate (burst = one minute's worth): a client whose requests' summed
	// cost outruns the refill gets 429 until tokens return. 0 disables.
	ClientWorldsPerMin int64
	// SlowQuery, when positive, logs every traced request whose total
	// latency crosses it as a one-line JSON record (the full trace, via
	// log/slog) — the -slow-query flag. 0 disables.
	SlowQuery time.Duration
	// SlowLog receives the slow-query records; nil selects slog.Default().
	SlowLog *slog.Logger
	// TraceRing bounds how many recent finished traces /debug/traces
	// retains (default 64).
	TraceRing int
}

// withDefaults fills in the documented defaults.
func (o Options) withDefaults() Options {
	if o.DefaultSamples <= 0 {
		o.DefaultSamples = 1000
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 1 << 20
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.Gate <= 0 {
		o.Gate = 2
	}
	if o.MaxCost <= 0 {
		o.MaxCost = 1 << 28
	}
	if o.TraceRing <= 0 {
		o.TraceRing = 64
	}
	return o
}

// GraphConfig is one graph served by the daemon.
type GraphConfig struct {
	// Name addresses the graph in requests ("graph" field).
	Name string
	// Graph is the uncertain graph itself.
	Graph *graph.Uncertain
	// Seed selects the possible-world stream. All queries against this
	// graph answer from the shared store of (Graph, Seed), so repeated and
	// concurrent clients observe the same worlds.
	Seed uint64
}

// graphHandle is the server-side state of one served graph.
type graphHandle struct {
	name  string
	g     *graph.Uncertain
	seed  uint64
	store *worldstore.Store
	// coord is the long-lived estimator answering /v1/conn center queries
	// (and, when shards are configured, every fanned-out surface): a
	// shard.Coordinator that scatters world ranges to the workers, or —
	// with no shards — transparently runs the same queries on the local
	// in-process estimator. Either way its tally cache persists across
	// requests, which is the point of a daemon: repeated centers answer
	// from cached (or higher-precision) tallies. Clustering requests fork
	// a private coordinator instead, so their results never depend on
	// what other clients warmed (see clusterQuery).
	coord *shard.Coordinator
	// gate is the admission semaphore bounding concurrent materialization.
	gate chan struct{}
}

// admit acquires an admission slot, giving up when ctx expires.
func (h *graphHandle) admit(ctx context.Context) error {
	select {
	case h.gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("admission queue: %w", ctx.Err())
	}
}

// release returns an admission slot.
func (h *graphHandle) release() { <-h.gate }

// Server is the query daemon. Create one with New, mount it as an
// http.Handler. Safe for concurrent use.
type Server struct {
	opts   Options
	graphs map[string]*graphHandle
	names  []string // sorted graph names
	jobs   *jobTable
	mux    *http.ServeMux
	start  time.Time
	stops  []func() // background ping refreshers, stopped by Close

	quotas *clientQuotas

	// metrics holds the /metricsz latency histograms; traces the
	// /debug/traces ring of recent finished query traces; slowLog the
	// slow-query logger (Options.SlowLog or slog.Default()).
	metrics *serverMetrics
	traces  *obs.Ring
	slowLog *slog.Logger

	// draining is set by StartDrain: /healthz answers 503 "draining" so
	// load balancers route away while in-flight requests — including open
	// SSE streams — run to completion. inflight counts every request the
	// mux is currently serving; Drain waits for it to hit zero.
	draining atomic.Bool
	inflight atomic.Int64

	requests atomic.Uint64
	failures atomic.Uint64
	// adaptiveQueries counts completed confidence-target requests;
	// worldsSaved sums their budget - consumed gaps — the observable
	// early-stopping win reported by /statsz.
	adaptiveQueries atomic.Uint64
	worldsSaved     atomic.Uint64
}

// New builds a Server over the given graphs. Every graph gets its shared
// world store (created through worldstore.Shared, so in-process consumers
// of the same (graph, seed) pair converge on it), a long-lived estimator
// and an admission gate.
func New(graphs []GraphConfig, opts Options) (*Server, error) {
	if len(graphs) == 0 {
		return nil, errors.New("server: no graphs to serve")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		graphs:  make(map[string]*graphHandle, len(graphs)),
		jobs:    newJobTable(),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		quotas:  newClientQuotas(opts.ClientConcurrent, opts.ClientWorldsPerMin),
		metrics: newServerMetrics(),
		traces:  obs.NewRing(opts.TraceRing),
		slowLog: opts.SlowLog,
	}
	if s.slowLog == nil {
		s.slowLog = slog.Default()
	}
	for _, gc := range graphs {
		if gc.Name == "" {
			return nil, errors.New("server: graph with empty name")
		}
		if gc.Graph == nil {
			return nil, fmt.Errorf("server: graph %q is nil", gc.Name)
		}
		if _, dup := s.graphs[gc.Name]; dup {
			return nil, fmt.Errorf("server: duplicate graph name %q", gc.Name)
		}
		coord := shard.NewCoordinator(gc.Name, gc.Graph, gc.Seed, opts.Shards, shard.CoordinatorOptions{
			Retries:          opts.ShardRetries,
			RequestTimeout:   opts.ShardRequestTimeout,
			HedgeDelay:       opts.ShardHedge,
			BreakerThreshold: opts.ShardBreakerThreshold,
			RetryBudget:      opts.ShardRetryBudget,
			AuditFraction:    opts.ShardAuditFraction,
			OnWorkerRTT: func(addr string, rtt time.Duration) {
				s.metrics.workerRTT.Observe(rtt.Seconds(), addr)
			},
		})
		if coord.Sharded() && opts.ShardPingInterval > 0 {
			s.stops = append(s.stops, coord.StartPings(opts.ShardPingInterval))
		}
		if opts.WorldCacheDir != "" {
			dir := filepath.Join(opts.WorldCacheDir, gc.Name)
			if err := coord.Store().AttachCache(dir); err != nil {
				return nil, fmt.Errorf("server: graph %q: %w", gc.Name, err)
			}
		}
		s.graphs[gc.Name] = &graphHandle{
			name:  gc.Name,
			g:     gc.Graph,
			seed:  gc.Seed,
			store: coord.Store(),
			coord: coord,
			gate:  make(chan struct{}, opts.Gate),
		}
		s.names = append(s.names, gc.Name)
	}
	sort.Strings(s.names)

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("POST /v1/conn", endpoint(s, s.connQuery))
	s.mux.HandleFunc("POST /v1/cluster", endpoint(s, s.clusterQuery))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/knn", endpoint(s, s.knnQuery))
	s.mux.HandleFunc("POST /v1/influence", endpoint(s, s.influenceQuery))
	s.mux.HandleFunc("POST /v1/reliability", endpoint(s, s.reliabilityQuery))
	s.mux.HandleFunc("GET /v1/shards", s.handleShardsGet)
	s.mux.HandleFunc("POST /v1/shards", s.handleShardsPost)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	return s, nil
}

// Close stops the background membership refreshers and tears down the
// coordinators' persistent worker streams. For a graceful exit call
// StartDrain first and Drain (alongside http.Server.Shutdown) before
// Close, so open queries finish before their streams are severed.
func (s *Server) Close() {
	for _, stop := range s.stops {
		stop()
	}
	for _, h := range s.graphs {
		h.coord.Close()
	}
}

// StartDrain flips the daemon into draining: /healthz immediately answers
// 503 {"status":"draining"} so load balancers stop routing here, while
// every in-flight request — including open SSE refinement streams — keeps
// running. Pair with Drain to wait for them.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain blocks until every in-flight request has completed, or ctx
// expires (returning its error). Call after StartDrain; the HTTP
// listener's own Shutdown covers connection teardown, Drain covers the
// requests themselves.
func (s *Server) Drain(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d request(s) still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	t0 := time.Now()
	s.mux.ServeHTTP(w, r)
	s.metrics.request.Observe(time.Since(t0).Seconds(), endpointLabel(r.Pattern))
}

// handle resolves the graph named in a request.
func (s *Server) handle(name string) (*graphHandle, *apiError) {
	if name == "" {
		return nil, badRequest("missing \"graph\"")
	}
	h, ok := s.graphs[name]
	if !ok {
		return nil, &apiError{http.StatusNotFound, fmt.Sprintf("unknown graph %q", name)}
	}
	return h, nil
}

// samples validates a request's sample budget, applying the default.
func (s *Server) samples(req int) (int, *apiError) {
	if req == 0 {
		return s.opts.DefaultSamples, nil
	}
	if req < 0 {
		return 0, badRequest("\"samples\" must be positive")
	}
	if req > s.opts.MaxSamples {
		return 0, badRequest(fmt.Sprintf("\"samples\" %d exceeds the server cap %d", req, s.opts.MaxSamples))
	}
	return req, nil
}

// checkTimeout rejects a negative timeout_ms. Handlers call it with the
// other field checks, before admission charges the client anything.
func checkTimeout(timeoutMS int64) *apiError {
	if timeoutMS < 0 {
		return badRequest("\"timeout_ms\" must be positive")
	}
	return nil
}

// deadline derives the request context: the caller's timeout_ms (already
// checked by checkTimeout) clamped to MaxTimeout, or DefaultTimeout when
// omitted, layered over parent (the HTTP request context, so client
// disconnects cancel too).
func (s *Server) deadline(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.opts.MaxTimeout {
			d = s.opts.MaxTimeout
		}
	}
	return context.WithTimeout(parent, d)
}

// apiError is an HTTP error with a JSON body.
type apiError struct {
	code int
	msg  string
}

func badRequest(msg string) *apiError { return &apiError{http.StatusBadRequest, msg} }

// estimationError maps an estimation failure to an apiError: deadline
// overruns become 504, client-side cancellations 499 (nginx's convention),
// everything else 500.
func estimationError(err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{http.StatusGatewayTimeout, "deadline exceeded: " + err.Error()}
	case errors.Is(err, context.Canceled):
		return &apiError{499, "request cancelled: " + err.Error()}
	default:
		return &apiError{http.StatusInternalServerError, err.Error()}
	}
}

// writeJSON writes a 200 JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	s.writeJSONStatus(w, http.StatusOK, v)
}

func (s *Server) writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes an error response and counts it.
func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	s.failures.Add(1)
	s.writeJSONStatus(w, e.code, map[string]string{"error": e.msg})
}

// decode parses a bounded JSON request body.
func decode(r *http.Request, into any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err := dec.Decode(into); err != nil {
		return badRequest("invalid JSON body: " + err.Error())
	}
	return nil
}

// validNode checks a node ID against the graph.
func validNode(h *graphHandle, field string, v int32) *apiError {
	if v < 0 || int(v) >= h.g.NumNodes() {
		return badRequest(fmt.Sprintf("%q node %d out of range [0, %d)", field, v, h.g.NumNodes()))
	}
	return nil
}
