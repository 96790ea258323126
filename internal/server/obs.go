package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"ucgraph/internal/obs"
)

// Observability surface of the daemon: Server.serve, the step list of
// every estimating endpoint (/v1/conn, /v1/cluster, /v1/knn,
// /v1/influence, /v1/reliability), runs each request under an obs.Trace
// whose spans cover admission, the estimate itself (with world-store
// tier attribution), and — through the context — the coordinator's
// scatter rounds, per-worker attempts and adaptive rounds. Async
// clustering jobs run untraced. /v1/conn and /v1/cluster also return the
// trace inline on "explain": true; the other three take no explain
// field. Finished traces feed the per-stage latency histograms, the
// /debug/traces ring, and (past Options.SlowQuery) a one-line JSON slog
// record. /metricsz renders the same counters /statsz reports, plus the
// latency histograms, in Prometheus text format. The standing invariant
// of internal/obs holds here too: observation never alters estimation —
// traced and untraced requests compute bit-identical answers.

// serverMetrics owns the accumulating metric state (histograms); the
// scrape-time gauges and counters are read straight from the same
// atomics /statsz reports, so the two endpoints can never disagree.
type serverMetrics struct {
	reg *obs.Registry
	// request observes total request latency per endpoint pattern.
	request *obs.HistogramVec
	// stage observes per-stage latency from finished traces' spans
	// (admission, estimate, scatter, scatter_round, worker, merge,
	// adaptive_round, audit, ...).
	stage *obs.HistogramVec
	// workerRTT observes per-shard-worker round-trip times, fed by the
	// coordinators' OnWorkerRTT hook.
	workerRTT *obs.HistogramVec
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	return &serverMetrics{
		reg: reg,
		request: reg.Histogram("ucgraph_request_seconds",
			"HTTP request latency by endpoint.", obs.DefSecondsBuckets, "endpoint"),
		stage: reg.Histogram("ucgraph_stage_seconds",
			"Per-stage latency from finished query traces.", obs.DefSecondsBuckets, "stage"),
		workerRTT: reg.Histogram("ucgraph_shard_rtt_seconds",
			"Shard-worker tally round-trip time.", obs.DefSecondsBuckets, "worker"),
	}
}

// endpointLabel normalizes a request path to a bounded label set so the
// request histogram's cardinality cannot be driven by clients.
func endpointLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "/v1/jobs"
	case strings.HasPrefix(path, "/debug/traces"):
		return "/debug/traces"
	}
	switch path {
	case "/healthz", "/statsz", "/metricsz", "/v1/graphs", "/v1/conn",
		"/v1/cluster", "/v1/knn", "/v1/influence", "/v1/reliability",
		"/v1/shards":
		return path
	}
	return "other"
}

// startTrace opens a trace for one estimating request and returns a
// context carrying its root span; estimation calls made with that
// context attach their spans (scatter rounds, worker attempts, adaptive
// rounds) automatically.
func (s *Server) startTrace(ctx context.Context, name, graphName string) (context.Context, *obs.Trace) {
	tr := obs.NewTrace(name)
	tr.Root().Set("graph", graphName)
	return obs.ContextWithSpan(ctx, tr.Root()), tr
}

// finishTrace closes a trace and publishes it: per-stage histogram
// observations, the /debug/traces ring, and the slow-query log when the
// total latency crosses Options.SlowQuery. Safe to call exactly once
// per trace (deferred from each traced handler); nil-safe.
func (s *Server) finishTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Finish()
	for _, sd := range tr.SpanDurations() {
		s.metrics.stage.Observe(sd.D.Seconds(), sd.Name)
	}
	s.traces.Add(tr)
	if s.opts.SlowQuery > 0 && tr.Duration() >= s.opts.SlowQuery {
		s.slowLog.Warn("slow query",
			slog.String("trace_id", tr.ID),
			slog.String("name", tr.Name),
			slog.Float64("duration_ms", float64(tr.Duration())/float64(time.Millisecond)),
			slog.Any("trace", tr.View()),
		)
	}
}

// admitTraced is h.admit with an "admission" span around the queue wait,
// so gate contention is visible in a trace instead of blending into
// total latency. A no-op span on untraced requests.
func (h *graphHandle) admitTraced(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, "admission")
	err := h.admit(ctx)
	if err != nil {
		sp.Set("error", err.Error())
	}
	sp.End()
	return err
}

// estimateSpan opens the "estimate" span covering one estimation call
// and snapshots the graph's store counters; the returned finish closure
// attributes the store tier traffic the call generated (RAM hits, disk
// hits, recomputes, materializations — approximate when concurrent
// requests share the store, see worldstore.TierDelta) and ends the
// span. On untraced requests both halves are no-ops.
func (h *graphHandle) estimateSpan(ctx context.Context) (context.Context, func(err error)) {
	ectx, sp := obs.StartSpan(ctx, "estimate")
	if sp == nil {
		return ectx, func(error) {}
	}
	pre := h.store.Stats()
	return ectx, func(err error) {
		d := h.store.Stats().TierDelta(pre)
		sp.Set("store_ram_hits", int64(d.Hits))
		sp.Set("store_disk_hits", int64(d.DiskHits))
		sp.Set("store_recomputes", int64(d.Recomputes))
		sp.Set("store_materializations", int64(d.Materializations))
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
}

// explainView finishes the trace and returns its view for inline
// embedding in a response ("explain": true). The deferred finishTrace
// still publishes the (already finished, Finish is idempotent) trace.
func explainView(tr *obs.Trace) obs.TraceView {
	tr.Finish()
	return tr.View()
}

// ---- /metricsz ----------------------------------------------------------

// handleMetricsz serves the Prometheus text exposition: build info, the
// daemon counters and per-graph store/fabric/worker counters mirrored
// from the same atomics /statsz reads, and the latency histograms. The
// output is validated against the strict parser in internal/obs by the
// server tests, so a scrape always parses.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := obs.NewWriter(w)

	b := obs.BuildInfo()
	pw.Family("ucgraph_build_info", "Build metadata; value is always 1.", "gauge")
	pw.Sample("ucgraph_build_info", []obs.Label{
		{Name: "version", Value: b.Version},
		{Name: "commit", Value: b.Commit},
		{Name: "go_version", Value: b.GoVersion},
	}, 1)

	pw.Family("ucgraph_uptime_seconds", "Seconds since the daemon started.", "gauge")
	pw.Sample("ucgraph_uptime_seconds", nil, time.Since(s.start).Seconds())
	pw.Family("ucgraph_inflight_requests", "Requests currently being served.", "gauge")
	pw.Sample("ucgraph_inflight_requests", nil, float64(s.inflight.Load()))
	pw.Family("ucgraph_draining", "1 while the daemon is draining for shutdown.", "gauge")
	pw.Sample("ucgraph_draining", nil, b2f(s.draining.Load()))
	pw.Family("ucgraph_requests_total", "HTTP requests served.", "counter")
	pw.Sample("ucgraph_requests_total", nil, float64(s.requests.Load()))
	pw.Family("ucgraph_failures_total", "Requests answered with an error.", "counter")
	pw.Sample("ucgraph_failures_total", nil, float64(s.failures.Load()))
	pw.Family("ucgraph_adaptive_queries_total", "Completed confidence-target queries.", "counter")
	pw.Sample("ucgraph_adaptive_queries_total", nil, float64(s.adaptiveQueries.Load()))
	pw.Family("ucgraph_worlds_saved_total", "Worlds saved by adaptive early stopping.", "counter")
	pw.Sample("ucgraph_worlds_saved_total", nil, float64(s.worldsSaved.Load()))

	pw.Family("ucgraph_jobs", "Async clustering jobs by state.", "gauge")
	for _, state := range [...]string{"running", "done", "error", "cancelled"} {
		pw.Sample("ucgraph_jobs", []obs.Label{{Name: "state", Value: state}}, float64(s.jobs.counts()[state]))
	}

	s.writeStoreMetrics(pw)
	s.writeFabricMetrics(pw)
	s.metrics.reg.WriteTo(pw)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// storeMetricCols maps one storeStats snapshot onto Prometheus families.
// Counters and gauges are split so # TYPE stays truthful.
var storeMetricCols = []struct {
	name, help, typ string
	val             func(storeStats) float64
}{
	{"ucgraph_store_worlds", "Worlds materialized in the store so far.", "gauge", func(st storeStats) float64 { return float64(st.Worlds) }},
	{"ucgraph_store_resident_blocks", "World blocks resident in RAM.", "gauge", func(st storeStats) float64 { return float64(st.ResidentBlocks) }},
	{"ucgraph_store_resident_bytes", "Bytes of resident world data.", "gauge", func(st storeStats) float64 { return float64(st.ResidentBytes) }},
	{"ucgraph_store_hits_total", "Block requests answered from RAM.", "counter", func(st storeStats) float64 { return float64(st.Hits) }},
	{"ucgraph_store_materializations_total", "Blocks sampled for the first time.", "counter", func(st storeStats) float64 { return float64(st.Materializations) }},
	{"ucgraph_store_recomputes_total", "Blocks recomputed after eviction.", "counter", func(st storeStats) float64 { return float64(st.Recomputes) }},
	{"ucgraph_store_evictions_total", "Blocks evicted under the memory budget.", "counter", func(st storeStats) float64 { return float64(st.Evictions) }},
	{"ucgraph_store_disk_hits_total", "Blocks served from the disk tier.", "counter", func(st storeStats) float64 { return float64(st.DiskHits) }},
	{"ucgraph_store_spill_writes_total", "Blocks spilled to the disk tier.", "counter", func(st storeStats) float64 { return float64(st.SpillWrites) }},
	{"ucgraph_store_corrupt_dropped_total", "Disk-tier blocks dropped on checksum mismatch.", "counter", func(st storeStats) float64 { return float64(st.CorruptDropped) }},
}

func (s *Server) writeStoreMetrics(pw *obs.Writer) {
	for _, col := range storeMetricCols {
		pw.Family(col.name, col.help, col.typ)
		for _, name := range s.names {
			st := s.graphs[name].storeStats()
			pw.Sample(col.name, []obs.Label{{Name: "graph", Value: name}}, col.val(st))
		}
	}
}

// fabricMetricCols maps the coordinator-wide fabric counters of every
// sharded graph onto Prometheus counter families.
var fabricMetricCols = []struct {
	name, help string
	val        func(fabricStats) float64
}{
	{"ucgraph_fabric_hedges_total", "Hedged scatter requests armed.", func(fs fabricStats) float64 { return float64(fs.Hedges) }},
	{"ucgraph_fabric_duplicates_total", "Suppressed duplicate tally responses.", func(fs fabricStats) float64 { return float64(fs.Duplicates) }},
	{"ucgraph_fabric_rescatters_total", "Scatter blocks re-striped through retry rounds.", func(fs fabricStats) float64 { return float64(fs.Rescatters) }},
	{"ucgraph_fabric_breaker_trips_total", "Worker circuit breakers tripped.", func(fs fabricStats) float64 { return float64(fs.BreakerTrips) }},
	{"ucgraph_fabric_quarantines_total", "Workers quarantined after audit divergence.", func(fs fabricStats) float64 { return float64(fs.Quarantines) }},
	{"ucgraph_fabric_integrity_rejects_total", "Frames rejected by wire integrity checks.", func(fs fabricStats) float64 { return float64(fs.IntegrityRejects) }},
	{"ucgraph_fabric_audits_total", "Scatter groups re-executed for audit.", func(fs fabricStats) float64 { return float64(fs.Audits) }},
	{"ucgraph_fabric_audit_divergences_total", "Audits that observed divergent tallies.", func(fs fabricStats) float64 { return float64(fs.AuditDivergences) }},
}

func (s *Server) writeFabricMetrics(pw *obs.Writer) {
	sharded := false
	for _, name := range s.names {
		if s.graphs[name].coord.Sharded() {
			sharded = true
			break
		}
	}
	if !sharded {
		return
	}
	for _, col := range fabricMetricCols {
		pw.Family(col.name, col.help, "counter")
		for _, name := range s.names {
			h := s.graphs[name]
			if !h.coord.Sharded() {
				continue
			}
			pw.Sample(col.name, []obs.Label{{Name: "graph", Value: name}}, col.val(h.fabricStats()))
		}
	}
	for _, col := range []struct {
		name, help, typ string
		val             func(shardStats) float64
	}{
		{"ucgraph_shard_worker_up", "1 while the worker is marked up.", "gauge", func(ws shardStats) float64 { return b2f(ws.State == "up") }},
		{"ucgraph_shard_worker_requests_total", "Tally requests sent to the worker.", "counter", func(ws shardStats) float64 { return float64(ws.Requests) }},
		{"ucgraph_shard_worker_failures_total", "Tally requests the worker failed.", "counter", func(ws shardStats) float64 { return float64(ws.Failures) }},
		{"ucgraph_shard_worker_worlds_served_total", "Worlds tallied by the worker.", "counter", func(ws shardStats) float64 { return float64(ws.WorldsServed) }},
	} {
		pw.Family(col.name, col.help, col.typ)
		for _, name := range s.names {
			h := s.graphs[name]
			if !h.coord.Sharded() {
				continue
			}
			for _, ws := range h.shardStats() {
				pw.Sample(col.name, []obs.Label{
					{Name: "graph", Value: name},
					{Name: "worker", Value: ws.Addr},
				}, col.val(ws))
			}
		}
	}
}

// ---- /debug/traces ------------------------------------------------------

// handleTraces lists the recent finished traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{"traces": s.traces.Snapshot()})
}

// handleTraceGet returns one recent trace by ID.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.traces.Get(id)
	if !ok {
		s.writeError(w, &apiError{http.StatusNotFound, fmt.Sprintf("trace %q not in the recent-trace ring", id)})
		return
	}
	s.writeJSON(w, v)
}
