package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"ucgraph/internal/obs"
	"ucgraph/internal/shard"
	"ucgraph/internal/worldstore"
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
// scrape-time gauges and counters are rendered from the stat tables,
// which /statsz renders too.
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

// endpointLabel is the request histogram's label for a request the mux
// has served: the path of the route pattern it matched ("/v1/jobs/{id}"
// for every job), or "other" when no route matched (a 404 or a 405), so
// clients cannot drive the label set past the registered routes.
func endpointLabel(pattern string) string {
	if path := pattern[strings.IndexByte(pattern, ' ')+1:]; path != "" {
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

// ---- /metricsz and the stat tables ----------------------------------------

// handleMetricsz serves the Prometheus text exposition: build info, the
// stat tables' families over one snapshot of each counter source, and the
// latency histograms. The output is validated against the strict parser
// in internal/obs by the server tests, so a scrape always parses.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := obs.NewWriter(w)

	b := obs.BuildInfo()
	pw.Family("ucgraph_build_info", "Build metadata; value is always 1.", gauge)
	pw.Sample("ucgraph_build_info", []obs.Label{
		{Name: "version", Value: b.Version},
		{Name: "commit", Value: b.Commit},
		{Name: "go_version", Value: b.GoVersion},
	}, 1)
	writeFamilies(pw, serverTable, labelled[*Server]{snap: s})

	var (
		stores  []labelled[worldstore.Stats]
		fabrics []labelled[shard.FabricStats]
		workers []labelled[shard.WorkerStats]
	)
	for _, name := range s.names {
		h := s.graphs[name]
		graph := obs.Label{Name: "graph", Value: name}
		stores = append(stores, labelled[worldstore.Stats]{[]obs.Label{graph}, h.store.Stats()})
		if !h.coord.Sharded() {
			continue
		}
		fabrics = append(fabrics, labelled[shard.FabricStats]{[]obs.Label{graph}, h.coord.FabricStats()})
		for _, ws := range h.coord.WorkerStats() {
			workers = append(workers, labelled[shard.WorkerStats]{[]obs.Label{graph, {Name: "worker", Value: ws.Addr}}, ws})
		}
	}
	writeFamilies(pw, storeTable, stores...)
	if len(fabrics) > 0 {
		writeFamilies(pw, fabricTable, fabrics...)
		writeFamilies(pw, workerTable, workers...)
	}
	s.metrics.reg.WriteTo(pw)
}

// Metric types of the stat tables.
const (
	counter = "counter"
	gauge   = "gauge"
)

// stat is one number the daemon reports about a counter source S: its
// /statsz key, its /metricsz family, and how to read it from one snapshot
// of S. An empty key or family leaves the number off that surface. val
// returns an integer, a float or a bool (0 or 1 in /metricsz); a stat
// with no family may return any JSON value, and the job counts return
// one count per state. Families are named ucgraph_<key> for the server,
// ucgraph_store_<key>, ucgraph_fabric_<key> and
// ucgraph_shard_worker_<key> for the other sources, with _total on
// counters; docs/SERVER.md lists the exceptions.
type stat[S any] struct {
	key, metric, typ, help string
	val                    func(S) any
}

// serverTable holds the daemon-wide numbers; its source is the Server.
var serverTable = []stat[*Server]{
	{"uptime_ms", "", "", "", func(s *Server) any { return time.Since(s.start).Milliseconds() }},
	{"", "ucgraph_uptime_seconds", gauge, "Seconds since the daemon started.", func(s *Server) any { return time.Since(s.start).Seconds() }},
	{"build", "", "", "", func(*Server) any { return obs.BuildInfo() }},
	{"", "ucgraph_inflight_requests", gauge, "Requests currently being served.", func(s *Server) any { return s.inflight.Load() }},
	{"draining", "ucgraph_draining", gauge, "1 while the daemon is draining for shutdown.", func(s *Server) any { return s.draining.Load() }},
	{"requests", "ucgraph_requests_total", counter, "HTTP requests served.", func(s *Server) any { return s.requests.Load() }},
	{"failures", "ucgraph_failures_total", counter, "Requests answered with an error.", func(s *Server) any { return s.failures.Load() }},
	{"adaptive_queries", "ucgraph_adaptive_queries_total", counter, "Completed confidence-target queries.", func(s *Server) any { return s.adaptiveQueries.Load() }},
	{"worlds_saved", "ucgraph_worlds_saved_total", counter, "Worlds saved by adaptive early stopping.", func(s *Server) any { return s.worldsSaved.Load() }},
	{"jobs", "ucgraph_jobs", gauge, "Async clustering jobs by state.", func(s *Server) any { return s.jobs.counts() }},
}

// storeTable holds a graph's world-store numbers.
var storeTable = []stat[worldstore.Stats]{
	{"worlds", "ucgraph_store_worlds", gauge, "Worlds materialized in the store so far.", func(st worldstore.Stats) any { return st.Worlds }},
	{"resident_blocks", "ucgraph_store_resident_blocks", gauge, "World blocks resident in RAM.", func(st worldstore.Stats) any { return st.ResidentBlocks }},
	{"resident_label_blocks", "ucgraph_store_resident_label_blocks", gauge, "Label blocks resident in RAM.", func(st worldstore.Stats) any { return st.ResidentLabelBlocks }},
	{"resident_bitmap_blocks", "ucgraph_store_resident_bitmap_blocks", gauge, "Edge-bitmap blocks resident in RAM.", func(st worldstore.Stats) any { return st.ResidentBitmapBlocks }},
	{"resident_component_blocks", "ucgraph_store_resident_component_blocks", gauge, "Largest-component index blocks resident in RAM.", func(st worldstore.Stats) any { return st.ResidentComponentBlocks }},
	{"resident_bytes", "ucgraph_store_resident_bytes", gauge, "Bytes of resident world data.", func(st worldstore.Stats) any { return st.ResidentBytes }},
	{"block_worlds", "ucgraph_store_block_worlds", gauge, "Worlds per block.", func(st worldstore.Stats) any { return st.BlockWorlds }},
	{"hits", "ucgraph_store_hits_total", counter, "Block requests answered from RAM.", func(st worldstore.Stats) any { return st.Hits }},
	{"materializations", "ucgraph_store_materializations_total", counter, "Blocks sampled for the first time.", func(st worldstore.Stats) any { return st.Materializations }},
	{"recomputes", "ucgraph_store_recomputes_total", counter, "Blocks recomputed after eviction.", func(st worldstore.Stats) any { return st.Recomputes }},
	{"cold_recomputes", "ucgraph_store_cold_recomputes_total", counter, "Recomputes with no spilled copy to load.", func(st worldstore.Stats) any { return st.ColdRecomputes }},
	{"post_spill_recomputes", "ucgraph_store_post_spill_recomputes_total", counter, "Recomputes after a spilled copy failed validation.", func(st worldstore.Stats) any { return st.PostSpillRecomputes }},
	{"evictions", "ucgraph_store_evictions_total", counter, "Blocks evicted under the memory budget.", func(st worldstore.Stats) any { return st.Evictions }},
	{"disk_hits", "ucgraph_store_disk_hits_total", counter, "Blocks served from the disk tier.", func(st worldstore.Stats) any { return st.DiskHits }},
	{"disk_bytes", "ucgraph_store_disk_bytes", gauge, "Live payload bytes of the disk tier.", func(st worldstore.Stats) any { return st.DiskBytes }},
	{"spill_writes", "ucgraph_store_spill_writes_total", counter, "Blocks spilled to the disk tier.", func(st worldstore.Stats) any { return st.SpillWrites }},
	{"corrupt_dropped", "ucgraph_store_corrupt_dropped_total", counter, "Disk-tier blocks dropped on checksum mismatch.", func(st worldstore.Stats) any { return st.CorruptDropped }},
	{"cache_dir", "", "", "", func(st worldstore.Stats) any { return st.CacheDir }},
}

// fabricTable holds a sharded graph's coordinator-wide fabric numbers.
var fabricTable = []stat[shard.FabricStats]{
	{"hedges", "ucgraph_fabric_hedges_total", counter, "Hedged scatter requests armed.", func(fs shard.FabricStats) any { return fs.Hedges }},
	{"duplicates", "ucgraph_fabric_duplicates_total", counter, "Suppressed duplicate tally responses.", func(fs shard.FabricStats) any { return fs.Duplicates }},
	{"rescatters", "ucgraph_fabric_rescatters_total", counter, "Scatter blocks re-striped through retry rounds.", func(fs shard.FabricStats) any { return fs.Rescatters }},
	{"breaker_trips", "ucgraph_fabric_breaker_trips_total", counter, "Worker circuit breakers tripped.", func(fs shard.FabricStats) any { return fs.BreakerTrips }},
	{"quarantines", "ucgraph_fabric_quarantines_total", counter, "Workers quarantined for flapping or audit divergence.", func(fs shard.FabricStats) any { return fs.Quarantines }},
	{"integrity_rejects", "ucgraph_fabric_integrity_rejects_total", counter, "Frames rejected by wire integrity checks.", func(fs shard.FabricStats) any { return fs.IntegrityRejects }},
	{"audits", "ucgraph_fabric_audits_total", counter, "Scatter groups re-executed for audit.", func(fs shard.FabricStats) any { return fs.Audits }},
	{"audit_divergences", "ucgraph_fabric_audit_divergences_total", counter, "Audits that observed divergent tallies.", func(fs shard.FabricStats) any { return fs.AuditDivergences }},
}

// workerTable holds one shard worker's health numbers, as its
// coordinator sees them.
var workerTable = []stat[shard.WorkerStats]{
	{"addr", "", "", "", func(ws shard.WorkerStats) any { return ws.Addr }},
	{"state", "", "", "", func(ws shard.WorkerStats) any { return ws.State }},
	{"", "ucgraph_shard_worker_up", gauge, "1 while the worker is marked up.", func(ws shard.WorkerStats) any { return ws.State == "up" }},
	{"requests", "ucgraph_shard_worker_requests_total", counter, "Tally requests sent to the worker.", func(ws shard.WorkerStats) any { return ws.Requests }},
	{"failures", "ucgraph_shard_worker_failures_total", counter, "Tally requests the worker failed.", func(ws shard.WorkerStats) any { return ws.Failures }},
	{"duplicates", "ucgraph_shard_worker_duplicates_total", counter, "Hedged answers from the worker suppressed as duplicates.", func(ws shard.WorkerStats) any { return ws.Duplicates }},
	{"ranges_served", "ucgraph_shard_worker_ranges_served_total", counter, "World ranges tallied by the worker.", func(ws shard.WorkerStats) any { return ws.RangesServed }},
	{"worlds_served", "ucgraph_shard_worker_worlds_served_total", counter, "Worlds tallied by the worker.", func(ws shard.WorkerStats) any { return ws.WorldsServed }},
	{"breaker_trips", "ucgraph_shard_worker_breaker_trips_total", counter, "Trips of the worker's circuit breaker.", func(ws shard.WorkerStats) any { return ws.BreakerTrips }},
	{"breaker_open", "ucgraph_shard_worker_breaker_open", gauge, "1 while the worker's circuit breaker is open.", func(ws shard.WorkerStats) any { return ws.BreakerOpen }},
	{"integrity_rejects", "ucgraph_shard_worker_integrity_rejects_total", counter, "Worker frames rejected by wire integrity checks.", func(ws shard.WorkerStats) any { return ws.IntegrityRejects }},
	{"last_rtt_ms", "ucgraph_shard_worker_last_rtt_ms", gauge, "Round trip of the last successful request, in milliseconds.", func(ws shard.WorkerStats) any { return ws.LastRTT.Milliseconds() }},
	{"last_ok_unix_ms", "ucgraph_shard_worker_last_ok_unix_ms", gauge, "Unix time of the last successful request, in milliseconds; 0 before the first.", func(ws shard.WorkerStats) any {
		if ws.LastOK.IsZero() {
			return int64(0)
		}
		return ws.LastOK.UnixMilli()
	}},
	{"last_err", "", "", "", func(ws shard.WorkerStats) any { return ws.LastErr }},
}

// statsObject renders one snapshot of a source as a /statsz object.
func statsObject[S any](tab []stat[S], snap S) map[string]any {
	out := make(map[string]any, len(tab))
	for _, st := range tab {
		if st.key != "" {
			out[st.key] = st.val(snap)
		}
	}
	return out
}

// statsObjects renders a list of snapshots as a JSON array of objects
// (empty, not null, for no snapshots).
func statsObjects[S any](tab []stat[S], snaps []S) []map[string]any {
	out := make([]map[string]any, len(snaps))
	for i, snap := range snaps {
		out[i] = statsObject(tab, snap)
	}
	return out
}

// labelled is one snapshot of a source and the labels of its samples.
type labelled[S any] struct {
	labels []obs.Label
	snap   S
}

// writeFamilies renders a table's families, one sample per snapshot.
func writeFamilies[S any](pw *obs.Writer, tab []stat[S], snaps ...labelled[S]) {
	for _, st := range tab {
		if st.metric == "" {
			continue
		}
		pw.Family(st.metric, st.help, st.typ)
		for _, sn := range snaps {
			v := st.val(sn.snap)
			if byState, ok := v.(map[string]int); ok { // the job counts
				for _, state := range jobStates {
					pw.Sample(st.metric, []obs.Label{{Name: "state", Value: state}}, float64(byState[state]))
				}
				continue
			}
			pw.Sample(st.metric, sn.labels, sample(v))
		}
	}
}

// sample is a stat value as a /metricsz sample value.
func sample(v any) float64 {
	switch x := v.(type) {
	case bool:
		if x {
			return 1
		}
		return 0
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	}
	return v.(float64)
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
