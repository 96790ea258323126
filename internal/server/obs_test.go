package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ucgraph/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// traceOf decodes the "trace" field of a JSON response body.
func traceOf(t testing.TB, raw string) obs.TraceView {
	t.Helper()
	var resp struct {
		Trace *obs.TraceView `json:"trace"`
	}
	mustUnmarshal(t, raw, &resp)
	if resp.Trace == nil {
		t.Fatalf("no trace in explain response: %s", raw)
	}
	return *resp.Trace
}

// spanNames returns the distinct span names of a trace view.
func spanNames(v obs.TraceView) map[string]int {
	out := map[string]int{}
	for _, sp := range v.Spans {
		out[sp.Name]++
	}
	return out
}

// TestExplainConnTrace: "explain": true returns the finished trace
// inline — admission and estimate spans with store-tier attribution —
// and the estimates are byte-identical to the same query without
// explain (observation never alters estimation).
func TestExplainConnTrace(t *testing.T) {
	g := testGraph(t, 64, 1)
	_, ts := newTestServer(t, g, Options{})

	req := map[string]any{"graph": "ring", "centers": []int32{1, 9}, "samples": 400}
	code, plain := post(t, ts.URL+"/v1/conn", req, nil)
	if code != 200 {
		t.Fatalf("plain conn: %d: %s", code, plain)
	}
	req["explain"] = true
	code, raw := post(t, ts.URL+"/v1/conn", req, nil)
	if code != 200 {
		t.Fatalf("explain conn: %d: %s", code, raw)
	}
	tr := traceOf(t, raw)
	names := spanNames(tr)
	for _, want := range []string{"/v1/conn", "admission", "estimate"} {
		if names[want] == 0 {
			t.Fatalf("trace missing %q span: %v", want, names)
		}
	}
	var est obs.SpanView
	for _, sp := range tr.Spans {
		if sp.Name == "estimate" {
			est = sp
		}
	}
	for _, key := range []string{"store_ram_hits", "store_disk_hits", "store_recomputes", "store_materializations"} {
		if _, ok := est.Attrs[key]; !ok {
			t.Fatalf("estimate span missing %q: %+v", key, est.Attrs)
		}
	}

	// Strip the trace and the two answers must match exactly.
	var a, b map[string]any
	mustUnmarshal(t, plain, &a)
	mustUnmarshal(t, raw, &b)
	delete(b, "trace")
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("explain changed the answer:\n%s\nvs\n%s", ja, jb)
	}
}

// TestExplainShardedConnTrace is the acceptance path: against a sharded
// daemon, an explained /v1/conn returns a trace with at least one span
// per scatter round and per-worker child spans carrying the worker-side
// cache/tier attribution fetched over the v2 wire.
func TestExplainShardedConnTrace(t *testing.T) {
	g := testGraph(t, 72, 5)
	s, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, Options{
		Shards: startShardWorkers(t, g, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	code, raw := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "centers": []int32{1, 33}, "samples": 600, "explain": true,
	}, nil)
	if code != 200 {
		t.Fatalf("sharded explain conn: %d: %s", code, raw)
	}
	tr := traceOf(t, raw)
	names := spanNames(tr)
	if names["scatter_round"] == 0 {
		t.Fatalf("sharded trace has no scatter_round span: %v", names)
	}
	workers, scanned := 0, 0.0
	for _, sp := range tr.Spans {
		if sp.Name != "worker" {
			continue
		}
		workers++
		if sp.Attrs["outcome"] != "won" {
			continue
		}
		n, ok := sp.Attrs["worker_worlds_scanned"].(float64)
		if !ok || n <= 0 {
			t.Fatalf("worker span missing wire-carried worlds-scanned: %+v", sp.Attrs)
		}
		scanned += n
		if _, ok := sp.Attrs["store_ram_hits"]; !ok {
			t.Fatalf("worker span missing wire-carried store_ram_hits: %+v", sp.Attrs)
		}
	}
	if workers == 0 {
		t.Fatal("sharded trace has no per-worker child spans")
	}
	if scanned != 600 {
		t.Fatalf("worker spans account for %v scanned worlds, want 600", scanned)
	}
}

// TestExplainAdaptiveTraceAndStream: adaptive explained queries carry
// adaptive_round spans; in streaming mode the trace arrives as one
// trailing SSE frame after the final estimate frame.
func TestExplainAdaptiveTraceAndStream(t *testing.T) {
	g := testGraph(t, 48, 3)
	_, ts := newTestServer(t, g, Options{})

	code, raw := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "source": 0, "target": 24,
		"eps": 0.2, "delta": 0.1, "samples": 4096, "explain": true,
	}, nil)
	if code != 200 {
		t.Fatalf("adaptive explain: %d: %s", code, raw)
	}
	if names := spanNames(traceOf(t, raw)); names["adaptive_round"] == 0 {
		t.Fatalf("adaptive trace has no adaptive_round span: %v", names)
	}

	body, _ := json.Marshal(map[string]any{
		"graph": "ring", "source": 0, "target": 24,
		"eps": 0.2, "delta": 0.1, "samples": 4096,
		"stream": true, "explain": true,
	})
	resp, err := http.Post(ts.URL+"/v1/conn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var frames []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var f map[string]any
			mustUnmarshal(t, data, &f)
			frames = append(frames, f)
		}
	}
	if len(frames) < 2 {
		t.Fatalf("stream produced %d frames, want estimate frames plus a trace frame", len(frames))
	}
	last, prev := frames[len(frames)-1], frames[len(frames)-2]
	if last["trace"] == nil || last["explain"] != true {
		t.Fatalf("last frame is not the trace frame: %v", last)
	}
	if prev["final"] != true {
		t.Fatalf("frame before the trace frame is not final: %v", prev)
	}
}

// TestExplainClusterTrace: sync cluster explain returns the trace on the
// response; explain with async is rejected up front.
func TestExplainClusterTrace(t *testing.T) {
	g := testGraph(t, 48, 3)
	_, ts := newTestServer(t, g, Options{})

	var res clusterResponse
	code, raw := post(t, ts.URL+"/v1/cluster", map[string]any{
		"graph": "ring", "algo": "mcp", "k": 3, "seed": 11, "explain": true,
	}, &res)
	if code != 200 {
		t.Fatalf("cluster explain: %d: %s", code, raw)
	}
	if res.Trace == nil {
		t.Fatal("cluster explain response carries no trace")
	}
	names := spanNames(*res.Trace)
	for _, want := range []string{"/v1/cluster", "admission", "estimate"} {
		if names[want] == 0 {
			t.Fatalf("cluster trace missing %q span: %v", want, names)
		}
	}
	if code, _ := post(t, ts.URL+"/v1/cluster", map[string]any{
		"graph": "ring", "algo": "mcp", "k": 3, "async": true, "explain": true,
	}, nil); code != 400 {
		t.Fatalf("explain+async: code %d, want 400", code)
	}
}

// TestExplainClusterStream: a streamed, explained clustering ends like
// every streamed answer — the "final": true result frame, then one
// trailing {"explain": true, "trace": ...} frame.
func TestExplainClusterStream(t *testing.T) {
	g := testGraph(t, 48, 3)
	_, ts := newTestServer(t, g, Options{})
	frames, errEvent := sseFrames(t, ts.URL+"/v1/cluster", map[string]any{
		"graph": "ring", "algo": "mcp", "k": 3, "seed": 11, "stream": true, "explain": true,
	})
	if errEvent != nil || len(frames) < 2 {
		t.Fatalf("stream: %d frames, error %v", len(frames), errEvent)
	}
	last, prev := frames[len(frames)-1], frames[len(frames)-2]
	if last["explain"] != true || last["trace"] == nil || len(last) != 2 {
		t.Fatalf("last frame is not the trace frame: keys %v", keys(last))
	}
	if prev["final"] != true || prev["result"] == nil || prev["trace"] != nil {
		t.Fatalf("frame before the trace frame: keys %v", keys(prev))
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMetricszPrometheusParses scrapes a sharded daemon after real
// traffic and validates the exposition against the strict parser —
// counters, gauges, per-graph families, and the latency histograms.
func TestMetricszPrometheusParses(t *testing.T) {
	g := testGraph(t, 72, 5)
	s, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, Options{
		Shards: startShardWorkers(t, g, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	if code, raw := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "centers": []int32{1}, "samples": 400, "explain": true,
	}, nil); code != 200 {
		t.Fatalf("traffic: %d: %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("/metricsz is not valid Prometheus text: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"ucgraph_build_info{",
		"ucgraph_requests_total ",
		"ucgraph_store_worlds{graph=\"ring\"}",
		"ucgraph_fabric_hedges_total{graph=\"ring\"}",
		"ucgraph_shard_worker_up{graph=\"ring\",worker=",
		"ucgraph_request_seconds_bucket{endpoint=\"/v1/conn\",le=",
		"ucgraph_stage_seconds_bucket{stage=\"scatter_round\",le=",
		"ucgraph_shard_rtt_seconds_bucket{worker=",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metricsz missing %q:\n%s", want, buf.String())
		}
	}
}

// TestDebugTracesRing: finished traces land in the bounded ring, are
// retrievable by ID, and unknown IDs 404.
func TestDebugTracesRing(t *testing.T) {
	g := testGraph(t, 48, 3)
	_, ts := newTestServer(t, g, Options{TraceRing: 4})

	code, raw := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "source": 0, "target": 20, "samples": 300, "explain": true,
	}, nil)
	if code != 200 {
		t.Fatalf("conn: %d: %s", code, raw)
	}
	id := traceOf(t, raw).TraceID

	var ring struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if code := get(t, ts.URL+"/debug/traces", &ring); code != 200 {
		t.Fatal("/debug/traces failed")
	}
	if len(ring.Traces) == 0 || ring.Traces[0].TraceID != id {
		t.Fatalf("ring does not lead with the last trace %s: %+v", id, ring.Traces)
	}
	var one obs.TraceView
	if code := get(t, ts.URL+"/debug/traces/"+id, &one); code != 200 || one.TraceID != id {
		t.Fatalf("fetch by ID: code %d, trace %q", code, one.TraceID)
	}
	if code := get(t, ts.URL+"/debug/traces/ffffffffffffffff", nil); code != 404 {
		t.Fatalf("unknown trace ID: code %d, want 404", code)
	}
}

// TestSlowQueryLogging: a query slower than Options.SlowQuery emits one
// slog record carrying the trace.
func TestSlowQueryLogging(t *testing.T) {
	g := testGraph(t, 48, 3)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, g, Options{SlowQuery: time.Nanosecond, SlowLog: logger})

	code, raw := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "source": 0, "target": 20, "samples": 300, "explain": true,
	}, nil)
	if code != 200 {
		t.Fatalf("conn: %d: %s", code, raw)
	}
	id := traceOf(t, raw).TraceID
	line := buf.String()
	if !strings.Contains(line, "slow query") || !strings.Contains(line, id) {
		t.Fatalf("slow-query log missing the trace: %q", line)
	}
	var rec map[string]any
	mustUnmarshal(t, strings.SplitN(line, "\n", 2)[0], &rec)
	if rec["trace_id"] != id {
		t.Fatalf("slow-query record trace_id = %v, want %s", rec["trace_id"], id)
	}
}

// ---- /statsz field audit ------------------------------------------------

var snakeRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// statszPaths walks a decoded /statsz body and records every object key
// path, normalizing the dynamic map levels (graph names) so the set is
// stable across deployments. Array elements share their parent's path.
func statszPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix == "graphs" {
				p = "<graph>"
			}
			if prefix != "" {
				p = prefix + "." + p
			}
			out[p] = true
			// Job states are transient counts, not schema.
			if prefix == "" && k == "jobs" {
				continue
			}
			statszPaths(p, child, out)
		}
	case []any:
		for _, child := range x {
			statszPaths(prefix+"[]", child, out)
		}
	}
}

// TestStatszKeysGoldenAndDocumented pins the /statsz schema: every key
// is snake_case, the full key set matches the golden file (so adding or
// renaming a field is a conscious, reviewed act), and every leaf key is
// documented in the docs/OPERATIONS.md field table. Run with
// -update-golden after an intentional change.
func TestStatszKeysGoldenAndDocumented(t *testing.T) {
	g := testGraph(t, 72, 5)
	s, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, Options{
		Shards: startShardWorkers(t, g, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	// Drive one query so conditional fields (shard health, last_ok) are
	// populated before the snapshot.
	if code, raw := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "centers": []int32{1}, "samples": 300,
	}, nil); code != 200 {
		t.Fatalf("traffic: %d: %s", code, raw)
	}

	var statsz map[string]any
	if code := get(t, ts.URL+"/statsz", &statsz); code != 200 {
		t.Fatal("statsz failed")
	}
	set := map[string]bool{}
	statszPaths("", statsz, set)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	for _, p := range paths {
		leaf := p[strings.LastIndex(p, ".")+1:]
		leaf = strings.TrimSuffix(leaf, "[]")
		if leaf == "<graph>" {
			continue
		}
		if !snakeRE.MatchString(leaf) {
			t.Errorf("/statsz key %q (in %s) is not snake_case", leaf, p)
		}
	}

	golden := filepath.Join("testdata", "statsz_keys.golden")
	want := strings.Join(paths, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	have, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if string(have) != want {
		t.Fatalf("/statsz key set changed — update docs/OPERATIONS.md and rerun with -update-golden.\ngolden:\n%s\ngot:\n%s", have, want)
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("reading OPERATIONS.md: %v", err)
	}
	for _, p := range paths {
		leaf := strings.TrimSuffix(p[strings.LastIndex(p, ".")+1:], "[]")
		if leaf == "<graph>" {
			continue
		}
		if !bytes.Contains(doc, []byte("`"+leaf+"`")) {
			t.Errorf("/statsz key `%s` (path %s) is not documented in docs/OPERATIONS.md", leaf, p)
		}
	}
}

// TestVersionSurfaces: build info appears in /statsz and /metricsz.
func TestVersionSurfaces(t *testing.T) {
	g := testGraph(t, 32, 2)
	_, ts := newTestServer(t, g, Options{})
	var statsz struct {
		Build obs.Build `json:"build"`
	}
	if code := get(t, ts.URL+"/statsz", &statsz); code != 200 {
		t.Fatal("statsz failed")
	}
	if statsz.Build.GoVersion == "" || statsz.Build.Version == "" {
		t.Fatalf("statsz build info incomplete: %+v", statsz.Build)
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("go_version=%q", statsz.Build.GoVersion)) {
		t.Fatalf("/metricsz build info disagrees with /statsz: %s", buf.String())
	}
}
