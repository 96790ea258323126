package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/graph"
	"ucgraph/internal/influence"
	"ucgraph/internal/knn"
	"ucgraph/internal/metrics"
	"ucgraph/internal/rng"
)

// testGraph builds a deterministic ring-with-chords uncertain graph.
func testGraph(t testing.TB, n int, seed uint64) *graph.Uncertain {
	t.Helper()
	x := rng.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%n), 0.3+0.65*x.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/4; i++ {
		u, v := int32(x.Intn(n)), int32(x.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v, 0.2+0.5*x.Float64()) // duplicate edges rejected, fine
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newTestServer serves one graph named "ring" under world seed 7.
func newTestServer(t testing.TB, g *graph.Uncertain, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON request and decodes the JSON response.
func post(t testing.TB, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

func get(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthzGraphsStatsz(t *testing.T) {
	g := testGraph(t, 64, 1)
	_, ts := newTestServer(t, g, Options{})

	var health struct {
		Status string `json:"status"`
		Graphs int    `json:"graphs"`
	}
	if code := get(t, ts.URL+"/healthz", &health); code != 200 || health.Status != "ok" || health.Graphs != 1 {
		t.Fatalf("healthz: code %d, %+v", code, health)
	}

	var graphs struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if code := get(t, ts.URL+"/v1/graphs", &graphs); code != 200 {
		t.Fatalf("graphs: code %d", code)
	}
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].Name != "ring" ||
		graphs.Graphs[0].Nodes != g.NumNodes() || graphs.Graphs[0].Seed != 7 {
		t.Fatalf("graphs: %+v", graphs)
	}

	// Drive some sampling, then statsz must report materializations.
	var pair struct {
		Probability float64 `json:"probability"`
	}
	if code, body := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "source": 0, "target": 5, "samples": 500,
	}, &pair); code != 200 {
		t.Fatalf("conn: code %d body %s", code, body)
	}
	var stats struct {
		Requests uint64 `json:"requests"`
		Graphs   map[string]struct {
			Store storeStats `json:"store"`
		} `json:"graphs"`
	}
	if code := get(t, ts.URL+"/statsz", &stats); code != 200 {
		t.Fatalf("statsz: code %d", code)
	}
	st := stats.Graphs["ring"].Store
	if st.Worlds < 500 || st.Materializations == 0 {
		t.Fatalf("statsz store counters not populated: %+v", st)
	}
	if stats.Requests == 0 {
		t.Fatal("request counter not populated")
	}
}

func TestConnPairMatchesLibrary(t *testing.T) {
	g := testGraph(t, 96, 2)
	_, ts := newTestServer(t, g, Options{})

	const r = 1200
	want := conn.NewMonteCarlo(g, 7).Pair(3, 40, r)
	var resp struct {
		Probability float64 `json:"probability"`
		Samples     int     `json:"samples"`
	}
	code, body := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "source": 3, "target": 40, "samples": r,
	}, &resp)
	if code != 200 {
		t.Fatalf("code %d body %s", code, body)
	}
	if resp.Probability != want || resp.Samples != r {
		t.Fatalf("server %v != library %v", resp.Probability, want)
	}
}

func TestConnCentersMatchesLibraryWithProjection(t *testing.T) {
	g := testGraph(t, 96, 3)
	_, ts := newTestServer(t, g, Options{})

	centers := []int32{0, 17, 33}
	targets := []int32{5, 80}
	const r = 900
	want := conn.NewMonteCarlo(g, 7).FromCenters(centers, conn.Unlimited, r)

	var resp struct {
		Estimates [][]float64 `json:"estimates"`
	}
	code, body := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "centers": centers, "targets": targets, "samples": r,
	}, &resp)
	if code != 200 {
		t.Fatalf("code %d body %s", code, body)
	}
	if len(resp.Estimates) != len(centers) {
		t.Fatalf("want %d estimate vectors, got %d", len(centers), len(resp.Estimates))
	}
	for i := range centers {
		for j, tgt := range targets {
			if resp.Estimates[i][j] != want[i][tgt] {
				t.Fatalf("center %d target %d: server %v != library %v",
					centers[i], tgt, resp.Estimates[i][j], want[i][tgt])
			}
		}
	}
}

func TestConnDepthLimitedPair(t *testing.T) {
	g := testGraph(t, 64, 4)
	_, ts := newTestServer(t, g, Options{})

	const r, depth = 800, 2
	want := conn.NewMonteCarlo(g, 7).FromCenter(0, depth, r)[9]
	var resp struct {
		Probability float64 `json:"probability"`
	}
	code, body := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "source": 0, "target": 9, "depth": depth, "samples": r,
	}, &resp)
	if code != 200 {
		t.Fatalf("code %d body %s", code, body)
	}
	if resp.Probability != want {
		t.Fatalf("server %v != library %v", resp.Probability, want)
	}
}

// libraryCluster runs the library path the server must match bit for bit:
// a fresh estimator over the shared (g, seed) store, handed to the ctx
// driver with the same options as the daemon's.
func libraryCluster(t testing.TB, g *graph.Uncertain, algo string, k int, driverSeed uint64) (*core.Clustering, core.Stats) {
	t.Helper()
	oracle := conn.NewMonteCarlo(g, 7)
	opt := core.Options{Seed: driverSeed}
	var (
		cl  *core.Clustering
		st  core.Stats
		err error
	)
	if algo == "acp" {
		cl, st, err = core.ACPCtx(context.Background(), oracle, k, opt)
	} else {
		cl, st, err = core.MCPCtx(context.Background(), oracle, k, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return cl, st
}

func checkClusterMatch(t testing.TB, resp *clusterResponse, want *core.Clustering, wantSt core.Stats) {
	t.Helper()
	if len(resp.Centers) != len(want.Centers) {
		t.Fatalf("centers: %v != %v", resp.Centers, want.Centers)
	}
	for i := range want.Centers {
		if resp.Centers[i] != want.Centers[i] {
			t.Fatalf("centers: %v != %v", resp.Centers, want.Centers)
		}
	}
	for u := range want.Assign {
		if resp.Assign[u] != want.Assign[u] || resp.Prob[u] != want.Prob[u] {
			t.Fatalf("node %d: server (%d, %v) != library (%d, %v)",
				u, resp.Assign[u], resp.Prob[u], want.Assign[u], want.Prob[u])
		}
	}
	if resp.Stats == nil || resp.Stats.FinalQ != wantSt.FinalQ ||
		resp.Stats.Invocations != wantSt.Invocations ||
		resp.Stats.OracleCalls != wantSt.OracleCalls {
		t.Fatalf("stats: server %+v != library %+v", resp.Stats, wantSt)
	}
}

func TestClusterSyncBitIdenticalToLibrary(t *testing.T) {
	g := testGraph(t, 96, 5)
	_, ts := newTestServer(t, g, Options{})

	for _, algo := range []string{"mcp", "acp"} {
		want, wantSt := libraryCluster(t, g, algo, 4, 11)
		var resp clusterResponse
		code, body := post(t, ts.URL+"/v1/cluster", map[string]any{
			"graph": "ring", "algo": algo, "k": 4, "seed": 11,
		}, &resp)
		if code != 200 {
			t.Fatalf("%s: code %d body %s", algo, code, body)
		}
		checkClusterMatch(t, &resp, want, wantSt)
	}
}

// TestConcurrentConnAndClusterBitIdentical is the end-to-end acceptance
// check: many clients hammer /v1/conn (pair + multi-center) and
// /v1/cluster concurrently against ONE shared store, and every single
// response must equal the corresponding library answer bit for bit.
func TestConcurrentConnAndClusterBitIdentical(t *testing.T) {
	g := testGraph(t, 96, 6)
	s, ts := newTestServer(t, g, Options{Gate: 3})

	// Library ground truth, computed before any server traffic.
	ref := conn.NewMonteCarlo(g, 7)
	wantPair := make([]float64, 8)
	for i := range wantPair {
		wantPair[i] = ref.Pair(int32(i), int32(90-i), 700)
	}
	centers := []int32{2, 30, 61}
	wantCenters := conn.NewMonteCarlo(g, 7).FromCenters(centers, conn.Unlimited, 650)
	wantMCP, wantMCPSt := libraryCluster(t, g, "mcp", 4, 21)
	wantACP, wantACPSt := libraryCluster(t, g, "acp", 3, 22)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var pr struct {
					Probability float64 `json:"probability"`
				}
				code, body := post(t, ts.URL+"/v1/conn", map[string]any{
					"graph": "ring", "source": i, "target": 90 - i, "samples": 700,
				}, &pr)
				if code != 200 {
					errs <- fmt.Sprintf("pair: code %d body %s", code, body)
					return
				}
				if pr.Probability != wantPair[i] {
					errs <- fmt.Sprintf("pair %d: %v != %v", i, pr.Probability, wantPair[i])
				}
				var ce struct {
					Estimates [][]float64 `json:"estimates"`
				}
				code, body = post(t, ts.URL+"/v1/conn", map[string]any{
					"graph": "ring", "centers": centers, "samples": 650,
				}, &ce)
				if code != 200 {
					errs <- fmt.Sprintf("centers: code %d body %s", code, body)
					return
				}
				for ci := range centers {
					for u := range wantCenters[ci] {
						if ce.Estimates[ci][u] != wantCenters[ci][u] {
							errs <- fmt.Sprintf("center %d node %d: %v != %v",
								centers[ci], u, ce.Estimates[ci][u], wantCenters[ci][u])
							return
						}
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				algo, k, seed := "mcp", 4, uint64(21)
				want, wantSt := wantMCP, wantMCPSt
				if w == 1 {
					algo, k, seed = "acp", 3, 22
					want, wantSt = wantACP, wantACPSt
				}
				var resp clusterResponse
				code, body := post(t, ts.URL+"/v1/cluster", map[string]any{
					"graph": "ring", "algo": algo, "k": k, "seed": seed,
				}, &resp)
				if code != 200 {
					errs <- fmt.Sprintf("cluster %s: code %d body %s", algo, code, body)
					return
				}
				checkClusterMatch(t, &resp, want, wantSt)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// All of that traffic ran against one store: the shared registry must
	// report exactly one store for (g, 7), and it must have seen reuse.
	st := s.graphs["ring"].store.Stats()
	if st.Hits == 0 {
		t.Fatalf("shared store saw no block reuse under concurrent traffic: %+v", st)
	}
}

func TestClusterAsyncJobLifecycle(t *testing.T) {
	g := testGraph(t, 96, 8)
	_, ts := newTestServer(t, g, Options{})

	want, wantSt := libraryCluster(t, g, "mcp", 4, 31)

	var accepted jobView
	code, body := post(t, ts.URL+"/v1/cluster", map[string]any{
		"graph": "ring", "algo": "mcp", "k": 4, "seed": 31, "async": true,
	}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: code %d body %s", code, body)
	}
	if accepted.ID == "" || accepted.Status != JobRunning {
		t.Fatalf("async submit: %+v", accepted)
	}

	deadline := time.Now().Add(30 * time.Second)
	var j jobView
	for {
		if get(t, ts.URL+"/v1/jobs/"+accepted.ID, &j); j.Status != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck running: %+v", j)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if j.Status != JobDone || j.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", j)
	}
	checkClusterMatch(t, j.Result, want, wantSt)

	if code := get(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: code %d", code)
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	g := testGraph(t, 64, 9)
	s, ts := newTestServer(t, g, Options{Gate: 1})

	// Occupy the graph's only admission slot so the job queues.
	h := s.graphs["ring"]
	h.gate <- struct{}{}
	defer func() { <-h.gate }()

	var accepted jobView
	code, _ := post(t, ts.URL+"/v1/cluster", map[string]any{
		"graph": "ring", "algo": "mcp", "k": 3, "async": true,
	}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}

	// Cancel it; the queued admission must abort with a cancellation error.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+accepted.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 200 {
		t.Fatalf("cancel: %v %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var j jobView
	for {
		if get(t, ts.URL+"/v1/jobs/"+accepted.ID, &j); j.Status != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled job stuck running: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if j.Status != JobError || !strings.Contains(j.Error, "context canceled") {
		t.Fatalf("want cancelled job, got %+v", j)
	}
}

func TestDeadlineExceededReturns504(t *testing.T) {
	g := testGraph(t, 512, 10)
	_, ts := newTestServer(t, g, Options{})

	code, body := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "source": 0, "target": 1,
		"samples": 1 << 19, "timeout_ms": 1,
	}, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", code, body)
	}
}

func TestAdmissionGateRespectsDeadline(t *testing.T) {
	g := testGraph(t, 64, 11)
	s, ts := newTestServer(t, g, Options{Gate: 1})
	h := s.graphs["ring"]
	h.gate <- struct{}{} // fill the gate
	defer func() { <-h.gate }()

	code, body := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "source": 0, "target": 1, "timeout_ms": 30,
	}, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("want 504 from admission queue, got %d: %s", code, body)
	}
}

func TestKNNMatchesLibrary(t *testing.T) {
	g := testGraph(t, 72, 12)
	s, ts := newTestServer(t, g, Options{})

	const r = 400
	dd := knn.SampleStore(s.graphs["ring"].store, 4, r)
	want := dd.KNN(5, knn.MedianDistance)

	var resp struct {
		Neighbors []neighborView `json:"neighbors"`
	}
	code, body := post(t, ts.URL+"/v1/knn", map[string]any{
		"graph": "ring", "source": 4, "k": 5, "measure": "median", "samples": r,
	}, &resp)
	if code != 200 {
		t.Fatalf("code %d body %s", code, body)
	}
	if len(resp.Neighbors) != len(want) {
		t.Fatalf("want %d neighbors, got %d", len(want), len(resp.Neighbors))
	}
	for i, nb := range want {
		got := resp.Neighbors[i]
		if got.Node != nb.Node || got.Distance != nb.Distance || got.Reliability != nb.Reliability {
			t.Fatalf("neighbor %d: %+v != %+v", i, got, nb)
		}
	}
}

func TestInfluenceMatchesLibrary(t *testing.T) {
	g := testGraph(t, 72, 13)
	s, ts := newTestServer(t, g, Options{})
	store := s.graphs["ring"].store
	const r = 300

	wantSpread := influence.Spread(store, []int32{0, 9}, r)
	var spreadResp struct {
		Spread float64 `json:"spread"`
	}
	code, body := post(t, ts.URL+"/v1/influence", map[string]any{
		"graph": "ring", "seeds": []int32{0, 9}, "samples": r,
	}, &spreadResp)
	if code != 200 {
		t.Fatalf("spread: code %d body %s", code, body)
	}
	if spreadResp.Spread != wantSpread {
		t.Fatalf("spread: %v != %v", spreadResp.Spread, wantSpread)
	}

	wantGreedy, err := influence.Greedy(store, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	var greedyResp struct {
		Seeds  []int32   `json:"seeds"`
		Spread []float64 `json:"spread"`
	}
	code, body = post(t, ts.URL+"/v1/influence", map[string]any{
		"graph": "ring", "k": 3, "samples": r,
	}, &greedyResp)
	if code != 200 {
		t.Fatalf("greedy: code %d body %s", code, body)
	}
	for i := range wantGreedy.Seeds {
		if greedyResp.Seeds[i] != wantGreedy.Seeds[i] || greedyResp.Spread[i] != wantGreedy.Spread[i] {
			t.Fatalf("greedy: %+v != %+v", greedyResp, wantGreedy)
		}
	}
}

func TestReliabilityMatchesLibrary(t *testing.T) {
	g := testGraph(t, 72, 14)
	s, ts := newTestServer(t, g, Options{})
	store := s.graphs["ring"].store
	const r = 350

	cases := []struct {
		kind string
		set  []int32
		want float64
	}{
		{"set", []int32{0, 5, 11}, metrics.SetReliability(store, []int32{0, 5, 11}, r)},
		{"all_terminal", nil, metrics.AllTerminalReliability(store, r)},
		{"components", nil, metrics.ExpectedComponents(store, r)},
		{"largest_component", nil, metrics.LargestComponentFraction(store, r)},
	}
	for _, c := range cases {
		var resp struct {
			Value float64 `json:"value"`
		}
		body := map[string]any{"graph": "ring", "kind": c.kind, "samples": r}
		if c.set != nil {
			body["set"] = c.set
		}
		code, raw := post(t, ts.URL+"/v1/reliability", body, &resp)
		if code != 200 {
			t.Fatalf("%s: code %d body %s", c.kind, code, raw)
		}
		if resp.Value != c.want {
			t.Fatalf("%s: %v != %v", c.kind, resp.Value, c.want)
		}
	}
}

func TestValidation(t *testing.T) {
	g := testGraph(t, 32, 15)
	_, ts := newTestServer(t, g, Options{MaxSamples: 1000})

	cases := []struct {
		name string
		path string
		body map[string]any
		code int
	}{
		{"unknown graph", "/v1/conn", map[string]any{"graph": "nope", "source": 0, "target": 1}, 404},
		{"missing graph", "/v1/conn", map[string]any{"source": 0, "target": 1}, 400},
		{"node out of range", "/v1/conn", map[string]any{"graph": "ring", "source": 0, "target": 99}, 400},
		{"center out of range", "/v1/conn", map[string]any{"graph": "ring", "centers": []int32{500}}, 400},
		{"no query shape", "/v1/conn", map[string]any{"graph": "ring"}, 400},
		{"samples over cap", "/v1/conn", map[string]any{"graph": "ring", "source": 0, "target": 1, "samples": 5000}, 400},
		{"negative samples", "/v1/conn", map[string]any{"graph": "ring", "source": 0, "target": 1, "samples": -1}, 400},
		{"bad algo", "/v1/cluster", map[string]any{"graph": "ring", "algo": "zap", "k": 2}, 400},
		{"k omitted", "/v1/cluster", map[string]any{"graph": "ring", "algo": "mcp"}, 400},
		{"k too large", "/v1/cluster", map[string]any{"graph": "ring", "algo": "mcp", "k": 32}, 400},
		{"gmm k over n", "/v1/cluster", map[string]any{"graph": "ring", "algo": "gmm", "k": 33}, 400},
		{"bad measure", "/v1/knn", map[string]any{"graph": "ring", "source": 0, "measure": "zap"}, 400},
		{"bad kind", "/v1/reliability", map[string]any{"graph": "ring", "kind": "zap"}, 400},
		{"empty set", "/v1/reliability", map[string]any{"graph": "ring", "kind": "set"}, 400},
		{"influence no shape", "/v1/influence", map[string]any{"graph": "ring"}, 400},
		{"influence k over n", "/v1/influence", map[string]any{"graph": "ring", "k": 33}, 400},
	}
	for _, c := range cases {
		if code, body := post(t, ts.URL+c.path, c.body, nil); code != c.code {
			t.Errorf("%s: want %d, got %d (%s)", c.name, c.code, code, body)
		}
	}
}

func TestJobTableRetainsBoundedFinishedJobs(t *testing.T) {
	tb := newJobTable()
	var first *job
	for i := 0; i < maxFinishedJobs+5; i++ {
		j := tb.create("g", "mcp", func() {})
		if first == nil {
			first = j
		}
		j.finish(&clusterResponse{}, nil)
		tb.noteFinished(j.id)
	}
	if _, ok := tb.get(first.id); ok {
		t.Fatal("oldest finished job should have been evicted")
	}
	if len(tb.jobs) != maxFinishedJobs {
		t.Fatalf("retained %d finished jobs, want %d", len(tb.jobs), maxFinishedJobs)
	}
	// The newest finished job is still pollable.
	if j, ok := tb.get(fmt.Sprintf("job-%d", maxFinishedJobs+5)); !ok || j.view().Status != JobDone {
		t.Fatal("newest finished job must remain pollable")
	}
}

func TestServerRejectsBadConfigs(t *testing.T) {
	g := testGraph(t, 16, 16)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("no graphs accepted")
	}
	if _, err := New([]GraphConfig{{Name: "", Graph: g}}, Options{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New([]GraphConfig{{Name: "a", Graph: g}, {Name: "a", Graph: g}}, Options{}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := New([]GraphConfig{{Name: "a", Graph: nil}}, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}
