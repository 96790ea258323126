package server

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/shard"
)

func mustUnmarshal(t testing.TB, raw string, into any) {
	t.Helper()
	if err := json.Unmarshal([]byte(raw), into); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
}

// startShardWorkers spins up count in-process shard workers serving g as
// "ring" under seed 7 (matching newTestServer) and returns their URLs.
func startShardWorkers(t testing.TB, g *graph.Uncertain, count int) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		w, err := shard.NewWorker([]shard.WorkerGraph{{Name: "ring", Graph: g, Seed: 7}}, shard.WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs
}

// TestShardedServerBitIdenticalToLocal runs the same /v1/conn,
// /v1/cluster, /v1/knn, /v1/influence and /v1/reliability requests against
// an unsharded daemon and a coordinator over 1, 2 and 4 workers, asserting identical
// response payloads — the end-to-end form of the determinism contract:
// sharding changes where tallies are computed, never what they sum to.
func TestShardedServerBitIdenticalToLocal(t *testing.T) {
	g := testGraph(t, 72, 5)
	_, plain := newTestServer(t, g, Options{})

	requests := []struct {
		path string
		body map[string]any
	}{
		{"/v1/conn", map[string]any{"graph": "ring", "source": 0, "target": 40, "samples": 700}},
		{"/v1/conn", map[string]any{"graph": "ring", "centers": []int32{1, 9, 33}, "samples": 700}},
		{"/v1/conn", map[string]any{"graph": "ring", "centers": []int32{1, 9, 33}, "depth": 2, "samples": 300}},
		{"/v1/conn", map[string]any{"graph": "ring", "source": 4, "target": 20, "depth": 3, "samples": 300}},
		{"/v1/cluster", map[string]any{"graph": "ring", "algo": "mcp", "k": 3, "seed": 11}},
		{"/v1/knn", map[string]any{"graph": "ring", "source": 2, "k": 8, "samples": 400}},
		{"/v1/knn", map[string]any{"graph": "ring", "source": 2, "k": 8, "measure": "reliability", "samples": 400}},
		{"/v1/influence", map[string]any{"graph": "ring", "seeds": []int32{3, 50}, "samples": 400}},
		{"/v1/influence", map[string]any{"graph": "ring", "k": 3, "samples": 300}},
		{"/v1/reliability", map[string]any{"graph": "ring", "kind": "set", "set": []int32{2, 19, 44}, "samples": 400}},
		{"/v1/reliability", map[string]any{"graph": "ring", "kind": "all_terminal", "samples": 400}},
		{"/v1/reliability", map[string]any{"graph": "ring", "kind": "components", "samples": 400}},
		{"/v1/reliability", map[string]any{"graph": "ring", "kind": "largest_component", "samples": 400}},
	}
	want := make([]string, len(requests))
	for i, req := range requests {
		code, raw := post(t, plain.URL+req.path, req.body, nil)
		if code != 200 {
			t.Fatalf("plain %s: code %d: %s", req.path, code, raw)
		}
		want[i] = raw
	}

	for _, nw := range []int{1, 2, 4} {
		s, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, Options{
			Shards: startShardWorkers(t, g, nw),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		for i, req := range requests {
			code, raw := post(t, ts.URL+req.path, req.body, nil)
			if code != 200 {
				t.Fatalf("workers=%d %s: code %d: %s", nw, req.path, code, raw)
			}
			// Cluster responses carry elapsed_ms; everything else must be
			// byte-identical. For cluster, compare with timing stripped.
			if req.path == "/v1/cluster" {
				var a, b clusterResponse
				mustUnmarshal(t, want[i], &a)
				mustUnmarshal(t, raw, &b)
				a.ElapsedMS, b.ElapsedMS = 0, 0
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("workers=%d cluster response differs:\n%s\nvs\n%s", nw, want[i], raw)
				}
				continue
			}
			if raw != want[i] {
				t.Fatalf("workers=%d %s response differs:\n%s\nvs\n%s", nw, req.path, raw, want[i])
			}
		}
	}
}

// TestShardedHealthzReadiness: a coordinator with an unreachable worker
// reports not_ready (503) until every shard answers; with live workers it
// reports ok, and /statsz carries per-graph shard health.
func TestShardedHealthzReadiness(t *testing.T) {
	g := testGraph(t, 32, 2)

	dead := httptest.NewServer(nil)
	dead.Close()
	s, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, Options{
		Shards: []string{dead.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	var health struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if code := get(t, ts.URL+"/healthz", &health); code != 503 || health.Status != "not_ready" || health.Error == "" {
		t.Fatalf("healthz with dead shard: code %d, %+v", code, health)
	}

	s2, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, Options{
		Shards: startShardWorkers(t, g, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	health.Status, health.Error = "", ""
	if code := get(t, ts2.URL+"/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz with live shards: code %d, %+v", code, health)
	}

	// Drive one query so the shard stats show served ranges, then check
	// /statsz surfaces the shard health block.
	if code, raw := post(t, ts2.URL+"/v1/conn", map[string]any{
		"graph": "ring", "centers": []int32{0}, "samples": 300,
	}, nil); code != 200 {
		t.Fatalf("conn: code %d: %s", code, raw)
	}
	var statsz struct {
		Graphs map[string]struct {
			Shards []shardStats `json:"shards"`
		} `json:"graphs"`
	}
	if code := get(t, ts2.URL+"/statsz", &statsz); code != 200 {
		t.Fatal("statsz failed")
	}
	shs := statsz.Graphs["ring"].Shards
	if len(shs) != 2 {
		t.Fatalf("statsz shards: %+v", shs)
	}
	var worlds uint64
	for _, sh := range shs {
		if sh.Addr == "" {
			t.Fatalf("shard stat missing addr: %+v", sh)
		}
		worlds += sh.WorldsServed
	}
	if worlds < 300 {
		t.Fatalf("shards served %d worlds, want >= 300", worlds)
	}
}

// TestShardsMembershipEndpoint drives elastic membership over HTTP: a
// coordinator starts with one worker, a second joins via POST /v1/shards,
// the first is then removed — with every estimate along the way
// bit-identical to an unsharded daemon's.
func TestShardsMembershipEndpoint(t *testing.T) {
	g := testGraph(t, 48, 9)
	_, plain := newTestServer(t, g, Options{})
	workers := startShardWorkers(t, g, 2)

	s, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, Options{
		Shards: workers[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	connReq := map[string]any{"graph": "ring", "centers": []int32{1, 30}, "samples": 500}
	_, want := post(t, plain.URL+"/v1/conn", connReq, nil)
	check := func(stage string) {
		t.Helper()
		code, raw := post(t, ts.URL+"/v1/conn", connReq, nil)
		if code != 200 || raw != want {
			t.Fatalf("%s: code %d\n%s\nvs\n%s", stage, code, raw, want)
		}
	}
	check("one worker")

	var membership struct {
		Graphs map[string]struct {
			Workers []shardStats `json:"workers"`
		} `json:"graphs"`
	}
	if code, raw := post(t, ts.URL+"/v1/shards", map[string]any{"add": []string{workers[1]}}, &membership); code != 200 {
		t.Fatalf("add worker: code %d: %s", code, raw)
	}
	if got := len(membership.Graphs["ring"].Workers); got != 2 {
		t.Fatalf("workers after add = %d, want 2", got)
	}
	check("after join")

	if code, raw := post(t, ts.URL+"/v1/shards", map[string]any{"remove": []string{workers[0]}}, &membership); code != 200 {
		t.Fatalf("remove worker: code %d: %s", code, raw)
	}
	states := map[string]string{}
	for _, wk := range membership.Graphs["ring"].Workers {
		states[wk.Addr] = wk.State
	}
	if states[workers[0]] != "removed" || states[workers[1]] != "up" {
		t.Fatalf("states after remove: %v", states)
	}
	check("after leave")

	// Removing an unknown worker is a 404; empty requests are a 400.
	if code, _ := post(t, ts.URL+"/v1/shards", map[string]any{"remove": []string{"nope:1"}}, nil); code != 404 {
		t.Fatalf("unknown remove: code %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/shards", map[string]any{}, nil); code != 400 {
		t.Fatalf("empty membership post: code %d", code)
	}
	// A rejected request changes nothing, even the parts that were valid:
	// the 404 for "nope:1" leaves workers[0] removed and workers[1] up,
	// and a blank address is a 400, not a worker.
	membershipStates := func() map[string]string {
		t.Helper()
		var m struct {
			Graphs map[string]struct {
				Workers []shardStats `json:"workers"`
			} `json:"graphs"`
		}
		if code := get(t, ts.URL+"/v1/shards", &m); code != 200 {
			t.Fatalf("GET /v1/shards: code %d", code)
		}
		out := map[string]string{}
		for _, wk := range m.Graphs["ring"].Workers {
			out[wk.Addr] = wk.State
		}
		return out
	}
	before := membershipStates()
	for _, tc := range []struct {
		body map[string]any
		code int
	}{
		{map[string]any{"add": []string{workers[0]}, "remove": []string{workers[1], "nope:1"}}, 404},
		{map[string]any{"add": []string{"  "}}, 400},
		{map[string]any{"add": []string{workers[0]}, "remove": []string{""}}, 400},
	} {
		if code, _ := post(t, ts.URL+"/v1/shards", tc.body, nil); code != tc.code {
			t.Fatalf("%v: code %d, want %d", tc.body, code, tc.code)
		}
	}
	if after := membershipStates(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected requests changed the membership: %v, was %v", after, before)
	}
	check("after rejected requests")
	var gotShards struct {
		Graphs map[string]struct {
			Workers []shardStats `json:"workers"`
			Fabric  fabricStats  `json:"fabric"`
		} `json:"graphs"`
	}
	if code := get(t, ts.URL+"/v1/shards", &gotShards); code != 200 {
		t.Fatal("GET /v1/shards failed")
	}
	if got := len(gotShards.Graphs["ring"].Workers); got != 2 {
		t.Fatalf("GET membership workers = %d, want 2", got)
	}
}
