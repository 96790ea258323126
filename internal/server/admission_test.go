package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestCost(t *testing.T) {
	if c := requestCost(1000, 3); c != 3000 {
		t.Fatalf("cost = %d, want 3000", c)
	}
	// A pair query has no center list; it still drives one center.
	if c := requestCost(1000, 0); c != 1000 {
		t.Fatalf("zero-center cost = %d, want 1000", c)
	}
}

func TestClientQuotaConcurrency(t *testing.T) {
	q := newClientQuotas(2, 0)
	rel1, e := q.admit("alice", 100)
	if e != nil {
		t.Fatal(e.msg)
	}
	rel2, e := q.admit("alice", 100)
	if e != nil {
		t.Fatal(e.msg)
	}
	if _, e := q.admit("alice", 100); e == nil || e.code != 429 {
		t.Fatalf("third concurrent request admitted: %v", e)
	}
	// A different client has its own slots.
	relB, e := q.admit("bob", 100)
	if e != nil {
		t.Fatalf("bob rejected: %v", e.msg)
	}
	relB()
	// Releasing one of alice's slots readmits her.
	rel1()
	rel3, e := q.admit("alice", 100)
	if e != nil {
		t.Fatalf("readmission failed: %v", e.msg)
	}
	rel3()
	rel2()
}

func TestClientQuotaTokenBucket(t *testing.T) {
	q := newClientQuotas(0, 1000)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	rel, e := q.admit("alice", 600)
	if e != nil {
		t.Fatal(e.msg)
	}
	rel()
	// 400 tokens left: another 600-cost request must bounce with 429.
	if _, e := q.admit("alice", 600); e == nil || e.code != 429 {
		t.Fatalf("over-quota request admitted: %v", e)
	}
	// A cheap request still fits.
	rel, e = q.admit("alice", 300)
	if e != nil {
		t.Fatal(e.msg)
	}
	rel()
	// After 30s the bucket refills by 500 (1000/min): 600 fits again.
	now = now.Add(30 * time.Second)
	rel, e = q.admit("alice", 600)
	if e != nil {
		t.Fatalf("post-refill request rejected: %v", e.msg)
	}
	rel()
	// Refill is capped at the per-minute rate: an hour idle does not bank
	// an hour of tokens.
	now = now.Add(time.Hour)
	if _, e := q.admit("alice", 1500); e == nil {
		t.Fatal("banked more than one minute of tokens")
	}
}

func TestMaxCostRejectsOversizedRequest(t *testing.T) {
	g := testGraph(t, 32, 1)
	_, ts := newTestServer(t, g, Options{MaxCost: 10_000})

	// 2048 worlds x 8 centers = 16384 > 10000.
	code, body := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "centers": []int{0, 1, 2, 3, 4, 5, 6, 7}, "samples": 2048,
	}, nil)
	if code != 400 {
		t.Fatalf("oversized request: code %d body %s", code, body)
	}
	// Under the cap it serves normally.
	if code, body := post(t, ts.URL+"/v1/conn", map[string]any{
		"graph": "ring", "centers": []int{0, 1}, "samples": 2048,
	}, nil); code != 200 {
		t.Fatalf("in-cap request: code %d body %s", code, body)
	}
}

func TestWorldsPerMinQuotaOverHTTP(t *testing.T) {
	g := testGraph(t, 32, 1)
	_, ts := newTestServer(t, g, Options{ClientWorldsPerMin: 1000})

	req := map[string]any{"graph": "ring", "source": 0, "target": 1, "samples": 600}
	if code, body := post(t, ts.URL+"/v1/conn", req, nil); code != 200 {
		t.Fatalf("first request: code %d body %s", code, body)
	}
	// Same client (same remote host): 400 tokens left, 600 needed.
	if code, _ := post(t, ts.URL+"/v1/conn", req, nil); code != 429 {
		t.Fatalf("second request: code %d, want 429", code)
	}
	// A different tenant behind the same gateway separates via the
	// X-API-Client header.
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/conn",
		strings.NewReader(`{"graph":"ring","source":0,"target":1,"samples":600}`))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-API-Client", "tenant-b")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tenant-b request: code %d", resp.StatusCode)
	}
}

// TestCostAdmissionOnEveryEstimatingEndpoint: /v1/knn, /v1/influence and
// /v1/reliability are priced like /v1/conn — 400 over MaxCost, 429 once a
// client's world quota runs dry — and greedy influence prices its k
// seeds as k centers.
func TestCostAdmissionOnEveryEstimatingEndpoint(t *testing.T) {
	g := testGraph(t, 32, 1)
	const samples = 500
	for _, tc := range []struct {
		name, path string
		body       map[string]any
		centers    int
	}{
		{"knn", "/v1/knn", map[string]any{"graph": "ring", "source": 0, "k": 3, "samples": samples}, 1},
		{"spread", "/v1/influence", map[string]any{"graph": "ring", "seeds": []int{0, 5}, "samples": samples}, 1},
		{"greedy", "/v1/influence", map[string]any{"graph": "ring", "k": 2, "samples": samples}, 2},
		{"reliability", "/v1/reliability", map[string]any{"graph": "ring", "kind": "set", "set": []int{0, 3}, "samples": samples}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cost := int64(samples * tc.centers)
			_, capped := newTestServer(t, g, Options{MaxCost: cost - 1})
			if code, body := post(t, capped.URL+tc.path, tc.body, nil); code != 400 {
				t.Fatalf("over MaxCost: code %d body %s", code, body)
			}
			_, quota := newTestServer(t, g, Options{ClientWorldsPerMin: cost})
			if code, body := post(t, quota.URL+tc.path, tc.body, nil); code != 200 {
				t.Fatalf("first request within quota: code %d body %s", code, body)
			}
			if code, body := post(t, quota.URL+tc.path, tc.body, nil); code != 429 {
				t.Fatalf("quota exhausted: code %d body %s", code, body)
			}
		})
	}
}

// TestRejectedRequestSpendsNoQuota: a request rejected as malformed is
// refused before cost admission, so it charges no cost tokens and holds
// no gate slot — the next valid request from the same client is served.
func TestRejectedRequestSpendsNoQuota(t *testing.T) {
	g := testGraph(t, 32, 1)
	reliability := map[string]any{"graph": "ring", "kind": "set", "set": []int{0, 3}, "samples": 100}
	pair := map[string]any{"graph": "ring", "source": 0, "target": 9, "samples": 100}
	for _, tc := range []struct {
		path       string
		bad, valid map[string]any
	}{
		{"/v1/reliability", map[string]any{"graph": "ring", "kind": "zap", "samples": 100}, reliability},
		{"/v1/reliability", map[string]any{"graph": "ring", "kind": "set", "samples": 100}, reliability},
		{"/v1/reliability", map[string]any{"graph": "ring", "kind": "set", "set": []int{0, 3}, "samples": 100, "timeout_ms": -1}, reliability},
		{"/v1/conn", map[string]any{"graph": "ring", "source": 0, "target": 9, "samples": 100, "timeout_ms": -1}, pair},
	} {
		_, ts := newTestServer(t, g, Options{ClientWorldsPerMin: 100})
		if code, body := post(t, ts.URL+tc.path, tc.bad, nil); code != 400 {
			t.Fatalf("%s %v: code %d body %s, want 400", tc.path, tc.bad, code, body)
		}
		if code, body := post(t, ts.URL+tc.path, tc.valid, nil); code != 200 {
			t.Fatalf("%s valid request after %v: code %d body %s, want 200", tc.path, tc.bad, code, body)
		}
	}
}

// TestClusterAlphaIsPriced: MCP/ACP score max(alpha, 1) candidates per
// selected center, so admission prices a clustering at k x max(alpha, 1)
// centers, and an alpha outside [0, n] is a 400 like an out-of-range k.
func TestClusterAlphaIsPriced(t *testing.T) {
	g := testGraph(t, 48, 1)
	const k = 4
	_, ts := newTestServer(t, g, Options{DefaultSamples: 100, MaxCost: 100 * k})
	for _, tc := range []struct {
		alpha, code int
	}{{0, 200}, {1, 200}, {8, 400}, {-1, 400}, {49, 400}} {
		for _, algo := range []string{"mcp", "acp"} {
			if code, body := post(t, ts.URL+"/v1/cluster", map[string]any{
				"graph": "ring", "algo": algo, "k": k, "alpha": tc.alpha,
			}, nil); code != tc.code {
				t.Errorf("%s alpha %d: code %d body %s, want %d", algo, tc.alpha, code, body, tc.code)
			}
		}
	}
}

// TestAsyncClusterJobHoldsQuotaSlot: an async MCP job queued at a full
// gate keeps its client's concurrency slot until the job ends — a second
// request meanwhile gets 429 — and cancelling the job frees it.
func TestAsyncClusterJobHoldsQuotaSlot(t *testing.T) {
	g := testGraph(t, 48, 2)
	s, ts := newTestServer(t, g, Options{Gate: 1, ClientConcurrent: 1})
	h := s.graphs["ring"]
	h.gate <- struct{}{} // hold the only gate slot: the job queues
	releaseGate := sync.OnceFunc(func() { <-h.gate })
	defer releaseGate()

	req := map[string]any{"graph": "ring", "algo": "mcp", "k": 3, "seed": 4}
	async := map[string]any{"graph": "ring", "algo": "mcp", "k": 3, "seed": 4, "async": true}
	var accepted jobView
	if code, body := post(t, ts.URL+"/v1/cluster", async, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/cluster", req, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second request while the job queues: code %d body %s, want 429", code, body)
	}
	jobURL := ts.URL + "/v1/jobs/" + accepted.ID
	if code, _ := deleteJob(t, jobURL); code != 200 {
		t.Fatalf("cancel: code %d", code)
	}
	if j := pollUntilTerminal(t, jobURL); j.Status != JobError {
		t.Fatalf("cancelled job: %+v", j)
	}
	releaseGate()
	if code, body := post(t, ts.URL+"/v1/cluster", req, nil); code != 200 {
		t.Fatalf("request after the job ended: code %d body %s", code, body)
	}
}

// TestClusterBaselinesBypassCostAndGate: mcl, gmm and kpt sample no
// worlds, so neither the cost cap nor a full admission gate holds them.
func TestClusterBaselinesBypassCostAndGate(t *testing.T) {
	g := testGraph(t, 48, 3)
	s, ts := newTestServer(t, g, Options{Gate: 1, MaxCost: 1})
	h := s.graphs["ring"]
	h.gate <- struct{}{}
	defer func() { <-h.gate }()
	for _, algo := range []string{"gmm", "mcl", "kpt"} {
		if code, body := post(t, ts.URL+"/v1/cluster", map[string]any{
			"graph": "ring", "algo": algo, "k": 3, "timeout_ms": 5000,
		}, nil); code != 200 {
			t.Errorf("%s: code %d body %s", algo, code, body)
		}
	}
}
