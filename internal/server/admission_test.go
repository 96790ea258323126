package server

import (
	"net/http"
	"strings"
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
