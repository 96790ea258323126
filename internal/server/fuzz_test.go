package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ucgraph/internal/core"
)

// fuzzEndpoints are the estimating endpoints FuzzRequestBodies drives,
// indexed by the fuzzed endpoint byte modulo their count, with the
// statuses each documents for a request that reaches it (docs/SERVER.md;
// the fuzz server sets no client quotas, its recorder can flush, and no
// client cancels, so 429, 501 and 499 never apply). Only a clustering
// runs as a job (202) or fails estimation on a valid request, and then
// only as the documented 500: no full k-clustering above the
// probability floor.
var fuzzEndpoints = []struct {
	path   string
	status []int
}{
	{"/v1/conn", []int{200, 400, 404, 504}},
	{"/v1/cluster", []int{200, 202, 400, 404, 500, 504}},
	{"/v1/knn", []int{200, 400, 404, 504}},
	{"/v1/influence", []int{200, 400, 404, 504}},
	{"/v1/reliability", []int{200, 400, 404, 504}},
}

// FuzzRequestBodies posts arbitrary bodies to the estimating endpoints
// of an unsharded daemon over a 32-node ring. Small sample, cost and
// deadline caps bound the work any one body can start. No body may
// panic the daemon or draw an undocumented status, and every 200 or 202
// must be valid JSON, or, for a stream, valid SSE frames of JSON. Every
// job a 202 creates is cancelled and awaited. The checked-in corpus
// (testdata/fuzz/FuzzRequestBodies) holds the server tests' bodies and
// the validation probes, and replays in every plain `go test`.
func FuzzRequestBodies(f *testing.F) {
	s, err := New([]GraphConfig{{Name: "ring", Graph: testGraph(f, 32, 1), Seed: 7}}, Options{
		DefaultSamples: 64,
		MaxSamples:     256,
		MaxCost:        2048,
		DefaultTimeout: time.Second,
		MaxTimeout:     time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
		if !slices.Contains(ep.status, rec.Code) ||
			rec.Code == http.StatusInternalServerError && !strings.Contains(rec.Body.String(), core.ErrNoClustering.Error()) {
			t.Fatalf("%s %q: undocumented status %d: %s", ep.path, body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			return
		}
		if rec.Header().Get("Content-Type") == "text/event-stream" {
			checkSSE(t, rec.Body.String())
			return
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q: status %d with invalid JSON: %s", ep.path, body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusAccepted {
			var v jobView
			mustUnmarshal(t, rec.Body.String(), &v)
			j, ok := s.jobs.get(v.ID)
			if !ok {
				t.Fatalf("202 names unknown job %q", v.ID)
			}
			j.cancel()
			for deadline := time.Now().Add(10 * time.Second); j.view().Status == JobRunning; {
				if time.Now().After(deadline) {
					t.Fatalf("cancelled job %s still running", v.ID)
				}
				time.Sleep(time.Millisecond)
			}
		}
	})
}

// checkSSE asserts that a stream is a sequence of events, each an
// optional "event: error" line and one "data: " line of JSON, separated
// by blank lines.
func checkSSE(t *testing.T, stream string) {
	t.Helper()
	if !strings.HasSuffix(stream, "\n\n") {
		t.Fatalf("stream does not end in a complete event: %q", stream)
	}
	sc := bufio.NewScanner(strings.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	frames := 0
	for sc.Scan() {
		line := sc.Text()
		switch data, ok := strings.CutPrefix(line, "data: "); {
		case ok:
			if !json.Valid([]byte(data)) {
				t.Fatalf("frame %d is not JSON: %q", frames, data)
			}
			frames++
		case line != "" && line != "event: error":
			t.Fatalf("stray stream line %q", line)
		}
	}
	if frames == 0 {
		t.Fatalf("stream without frames: %q", stream)
	}
}
