package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// Lifecycle race tests for /v1/jobs: a job's terminal state must be
// written exactly once and every later observation — polls after a
// cancel, repeated cancels, cancels racing natural completion — must see
// that one state, never a torn or flip-flopping view. Run under -race
// these also prove the job table itself is data-race free.

func deleteJob(t *testing.T, url string) (int, jobView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobView
	if resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, j
}

func pollUntilTerminal(t *testing.T, url string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var j jobView
		if code := get(t, url, &j); code != 200 {
			t.Fatalf("poll: code %d", code)
		} else if j.Status != JobRunning {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatal("job stuck running")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobPollAfterCancelIsStable(t *testing.T) {
	g := testGraph(t, 64, 9)
	s, ts := newTestServer(t, g, Options{Gate: 1})

	// Hold the graph's only admission slot so the job stays cancellable.
	h := s.graphs["ring"]
	h.gate <- struct{}{}
	defer func() { <-h.gate }()

	var accepted jobView
	if code, _ := post(t, ts.URL+"/v1/cluster", map[string]any{
		"graph": "ring", "algo": "mcp", "k": 3, "async": true,
	}, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	jobURL := ts.URL + "/v1/jobs/" + accepted.ID

	if code, _ := deleteJob(t, jobURL); code != 200 {
		t.Fatalf("cancel: code %d", code)
	}
	first := pollUntilTerminal(t, jobURL)
	if first.Status != JobError || !strings.Contains(first.Error, "context canceled") {
		t.Fatalf("cancelled job: %+v", first)
	}
	if first.FinishedAt == nil {
		t.Fatalf("terminal job without finished_at: %+v", first)
	}
	// Every later poll observes the identical terminal snapshot.
	for i := 0; i < 10; i++ {
		var j jobView
		if code := get(t, jobURL, &j); code != 200 {
			t.Fatalf("poll %d: code %d", i, code)
		}
		if j.Status != first.Status || j.Error != first.Error ||
			j.FinishedAt == nil || !j.FinishedAt.Equal(*first.FinishedAt) {
			t.Fatalf("terminal state drifted on poll %d: %+v vs %+v", i, j, first)
		}
	}
}

func TestJobDoubleCancelIsIdempotent(t *testing.T) {
	g := testGraph(t, 64, 9)
	s, ts := newTestServer(t, g, Options{Gate: 1})

	h := s.graphs["ring"]
	h.gate <- struct{}{}
	defer func() { <-h.gate }()

	var accepted jobView
	if code, _ := post(t, ts.URL+"/v1/cluster", map[string]any{
		"graph": "ring", "algo": "mcp", "k": 3, "async": true,
	}, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	jobURL := ts.URL + "/v1/jobs/" + accepted.ID

	if code, _ := deleteJob(t, jobURL); code != 200 {
		t.Fatalf("first cancel: code %d", code)
	}
	first := pollUntilTerminal(t, jobURL)
	// A second cancel is a no-op, not an error, and cannot rewrite the
	// terminal state.
	code, second := deleteJob(t, jobURL)
	if code != 200 {
		t.Fatalf("second cancel: code %d", code)
	}
	if second.Status != first.Status || second.Error != first.Error {
		t.Fatalf("second cancel rewrote the outcome: %+v vs %+v", second, first)
	}
}

func TestJobCancelAfterCompletionKeepsResult(t *testing.T) {
	g := testGraph(t, 48, 9)
	_, ts := newTestServer(t, g, Options{})

	var accepted jobView
	if code, _ := post(t, ts.URL+"/v1/cluster", map[string]any{
		"graph": "ring", "algo": "mcp", "k": 3, "async": true,
	}, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	jobURL := ts.URL + "/v1/jobs/" + accepted.ID
	done := pollUntilTerminal(t, jobURL)
	if done.Status != JobDone || done.Result == nil {
		t.Fatalf("job did not complete: %+v", done)
	}
	// Cancelling a finished job must not demote it to error or drop the
	// result (finish is first-writer-wins).
	code, after := deleteJob(t, jobURL)
	if code != 200 {
		t.Fatalf("cancel after done: code %d", code)
	}
	if after.Status != JobDone || after.Result == nil || after.Error != "" {
		t.Fatalf("cancel rewrote a finished job: %+v", after)
	}
}

func TestJobCompletionRacesConcurrentPollAndCancel(t *testing.T) {
	g := testGraph(t, 64, 9)
	_, ts := newTestServer(t, g, Options{})

	// Many short jobs, each hammered by concurrent pollers and cancellers
	// while it finishes naturally: whichever side wins, every observer
	// must see one coherent terminal state.
	for round := 0; round < 4; round++ {
		var accepted jobView
		if code, _ := post(t, ts.URL+"/v1/cluster", map[string]any{
			"graph": "ring", "algo": "mcp", "k": 2, "seed": round, "async": true,
		}, &accepted); code != http.StatusAccepted {
			t.Fatalf("submit: code %d", code)
		}
		jobURL := ts.URL + "/v1/jobs/" + accepted.ID

		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					var v jobView
					if code := get(t, jobURL, &v); code != 200 {
						t.Errorf("poll: code %d", code)
						return
					}
					switch v.Status {
					case JobRunning, JobDone, JobError:
					default:
						t.Errorf("impossible status %q", v.Status)
						return
					}
					if v.Status == JobDone && v.Result == nil {
						t.Error("done job without result")
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				if code, _ := deleteJob(t, jobURL); code != 200 {
					t.Errorf("cancel: code %d", code)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		final := pollUntilTerminal(t, jobURL)
		switch final.Status {
		case JobDone:
			if final.Result == nil {
				t.Fatalf("done without result: %+v", final)
			}
		case JobError:
			if final.Error == "" {
				t.Fatalf("error without message: %+v", final)
			}
		default:
			t.Fatalf("non-terminal final state: %+v", final)
		}
	}
}

// TestJobsMetricStates: ucgraph_jobs carries exactly one sample per job
// state, and a DELETE-cancelled job counts under error.
func TestJobsMetricStates(t *testing.T) {
	g := testGraph(t, 64, 9)
	s, ts := newTestServer(t, g, Options{Gate: 1})
	async := map[string]any{"graph": "ring", "algo": "mcp", "k": 3, "async": true}

	var finished jobView
	if code, body := post(t, ts.URL+"/v1/cluster", async, &finished); code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", code, body)
	}
	if j := pollUntilTerminal(t, ts.URL+"/v1/jobs/"+finished.ID); j.Status != JobDone {
		t.Fatalf("finished job: %+v", j)
	}

	// Hold the graph's only admission slot so the second job stays
	// cancellable.
	h := s.graphs["ring"]
	h.gate <- struct{}{}
	defer func() { <-h.gate }()
	var cancelled jobView
	if code, body := post(t, ts.URL+"/v1/cluster", async, &cancelled); code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", code, body)
	}
	jobURL := ts.URL + "/v1/jobs/" + cancelled.ID
	if code, _ := deleteJob(t, jobURL); code != 200 {
		t.Fatalf("cancel: code %d", code)
	}
	if j := pollUntilTerminal(t, jobURL); j.Status != JobError {
		t.Fatalf("cancelled job: %+v", j)
	}

	got := map[string]float64{}
	for _, smp := range scrapeMetrics(t, ts.URL).samples["ucgraph_jobs"] {
		got[smp.labels["state"]] = smp.value
	}
	want := map[string]float64{JobRunning: 0, JobDone: 1, JobError: 1}
	if !maps.Equal(got, want) {
		t.Fatalf("ucgraph_jobs samples by state = %v, want %v", got, want)
	}
}
