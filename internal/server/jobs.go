package server

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Job states. A job moves running -> done | error exactly once; cancelling
// a running job lands it in error with a cancellation message.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobError   = "error"
)

// jobStates lists every job state, in lifecycle order: the state labels of
// the ucgraph_jobs samples.
var jobStates = [...]string{JobRunning, JobDone, JobError}

// jobView is the JSON snapshot of an async clustering job.
type jobView struct {
	ID         string         `json:"id"`
	Graph      string         `json:"graph"`
	Algo       string         `json:"algo"`
	Status     string         `json:"status"`
	CreatedAt  time.Time      `json:"created_at"`
	FinishedAt *time.Time     `json:"finished_at,omitempty"`
	Error      string         `json:"error,omitempty"`
	Result     map[string]any `json:"result,omitempty"`
}

// job is one async clustering run.
type job struct {
	id     string
	graph  string
	algo   string
	cancel context.CancelFunc

	mu       sync.Mutex
	status   string
	created  time.Time
	finished time.Time
	err      string
	result   map[string]any // the answer body, as a synchronous run returns it
}

// view snapshots the job for JSON encoding.
func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		Graph:     j.graph,
		Algo:      j.algo,
		Status:    j.status,
		CreatedAt: j.created,
		Error:     j.err,
		Result:    j.result,
	}
	if !j.finished.IsZero() {
		f := j.finished
		v.FinishedAt = &f
	}
	return v
}

// finish records the outcome (first writer wins; a cancellation racing a
// natural completion keeps whichever landed first).
func (j *job) finish(res map[string]any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != JobRunning {
		return
	}
	j.finished = time.Now()
	if err != nil {
		j.status = JobError
		j.err = err.Error()
		return
	}
	j.status = JobDone
	j.result = res
}

// maxFinishedJobs bounds how many finished jobs the table retains: a done
// clustering result holds O(n) assignment and probability slices, so an
// unbounded table would grow with async traffic for the daemon's whole
// lifetime. The oldest finished jobs are dropped first; running jobs are
// never dropped. 64 finished results is ample polling headroom — clients
// are expected to fetch a result shortly after completion.
const maxFinishedJobs = 64

// jobTable owns every async job of a server.
type jobTable struct {
	mu       sync.Mutex
	seq      int
	jobs     map[string]*job
	finished []string // finished job IDs, oldest first
}

func newJobTable() *jobTable {
	return &jobTable{jobs: make(map[string]*job)}
}

// noteFinished records that a job left the running state and evicts the
// oldest finished jobs beyond the retention cap.
func (t *jobTable) noteFinished(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished = append(t.finished, id)
	for len(t.finished) > maxFinishedJobs {
		delete(t.jobs, t.finished[0])
		t.finished = t.finished[1:]
	}
}

// create registers a new running job.
func (t *jobTable) create(graphName, algo string, cancel context.CancelFunc) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	j := &job{
		id:      fmt.Sprintf("job-%d", t.seq),
		graph:   graphName,
		algo:    algo,
		cancel:  cancel,
		status:  JobRunning,
		created: time.Now(),
	}
	t.jobs[j.id] = j
	return j
}

// get looks a job up by ID.
func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// counts reports how many jobs are in each state (for /statsz).
func (t *jobTable) counts() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int{}
	for _, j := range t.jobs {
		j.mu.Lock()
		out[j.status]++
		j.mu.Unlock()
	}
	return out
}
