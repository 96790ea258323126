package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// prepared is a request with its body encoded once, before timing.
type prepared struct {
	req  *request
	path string
	body []byte
}

func prepare(reqs []request) ([]prepared, error) {
	out := make([]prepared, len(reqs))
	for i := range reqs {
		var v any = reqs[i].Cluster
		if reqs[i].Conn != nil {
			v = reqs[i].Conn
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		out[i] = prepared{req: &reqs[i], path: reqs[i].path(), body: b}
	}
	return out, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

// outcome is one completed request.
type outcome struct {
	idx     int           // index into the request sequence
	done    time.Duration // completion time, from the start of the phase
	latency time.Duration
	bytes   int
	status  int
	err     error  // transport error, timeout or malformed answer
	body    []byte // kept for the first keep requests only
	final   []byte // the final SSE frame's payload (streaming requests)
}

// do sends one request and reads the whole answer. For SSE responses the
// latency stops at the final frame.
func do(client *http.Client, url string, p prepared) outcome {
	t0 := time.Now()
	resp, err := client.Post(url+p.path, "application/json", bytes.NewReader(p.body))
	if err != nil {
		return outcome{latency: time.Since(t0), err: err}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode}
	if resp.Header.Get("Content-Type") == "text/event-stream" {
		o.final, o.bytes, o.latency, o.err = readSSE(resp.Body, t0)
		return o
	}
	o.body, err = io.ReadAll(resp.Body)
	o.latency = time.Since(t0)
	o.bytes = len(o.body)
	o.err = err
	return o
}

// readSSE reads an event stream to its end and returns the final data
// frame, the bytes read, and the time of the final frame.
func readSSE(r io.Reader, t0 time.Time) ([]byte, int, time.Duration, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var final []byte
	var at time.Duration
	total := 0
	errEvent := false
	for {
		line, err := br.ReadBytes('\n')
		total += len(line)
		if bytes.HasPrefix(line, []byte("event: error")) {
			errEvent = true
		}
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok && final == nil {
			if errEvent {
				return nil, total, time.Since(t0), fmt.Errorf("stream error: %s", bytes.TrimSpace(data))
			}
			if bytes.Contains(data, []byte(`"final":true`)) {
				final = bytes.TrimSpace(data)
				at = time.Since(t0)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, total, time.Since(t0), err
		}
	}
	if final == nil {
		return nil, total, time.Since(t0), errors.New("stream ended without a final frame")
	}
	return final, total, at, nil
}

// loadResult is the timed phase.
type loadResult struct {
	outcomes []outcome
	elapsed  time.Duration
}

// phase is one stretch of closed-loop load: requests from sequence index
// from on, until the deadline d (or, when count > 0, until count requests
// were sent).
type phase struct {
	from, count int
	d           time.Duration
}

// runLoad drives closed-loop load: each client sends its next request only
// after the previous answer arrived, and no request starts after the
// deadline. Requests are taken in sequence order across clients; the
// first keep of the phase keep their answers.
func runLoad(url string, seq []prepared, clients int, ph phase, keep int, n int) loadResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res loadResult
	start := time.Now()
	deadline := start.Add(ph.d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if ph.count > 0 && i >= ph.count {
					return
				}
				p := seq[(ph.from+i)%len(seq)]
				o := do(client, url, p)
				o.done = time.Since(start)
				o.idx = (ph.from + i) % len(seq)
				if o.err == nil {
					o.err = check(p.req, &o, n)
				}
				if i >= keep {
					o.body, o.final = nil, nil
				}
				mu.Lock()
				res.outcomes = append(res.outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// check verifies that an answer is well formed: k centers and a full
// assignment for clusterings, estimates in [0, 1] with one row per center
// and one column per target (or node) for connection queries.
func check(r *request, o *outcome, n int) error {
	if o.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", o.status, o.body)
	}
	if r.Cluster != nil {
		var cr clusterAnswer
		if err := json.Unmarshal(o.body, &cr); err != nil {
			return err
		}
		return cr.check(r.Cluster.K, n)
	}
	body := o.body
	if o.final != nil {
		body = o.final
	}
	return checkConn(r.Conn, body, n)
}

// clusterAnswer is the part of a /v1/cluster response the benchmark reads.
type clusterAnswer struct {
	K       int       `json:"k"`
	Centers []int32   `json:"centers"`
	Assign  []int32   `json:"assign"`
	Prob    []float64 `json:"prob"`
}

func (c *clusterAnswer) check(k, n int) error {
	if c.K != k || len(c.Centers) != k {
		return fmt.Errorf("clustering has %d centers, want %d", len(c.Centers), k)
	}
	if len(c.Assign) != n || len(c.Prob) != n {
		return fmt.Errorf("clustering assigns %d of %d nodes", len(c.Assign), n)
	}
	for u, a := range c.Assign {
		if a < 0 || int(a) >= k {
			return fmt.Errorf("node %d unassigned", u)
		}
		if p := c.Prob[u]; !(p >= 0 && p <= 1) {
			return fmt.Errorf("node %d probability %v", u, p)
		}
	}
	return nil
}

// checkConn checks a /v1/conn answer without decoding every estimate into
// a float slice: a full-vector answer on Krogan is hundreds of kilobytes,
// and the client shares the CPUs with the daemon.
func checkConn(b *connBody, body []byte, n int) error {
	if b.Source != nil {
		v, err := field(body, "probability")
		if err != nil {
			return err
		}
		return unitInterval(v)
	}
	i := bytes.Index(body, []byte(`"estimates":`))
	if i < 0 {
		return errors.New("answer has no estimates")
	}
	cols := n
	if len(b.Targets) > 0 {
		cols = len(b.Targets)
	}
	rows, err := scanMatrix(body[i+len(`"estimates":`):], cols)
	if err != nil {
		return err
	}
	if rows != len(b.Centers) {
		return fmt.Errorf("%d estimate rows for %d centers", rows, len(b.Centers))
	}
	return nil
}

// field returns the raw token of a top-level numeric field.
func field(body []byte, name string) ([]byte, error) {
	key := []byte(`"` + name + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return nil, fmt.Errorf("answer has no %q", name)
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return nil, fmt.Errorf("malformed %q", name)
	}
	return rest[:j], nil
}

// unitInterval checks that a JSON number lies in [0, 1].
func unitInterval(tok []byte) error {
	switch {
	case len(tok) == 1 && (tok[0] == '0' || tok[0] == '1'):
		return nil
	case len(tok) > 2 && tok[0] == '0' && tok[1] == '.':
		for _, c := range tok[2:] {
			if c < '0' || c > '9' {
				return fmt.Errorf("estimate %q", tok)
			}
		}
		return nil
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || !(v >= 0 && v <= 1) {
		return fmt.Errorf("estimate %q outside [0, 1]", tok)
	}
	return nil
}

// scanMatrix checks a JSON array of rows, each of cols numbers in [0, 1],
// and returns the row count.
func scanMatrix(b []byte, cols int) (int, error) {
	if len(b) == 0 || b[0] != '[' {
		return 0, errors.New("estimates is not an array")
	}
	rows, i := 0, 1
	for i < len(b) && b[i] != ']' {
		if b[i] == ',' {
			i++
		}
		if i >= len(b) || b[i] != '[' {
			return 0, errors.New("estimate row is not an array")
		}
		i++
		got := 0
		for i < len(b) && b[i] != ']' {
			if b[i] == ',' {
				i++
			}
			j := i
			for j < len(b) && b[j] != ',' && b[j] != ']' {
				j++
			}
			if err := unitInterval(b[i:j]); err != nil {
				return 0, err
			}
			got++
			i = j
		}
		if got != cols {
			return 0, fmt.Errorf("estimate row has %d entries, want %d", got, cols)
		}
		rows++
		i++
	}
	if i >= len(b) {
		return 0, errors.New("truncated estimates")
	}
	return rows, nil
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if r < 0 {
		r = 0
	}
	return sorted[r]
}

// tailRung picks the highest percentile of the ladder, up to max, that
// has at least 10 samples beyond it.
func tailRung(count int, max float64) float64 {
	best := 50.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if p <= max && float64(count)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
