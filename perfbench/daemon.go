package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/server"
	"ucgraph/internal/shard"
)

// countingListener counts the bytes every accepted connection reads and
// writes, hijacked shard streams included — the shard wire volume.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// listener is an HTTP server on a loopback port.
type listener struct {
	url   string
	srv   *http.Server
	bytes atomic.Int64
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}}
	go func() { _ = l.srv.Serve(countingListener{Listener: ln, bytes: &l.bytes}) }()
	return l, nil
}

func (l *listener) close() { _ = l.srv.Close() }

// worker is one loopback shard worker.
type worker struct {
	w *shard.Worker
	*listener
}

// startWorkers starts count loopback workers serving g; cacheBytes < 0
// turns their tally caches off.
func startWorkers(g *graph.Uncertain, seed uint64, count int, cacheBytes int64) ([]*worker, error) {
	var out []*worker
	for i := 0; i < count; i++ {
		w, err := shard.NewWorker([]shard.WorkerGraph{{Name: graphName, Graph: g, Seed: seed}}, shard.WorkerOptions{TallyCacheBytes: cacheBytes})
		if err != nil {
			closeWorkers(out)
			return nil, err
		}
		l, err := serve(w)
		if err != nil {
			closeWorkers(out)
			return nil, err
		}
		out = append(out, &worker{w: w, listener: l})
	}
	return out, nil
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.close()
	}
}

func workerURLs(ws []*worker) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.url)
	}
	return out
}

// warmWorkers materializes the first worlds of every worker's store the
// way the daemon's scatters will: a coordinator over the same worker list
// assigns blocks to the same owners.
func warmWorkers(g *graph.Uncertain, seed uint64, ws []*worker, worlds int) error {
	c := shard.NewCoordinator(graphName, g, seed, workerURLs(ws), shard.CoordinatorOptions{})
	defer c.Close()
	_, err := c.FromCentersCtx(context.Background(), []graph.NodeID{0}, conn.Unlimited, worlds)
	return err
}

// timedHandler mounts the daemon behind the harness's own span: the time
// inside Server.ServeHTTP, handed to the (serial) replay client.
type timedHandler struct {
	h    http.Handler
	took chan time.Duration
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.took <- time.Since(t0)
}

// daemon is one in-process ucserve daemon on a loopback port.
type daemon struct {
	srv   *server.Server
	timed *timedHandler // nil when mounted without the harness span
	*listener
}

func startDaemon(g *graph.Uncertain, seed uint64, shards []string, cacheDir string, timed bool) (*daemon, error) {
	s, err := server.New([]server.GraphConfig{{Name: graphName, Graph: g, Seed: seed}}, server.Options{
		Shards:        shards,
		WorldCacheDir: cacheDir,
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: s}
	var h http.Handler = s
	if timed {
		d.timed = &timedHandler{h: s, took: make(chan time.Duration, 1)}
		h = d.timed
	}
	if d.listener, err = serve(h); err != nil {
		s.Close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	d.listener.close()
	d.srv.Close()
}

// handlerTime returns the ServeHTTP time of the request that just
// completed on a timed daemon.
func (d *daemon) handlerTime() (time.Duration, error) {
	select {
	case t := <-d.timed.took:
		return t, nil
	case <-time.After(5 * time.Second):
		return 0, errors.New("timed handler did not report")
	}
}

// deployment is the system under test: the daemon, its workers, and the
// store the daemon answers from.
type deployment struct {
	d       *daemon
	workers []*worker
}

func (dep *deployment) close() {
	if dep.d != nil {
		dep.d.close()
	}
	closeWorkers(dep.workers)
}

// deploy starts the workload's daemon, and its workers, over g. Warming
// them is the caller's next step.
func deploy(w *workload, g *graph.Uncertain, seed uint64, cacheDir string) (*deployment, error) {
	dep := &deployment{}
	var shards []string
	if w.workers > 0 {
		ws, err := startWorkers(g, seed, w.workers, 0)
		if err != nil {
			return nil, err
		}
		dep.workers = ws
		shards = workerURLs(ws)
	}
	d, err := startDaemon(g, seed, shards, cacheDir, false)
	if err != nil {
		dep.close()
		return nil, err
	}
	dep.d = d
	return dep, nil
}
