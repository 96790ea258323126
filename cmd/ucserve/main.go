// Command ucserve is the long-running query daemon: it loads one or more
// uncertain graphs, owns their shared possible-world stores, and serves
// the estimator surface over HTTP so that many clients amortize one store
// (see docs/SERVER.md for the endpoint reference).
//
// Usage:
//
//	ucserve -graph social=social.txt -graph ppi=collins.txt
//	ucserve -synthetic collins -synthetic gavin -worldmem 256 -listen :8080
//	ucserve -graph g=graph.txt -seed 7 -gate 4
//
// Each -graph flag is name=path with path a "u v p" edge-list file; each
// -synthetic flag serves a built-in dataset (collins, gavin, krogan, dblp)
// under its own name. All graphs share the -seed world-stream seed, the
// -worldmem per-store label budget (MiB, 0 = unbounded) and the -gate
// admission bound on concurrently materializing requests. -worldcache
// names a directory for the world-store disk tier: blocks evicted under
// -worldmem spill to <dir>/<graph>/ instead of being forgotten, and a
// restarted daemon (or shard worker) pointed at the same directory comes
// back hot. Answers are bit-identical with or without either flag.
//
// The same binary is both halves of a sharded deployment:
//
//	ucserve -shard-worker -synthetic collins -listen :9001
//	ucserve -shard-worker -synthetic collins -listen :9002
//	ucserve -synthetic collins -shards localhost:9001,localhost:9002
//
// A -shard-worker process serves the binary tally wire protocol of
// internal/shard (persistent streams on POST /shard/v2/stream; see
// docs/SHARD_PROTOCOL.md) over its own world store; a daemon started with
// -shards becomes the scatter/gather coordinator, fanning /v1/conn,
// /v1/cluster, /v1/knn, /v1/influence and /v1/reliability out across the
// workers with answers bit-identical to a single-process run. Workers and
// coordinator must be started with the same graphs, names and -seed (the
// coordinator's /healthz verifies and reports not-ready until every worker
// agrees). -shard-hedge arms hedged requests against stragglers,
// -shard-ping sets the membership-refresh cadence, and POST /v1/shards
// adds or removes workers at runtime without a restart.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /healthz flips to
// 503 "draining", in-flight requests — including open SSE refinement
// streams and hijacked shard v2 streams — finish under -drain-timeout,
// and only then are connections severed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ucgraph/internal/datasets"
	"ucgraph/internal/gio"
	"ucgraph/internal/obs"
	"ucgraph/internal/server"
	"ucgraph/internal/shard"
	"ucgraph/internal/worldstore"
)

func main() {
	var (
		listen     = flag.String("listen", ":8080", "address to serve HTTP on")
		seed       = flag.Uint64("seed", 1, "world-stream seed shared by all served graphs")
		worldmem   = flag.Int("worldmem", 0, "world-label memory budget per store in MiB (0 = unbounded); results are identical either way")
		worldcache = flag.String("worldcache", "", "directory for the world-store disk tier: evicted blocks spill to <dir>/<graph>/ and a restart re-attaches them; results are identical either way")
		gate       = flag.Int("gate", 2, "max concurrent world-materializing requests per graph")
		samples    = flag.Int("samples", 1000, "default per-request sample budget")
		maxSamp    = flag.Int("max-samples", 1<<20, "hard cap on per-request sample budgets")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTime    = flag.Duration("max-timeout", 5*time.Minute, "hard cap on per-request deadlines")

		maxCost      = flag.Int64("max-cost", 0, "reject any single request costing more world-extensions (worlds x centers) than this (0 = package default)")
		clientConc   = flag.Int("client-concurrent", 0, "max concurrent estimating requests per client (0 = unlimited)")
		clientWorlds = flag.Int64("client-worlds-per-min", 0, "per-client world-extension budget refilled per minute (0 = unlimited)")

		shardWorker = flag.Bool("shard-worker", false, "serve the shard-worker tally protocol instead of the query API")
		shards      = flag.String("shards", "", "comma-separated shard-worker addresses; the daemon becomes the scatter/gather coordinator")

		shardHedge   = flag.Duration("shard-hedge", 0, "hedge a scatter group to a second worker after this delay (0 = no hedging); results are identical either way")
		shardPing    = flag.Duration("shard-ping", 5*time.Second, "background worker ping/membership-refresh interval (0 = on-demand only)")
		shardRetries = flag.Int("shard-retries", 0, "scatter retry rounds against re-striped workers (0 = package default)")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-worker-request deadline (0 = package default)")

		shardBreaker = flag.Int("shard-breaker", 0, "consecutive tally failures tripping a worker's circuit breaker (0 = package default)")
		shardBudget  = flag.Int("shard-retry-budget", 0, "total block re-scatters one query may spend (0 = package default)")
		shardAudit   = flag.Float64("shard-audit", 0, "fraction of scatter groups re-executed on a second worker and compared byte-for-byte (0 = no auditing); results are identical either way")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long a SIGINT/SIGTERM shutdown waits for in-flight queries, SSE streams and shard streams to finish")

		version   = flag.Bool("version", false, "print build information and exit")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off); applies to coordinators and shard workers")
		slowQuery = flag.Duration("slow-query", 0, "log any query (or worker tally) slower than this as one-line JSON via slog (0 = off)")
	)
	var graphs []server.GraphConfig
	flag.Func("graph", "serve a graph from an edge-list file, as name=path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		g, err := gio.LoadGraph(path)
		if err != nil {
			return err
		}
		graphs = append(graphs, server.GraphConfig{Name: name, Graph: g})
		return nil
	})
	// Synthetic datasets are only generated after flag.Parse, so that the
	// -seed flag applies regardless of flag order on the command line.
	var synthetics []string
	flag.Func("synthetic", "serve a built-in synthetic dataset: collins, gavin, krogan or dblp (repeatable)", func(v string) error {
		switch v {
		case "collins", "gavin", "krogan", "dblp":
			synthetics = append(synthetics, v)
			return nil
		}
		return fmt.Errorf("unknown synthetic dataset %q", v)
	})
	flag.Parse()
	if *version {
		b := obs.BuildInfo()
		fmt.Printf("ucserve %s (commit %s, %s)\n", b.Version, b.Commit, b.GoVersion)
		return
	}
	for _, v := range synthetics {
		var (
			ds  *datasets.Dataset
			err error
		)
		switch v {
		case "collins":
			ds, err = datasets.Collins(*seed)
		case "gavin":
			ds, err = datasets.Gavin(*seed)
		case "krogan":
			ds, err = datasets.Krogan(*seed)
		case "dblp":
			ds, err = datasets.DBLP(datasets.DefaultDBLPConfig(), *seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucserve: %s: %v\n", v, err)
			os.Exit(1)
		}
		graphs = append(graphs, server.GraphConfig{Name: v, Graph: ds.Graph})
	}

	if len(graphs) == 0 {
		fmt.Fprintln(os.Stderr, "ucserve: nothing to serve; pass at least one -graph or -synthetic")
		flag.Usage()
		os.Exit(2)
	}
	if *shardWorker && *shards != "" {
		fmt.Fprintln(os.Stderr, "ucserve: -shard-worker and -shards are mutually exclusive (a process is a worker or a coordinator, not both)")
		os.Exit(2)
	}
	worldstore.SetDefaultBudget(int64(*worldmem) << 20)
	for i := range graphs {
		graphs[i].Seed = *seed
	}
	slowLog := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	// -debug-addr serves pprof on its own listener (and mux, so the
	// profiling surface never leaks onto the query port) for both roles.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				fmt.Fprintf(os.Stderr, "ucserve: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("pprof on %s/debug/pprof/\n", *debugAddr)
	}

	var handler http.Handler
	var closeServer func()
	var wrk *shard.Worker
	var srv *server.Server
	if *shardWorker {
		wgs := make([]shard.WorkerGraph, len(graphs))
		for i, gc := range graphs {
			wgs[i] = shard.WorkerGraph{Name: gc.Name, Graph: gc.Graph, Seed: gc.Seed}
		}
		var err error
		wrk, err = shard.NewWorker(wgs, shard.WorkerOptions{
			MaxWorlds:     *maxSamp,
			WorldCacheDir: *worldcache,
			SlowTally:     *slowQuery,
			SlowLog:       slowLog,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucserve: %v\n", err)
			os.Exit(1)
		}
		handler = wrk
	} else {
		var shardAddrs []string
		for _, a := range strings.Split(*shards, ",") {
			if a = strings.TrimSpace(a); a != "" {
				shardAddrs = append(shardAddrs, a)
			}
		}
		var err error
		srv, err = server.New(graphs, server.Options{
			DefaultSamples:        *samples,
			MaxSamples:            *maxSamp,
			DefaultTimeout:        *timeout,
			MaxTimeout:            *maxTime,
			Gate:                  *gate,
			Shards:                shardAddrs,
			ShardRetries:          *shardRetries,
			ShardRequestTimeout:   *shardTimeout,
			ShardHedge:            *shardHedge,
			ShardPingInterval:     *shardPing,
			ShardBreakerThreshold: *shardBreaker,
			ShardRetryBudget:      *shardBudget,
			ShardAuditFraction:    *shardAudit,
			WorldCacheDir:         *worldcache,
			MaxCost:               *maxCost,
			ClientConcurrent:      *clientConc,
			ClientWorldsPerMin:    *clientWorlds,
			SlowQuery:             *slowQuery,
			SlowLog:               slowLog,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucserve: %v\n", err)
			os.Exit(1)
		}
		if len(shardAddrs) > 0 {
			fmt.Printf("coordinating %d shard worker(s): %s\n", len(shardAddrs), strings.Join(shardAddrs, ", "))
		}
		handler = srv
		closeServer = srv.Close
	}
	role := "serving"
	if *shardWorker {
		role = "shard-worker for"
	}
	for _, gc := range graphs {
		fmt.Printf("%s %-12s %7d nodes %8d edges (seed %d)\n",
			role, gc.Name, gc.Graph.NumNodes(), gc.Graph.NumEdges(), gc.Seed)
	}

	httpSrv := &http.Server{Addr: *listen, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	fmt.Printf("listening on %s\n", *listen)

	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "ucserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
		fmt.Println("draining...")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Graceful drain under -drain-timeout: /healthz flips to 503
		// "draining" immediately so load balancers route away, in-flight
		// work — regular requests, open SSE refinement streams, and the
		// hijacked shard v2 streams — runs to completion, and only then
		// are connections severed. See docs/OPERATIONS.md.
		if wrk != nil {
			// Worker: stop admitting stream requests, flush in-flight
			// tallies, sever the (hijacked) streams Shutdown cannot see.
			if err := wrk.Drain(drainCtx); err != nil {
				fmt.Fprintf(os.Stderr, "ucserve: drain: %v\n", err)
			}
		}
		if srv != nil {
			srv.StartDrain()
		}
		if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "ucserve: shutdown: %v\n", err)
			os.Exit(1)
		}
		if srv != nil {
			if err := srv.Drain(drainCtx); err != nil {
				fmt.Fprintf(os.Stderr, "ucserve: drain: %v\n", err)
			}
		}
		if closeServer != nil {
			closeServer()
		}
	}
}
