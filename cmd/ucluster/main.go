// Command ucluster clusters an uncertain graph read from an edge-list file
// and reports the clustering and its quality metrics.
//
// Usage:
//
//	ucluster -in graph.txt -algo mcp -k 50
//	ucluster -in graph.txt -algo acp -k 50 -depth 3
//	ucluster -in graph.txt -algo mcl -inflation 1.5
//	ucluster -in graph.txt -algo gmm -k 50
//	ucluster -in graph.txt -algo kpt
//	ucluster -in graph.txt -algo mcp -k 20 -out clusters.txt
//
// The optional -out file lists one cluster per line: the center first,
// then the members.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/gio"
	"ucgraph/internal/gmm"
	"ucgraph/internal/kpt"
	"ucgraph/internal/mcl"
	"ucgraph/internal/metrics"
	"ucgraph/internal/worldstore"
)

func main() {
	var (
		in        = flag.String("in", "", "input edge-list file (required)")
		algo      = flag.String("algo", "mcp", "algorithm: mcp, acp, gmm, mcl, kpt")
		k         = flag.Int("k", 10, "number of clusters (mcp, acp, gmm)")
		depth     = flag.Int("depth", -1, "path-length limit d (mcp, acp); -1 = unlimited")
		inflation = flag.Float64("inflation", 2.0, "mcl inflation parameter")
		seed      = flag.Uint64("seed", 1, "random seed")
		samples   = flag.Int("samples", 256, "worlds used to score the clustering")
		worldmem  = flag.Int("worldmem", 0, "world-label memory budget per store in MiB (0 = unbounded); results are identical either way")
		eps       = flag.Float64("eps", 0, "adaptive candidate scoring: stop refining a selection once its score interval is narrower than eps (mcp, acp; 0 = fixed budget)")
		delta     = flag.Float64("delta", 0, "confidence for -eps intervals (default 0.05 when -eps is set)")
		out       = flag.String("out", "", "write clusters to this file")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "ucluster: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	worldstore.SetDefaultBudget(int64(*worldmem) << 20)

	g, err := gio.LoadGraph(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucluster: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	t0 := time.Now()
	var cl *core.Clustering
	switch *algo {
	case "mcp", "acp":
		oracle := conn.NewMonteCarlo(g, *seed)
		opts := core.Options{Seed: *seed, Depth: *depth}
		if *depth == 0 {
			opts.Depth = conn.Unlimited
		}
		if *eps > 0 {
			d := *delta
			if d == 0 {
				d = 0.05
			}
			opts.Adaptive = &core.AdaptiveScoring{Eps: *eps, Delta: d}
		}
		if *algo == "mcp" {
			cl, _, err = core.MCP(oracle, *k, opts)
		} else {
			cl, _, err = core.ACP(oracle, *k, opts)
		}
	case "gmm":
		cl, err = gmm.Cluster(g, *k, *seed)
	case "mcl":
		res := mcl.Cluster(g, mcl.Options{Inflation: *inflation})
		cl = res.Clustering
		fmt.Printf("mcl: %d iterations, converged=%v\n", res.Iterations, res.Converged)
	case "kpt":
		cl = kpt.Cluster(g, *seed)
	default:
		fmt.Fprintf(os.Stderr, "ucluster: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucluster: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(t0)

	ws := worldstore.Shared(g, *seed+0x5eed)
	pmin := metrics.PMin(cl, ws, *samples)
	pavg := metrics.PAvg(cl, ws, *samples)
	inner, outer := metrics.AVPR(cl, ws, *samples)
	fmt.Printf("algorithm   %s\n", *algo)
	fmt.Printf("clusters    %d\n", cl.K())
	fmt.Printf("covered     %d/%d\n", cl.Covered(), cl.N())
	fmt.Printf("time        %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("p_min       %.4f\n", pmin)
	fmt.Printf("p_avg       %.4f\n", pavg)
	fmt.Printf("inner-AVPR  %.4f\n", inner)
	fmt.Printf("outer-AVPR  %.4f\n", outer)

	if *out != "" {
		if err := gio.SaveClusters(*out, cl); err != nil {
			fmt.Fprintf(os.Stderr, "ucluster: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote clusters to %s\n", *out)
	}
}
