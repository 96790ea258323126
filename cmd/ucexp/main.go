// Command ucexp reproduces the tables and figures of "Clustering Uncertain
// Graphs" (Ceccarello et al., VLDB 2017) on the synthetic stand-in
// datasets.
//
// Usage:
//
//	ucexp -exp all                 # everything (Table 1-2, Figures 1-4)
//	ucexp -exp table1
//	ucexp -exp figures             # the quality grid behind Figures 1-3
//	ucexp -exp figure4
//	ucexp -exp table2
//	ucexp -exp figures -graphs collins,gavin -seed 7
//
// Flags tune the scale so the full reproduction also runs on small
// machines; -dblp 636751 approaches the paper's original instance (slow).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ucgraph/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all, table1, figures, figure4, table2")
		seed     = flag.Uint64("seed", 1, "random seed for datasets and algorithms")
		samples  = flag.Int("samples", 192, "possible worlds used to score clusterings")
		schedMx  = flag.Int("schedmax", 768, "cap on per-phase Monte Carlo samples in mcp/acp")
		dblp     = flag.Int("dblp", 6000, "authors in the synthetic DBLP instance")
		graphs   = flag.String("graphs", "", "comma-separated dataset subset (default all)")
		runs     = flag.Int("runs", 1, "average randomized algorithms over this many runs")
		worldmem = flag.Int("worldmem", 0, "world-label memory budget per store in MiB (0 = unbounded); results are identical either way")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed:             *seed,
		MetricSamples:    *samples,
		ScheduleMax:      *schedMx,
		DBLPAuthors:      *dblp,
		Runs:             *runs,
		WorldMemBudgetMB: *worldmem,
	}
	if *graphs != "" {
		cfg.Graphs = strings.Split(*graphs, ",")
	}

	run := func(name string, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "ucexp: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	ran := false
	if want("table1") {
		ran = true
		run("table1", func() error {
			rows, err := experiments.Table1(cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable1(rows))
			return nil
		})
	}
	if want("figures") {
		ran = true
		run("figures 1-3", func() error {
			cells, err := experiments.QualityGrid(cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure1(cells))
			fmt.Println()
			fmt.Print(experiments.FormatFigure2(cells))
			fmt.Println()
			fmt.Print(experiments.FormatFigure3(cells))
			return nil
		})
	}
	if want("figure4") {
		ran = true
		run("figure4", func() error {
			pts, err := experiments.Figure4(cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure4(pts))
			return nil
		})
	}
	if want("table2") {
		ran = true
		run("table2", func() error {
			rows, err := experiments.Table2(cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable2(rows))
			return nil
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ucexp: unknown experiment %q (want all, table1, figures, figure4, table2)\n", *exp)
		os.Exit(2)
	}
}
