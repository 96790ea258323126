package ucgraph

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 5). Each benchmark regenerates its
// table/figure through internal/experiments at a laptop-friendly scale and
// reports the headline quantities via b.ReportMetric, so `go test -bench=.`
// both times the reproduction and surfaces the measured values.
//
// The full-size reproduction (all graphs, more sampled worlds, bigger DBLP)
// is `go run ./cmd/ucexp`.

import (
	"runtime"
	"testing"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/experiments"
)

// benchCfg is the shared laptop-scale experiment configuration.
func benchCfg(graphs ...string) experiments.Config {
	return experiments.Config{
		Seed:          1,
		MetricSamples: 96,
		ScheduleMax:   384,
		DBLPAuthors:   2500,
		Graphs:        graphs,
	}
}

// BenchmarkTable1Datasets regenerates Table 1: synthesizing the four
// datasets and measuring their largest connected components.
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Nodes), r.Name+"_nodes")
				b.ReportMetric(float64(r.Edges), r.Name+"_edges")
			}
		}
	}
}

// reportGridMetric surfaces per-algorithm aggregates of a grid run.
func reportGridMetric(b *testing.B, cells []experiments.Cell, name string, value func(experiments.Cell) float64) {
	agg := map[string][]float64{}
	for _, c := range cells {
		agg[c.Algo] = append(agg[c.Algo], value(c))
	}
	for algo, vals := range agg {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		b.ReportMetric(s/float64(len(vals)), algo+"_"+name)
	}
}

// BenchmarkFigure1Quality regenerates the p_min / p_avg comparison of
// Figure 1 on the Collins-like graph (all four algorithms, three k values).
func BenchmarkFigure1Quality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.QualityGrid(benchCfg("collins"))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportGridMetric(b, cells, "pmin", func(c experiments.Cell) float64 { return c.PMin })
			reportGridMetric(b, cells, "pavg", func(c experiments.Cell) float64 { return c.PAvg })
		}
	}
}

// BenchmarkFigure2AVPR regenerates the inner/outer-AVPR comparison of
// Figure 2 on the Gavin-like graph.
func BenchmarkFigure2AVPR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.QualityGrid(benchCfg("gavin"))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportGridMetric(b, cells, "inner", func(c experiments.Cell) float64 { return c.InnerAVPR })
			reportGridMetric(b, cells, "outer", func(c experiments.Cell) float64 { return c.OuterAVPR })
		}
	}
}

// BenchmarkFigure3Times regenerates the running-time comparison of
// Figure 3 on the Krogan-like graph.
func BenchmarkFigure3Times(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.QualityGrid(benchCfg("krogan"))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportGridMetric(b, cells, "ms", func(c experiments.Cell) float64 { return c.Millis })
		}
	}
}

// BenchmarkFigure4DBLPScaling regenerates the time-versus-k comparison of
// Figure 4 on a scaled DBLP instance.
func BenchmarkFigure4DBLPScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(pts) > 0 {
			first, last := pts[0], pts[len(pts)-1]
			b.ReportMetric(first.MCPMillis, "mcp_ms_smallk")
			b.ReportMetric(first.MCLMillis, "mcl_ms_smallk")
			b.ReportMetric(last.MCPMillis, "mcp_ms_largek")
			b.ReportMetric(last.MCLMillis, "mcl_ms_largek")
		}
	}
}

// BenchmarkTable2ComplexPrediction regenerates the protein-complex
// prediction comparison of Table 2 (depth-limited mcp/acp vs mcl and kpt
// on the Krogan-like graph against the curated ground truth).
func BenchmarkTable2ComplexPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				suffix := r.Algo
				if r.Depth > 0 {
					suffix = r.Algo + "_d" + string(rune('0'+r.Depth))
				}
				b.ReportMetric(r.TPR, suffix+"_tpr")
			}
		}
	}
}

// --- Per-algorithm microbenchmarks on a fixed Krogan-like instance ---

func kroganGraph(b *testing.B) *Graph {
	b.Helper()
	ds, err := SyntheticKrogan(1)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Graph
}

// BenchmarkMCPKrogan times one full MCP run (k = 100) on the Krogan-like
// graph, including Monte Carlo sampling.
func BenchmarkMCPKrogan(b *testing.B) {
	g := kroganGraph(b)
	sched := Schedule{Min: 50, Max: 384, Coef: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := conn.NewMonteCarlo(g, uint64(i))
		if _, _, err := core.MCP(oracle, 100, Options{Seed: uint64(i), Schedule: sched}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACPKrogan times one full ACP run (k = 100).
func BenchmarkACPKrogan(b *testing.B) {
	g := kroganGraph(b)
	sched := Schedule{Min: 50, Max: 384, Coef: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := conn.NewMonteCarlo(g, uint64(i))
		if _, _, err := core.ACP(oracle, 100, Options{Seed: uint64(i), Schedule: sched}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCLKrogan times one MCL run at inflation 2.0.
func BenchmarkMCLKrogan(b *testing.B) {
	g := kroganGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MCL(g, MCLOptions{Inflation: 2.0, MaxNNZPerColumn: 128})
	}
}

// BenchmarkGMMKrogan times one GMM run (k = 100).
func BenchmarkGMMKrogan(b *testing.B) {
	g := kroganGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GMM(g, 100, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKPTKrogan times one pKwikCluster run.
func BenchmarkKPTKrogan(b *testing.B) {
	g := kroganGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KPT(g, uint64(i))
	}
}

// BenchmarkEstimatorFromCenter times one oracle query (256 worlds) on the
// Krogan-like graph — the inner loop of the clustering algorithms.
func BenchmarkEstimatorFromCenter(b *testing.B) {
	g := kroganGraph(b)
	est := NewEstimator(g, 1)
	est.FromCenter(0, Unlimited, 256) // warm the world cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.FromCenter(NodeID(i%g.NumNodes()), Unlimited, 256)
	}
}

// serialBench pins GOMAXPROCS, the worker budget of every fan-out, to 1
// for the rest of b's run.
func serialBench(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// benchFromCenter times fresh-center oracle queries (1024 worlds, world
// cache pre-warmed so tally accumulation dominates). Once every center has
// been queried the estimator is rebuilt off the clock: otherwise
// iterations beyond NumNodes-1 are pure tally-cache hits and would skew
// the serial-vs-parallel comparison.
func benchFromCenter(b *testing.B, depth int) {
	g := kroganGraph(b)
	newEst := func() *Estimator {
		est := NewEstimator(g, 1)
		est.FromCenter(0, Unlimited, 1024) // materialize the worlds
		return est
	}
	est := newEst()
	cycle := g.NumNodes() - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % cycle
		if i > 0 && j == 0 {
			b.StopTimer()
			est = newEst()
			b.StartTimer()
		}
		est.FromCenter(NodeID(1+j), depth, 1024)
	}
}

// BenchmarkFromCenterSerial is the single-threaded engine baseline —
// compare against BenchmarkFromCenterParallel (GOMAXPROCS as set by the
// environment or -cpu) for the speedup trajectory.
func BenchmarkFromCenterSerial(b *testing.B)   { serialBench(b); benchFromCenter(b, Unlimited) }
func BenchmarkFromCenterParallel(b *testing.B) { benchFromCenter(b, Unlimited) }

// Depth-bounded BFS variants of the same comparison.
func BenchmarkFromCenterDepth3Serial(b *testing.B)   { serialBench(b); benchFromCenter(b, 3) }
func BenchmarkFromCenterDepth3Parallel(b *testing.B) { benchFromCenter(b, 3) }

// BenchmarkMCPKroganSerial is BenchmarkMCPKrogan with GOMAXPROCS pinned
// to 1 — the single-threaded seed behaviour; BenchmarkMCPKrogan uses all
// CPUs.
func BenchmarkMCPKroganSerial(b *testing.B) { serialBench(b); BenchmarkMCPKrogan(b) }

// BenchmarkWorldSampling times materializing one possible world's
// component labels on the Krogan-like graph.
func BenchmarkWorldSampling(b *testing.B) {
	g := kroganGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := NewEstimator(g, uint64(i))
		est.FromCenter(0, Unlimited, 16)
	}
}
