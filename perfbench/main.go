// Command perfbench is the repository's benchmark. For one workload it
// generates a fixture and a request sequence from the seed, loads them
// into an in-process ucserve daemon (behind loopback shard workers for the
// sharded workload), drives closed-loop HTTP load, verifies the answers,
// and prints the end-to-end metrics. With --trace 1 it then replays a
// prefix of the same requests serially, layer by layer, and prints the
// per-layer metrics instead. WORKLOADS.md describes the workloads and the
// metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload krogan-cluster --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ucgraph/internal/gio"
	"ucgraph/internal/graph"
	"ucgraph/internal/sampler"
	"ucgraph/internal/worldstore"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string
	brief    bool
}

func main() {
	var o options
	var traceFlag int
	var genDir string
	var selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload name (see WORKLOADS.md)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the fixture and the request sequence derive from it")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = print the per-layer metrics of the traced replay")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.BoolVar(&o.brief, "brief", false, "use a small DBLP fixture (the self-test does)")
	flag.StringVar(&genDir, "gen", "", "write the fixture and the request sequence into this directory and exit")
	flag.BoolVar(&selftest, "selftest", false, "run every workload briefly and check the emitted metrics against BENCHMARK.json")
	flag.Parse()
	o.trace = traceFlag == 1

	var err error
	switch {
	case selftest:
		err = runSelftest(o.root)
	case genDir != "":
		var w *workload
		if w, err = lookupWorkload(o.workload); err == nil {
			err = generate(w, o.seed, genDir, o.brief)
		}
	default:
		var res *result
		if res, err = run(o); err == nil {
			if peak, perr := peakRSS(); perr == nil {
				fmt.Printf("# peak RSS of the whole run: %.0f MiB\n", peak)
			}
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRun is one set-up of the system under test.
type setupRun struct {
	g           *graph.Uncertain
	store       *worldstore.Store
	dep         *deployment
	load, total time.Duration
	warm        time.Duration
}

// setup loads the fixture file, builds the daemon (and workers) and warms
// them: afterwards every world the timed phase reads is materialized, and
// on a budgeted store also spilled to the disk tier.
func setup(w *workload, dir string, seed uint64, attempt int) (*setupRun, error) {
	t0 := time.Now()
	g, err := gio.LoadGraph(filepath.Join(dir, "graph.txt"))
	if err != nil {
		return nil, err
	}
	s := &setupRun{g: g, load: time.Since(t0)}
	cacheDir := ""
	budget := storeBudget(w, g)
	if budget > 0 {
		worldstore.SetDefaultBudget(budget)
		cacheDir = filepath.Join(dir, fmt.Sprintf("worldcache-%d", attempt))
	}
	// The daemon's coordinator builds its store through the same registry,
	// so this is the store every daemon over g answers from.
	s.store = worldstore.Shared(g, seed)
	if s.dep, err = deploy(w, g, seed, cacheDir); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if w.workers > 0 {
		err = warmWorkers(g, seed, s.dep.workers, w.warmWorlds)
	} else {
		s.store.Scan(0, w.warmWorlds, func(int, []int32) {})
		if w.bits {
			s.store.ScanBits(0, w.warmWorlds, func(int, []uint64) {})
		}
		if budget > 0 {
			s.store.SetBudget(1)
			s.store.SetBudget(budget)
		}
	}
	if err != nil {
		s.dep.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.warm = time.Since(t1)
	s.total = time.Since(t0)
	return s, nil
}

// workingSet is the bytes of labels and edge bitmaps of the worlds the
// timed phase reads.
func workingSet(w *workload, g *graph.Uncertain) int64 {
	per := int64(4 * g.NumNodes())
	if w.bits {
		per += int64(8 * sampler.EdgeBitmapWords(g.NumEdges()))
	}
	return per * int64(w.warmWorlds)
}

func storeBudget(w *workload, g *graph.Uncertain) int64 {
	if w.budgetFrac <= 0 {
		return 0
	}
	return int64(w.budgetFrac * float64(workingSet(w, g)))
}

// run performs one benchmark run of one workload.
func run(o options) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	dir := filepath.Join(o.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The fixture and the requests are generated in a child process, so
	// the generator's memory does not count against this one's peak RSS
	// and the daemon sees only the generated files.
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--gen", dir, "--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10)}
	if o.brief {
		args = append(args, "--brief")
	}
	gen := exec.Command(exe, args...)
	gen.Stdout, gen.Stderr = os.Stderr, os.Stderr
	if err := gen.Run(); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	reqs, err := readRequests(dir)
	if err != nil {
		return nil, err
	}
	seq, err := prepare(reqs)
	if err != nil {
		return nil, err
	}
	ws := worldSeed(o.seed)

	// Set up several times; only the last set-up serves the timed phase.
	var sys *setupRun
	var loads, totals, warms []float64
	for i := 0; i < w.setups; i++ {
		if sys != nil {
			sys.dep.close()
			sys = nil
			debug.FreeOSMemory()
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("worldcache-%d", i-1))); err != nil {
				return nil, err
			}
		}
		if sys, err = setup(w, dir, ws, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		loads = append(loads, sys.load.Seconds())
		totals = append(totals, sys.total.Seconds())
		warms = append(warms, sys.warm.Seconds())
	}
	g := sys.g
	n := g.NumNodes()
	fmt.Printf("# workload %s seed %d: %d nodes, %d edges, %d requests in the sequence\n", w.name, o.seed, n, g.NumEdges(), len(seq))

	var rampFailed int
	if w.ramp > 0 {
		ramp := runLoad(sys.dep.d.url, seq, w.clients, phase{count: w.ramp, d: 5 * time.Minute}, 0, n)
		for _, oc := range ramp.outcomes {
			if oc.err != nil {
				rampFailed++
				fmt.Printf("# ramp-up failure: request %d: %v\n", oc.idx, oc.err)
			}
		}
		fmt.Printf("# ramp-up: %d requests in %.2fs, not timed\n", len(ramp.outcomes), ramp.elapsed.Seconds())
	}
	workersBefore := workerCounters(sys.dep.workers)
	load := runLoad(sys.dep.d.url, seq, w.clients, phase{from: w.ramp, d: time.Duration(o.seconds) * time.Second}, w.keep, n)
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	workersAfter := workerCounters(sys.dep.workers)

	tv := time.Now()
	v := &verifier{w: w, g: g, seed: ws, seq: seq}
	compared, err := v.compare(load.outcomes, o.seed)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	pmin, pavg, scored, err := v.quality(load.outcomes)
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	verifyTime := time.Since(tv)

	// A failed ramp-up request is a failure like any other; the ramp-up's
	// successes are not timed, so they are not counted as attempted.
	res := &result{Attempted: len(load.outcomes) + rampFailed, Failed: rampFailed, Metrics: map[string]metric{}}
	var lat []time.Duration
	sizes := make([]float64, 0, len(load.outcomes))
	for _, oc := range load.outcomes {
		if oc.err != nil {
			res.Failed++
			if res.Failed <= 3 {
				fmt.Printf("# failure: request %d: %v\n", oc.idx, oc.err)
			}
			continue
		}
		lat = append(lat, oc.latency)
		sizes = append(sizes, float64(oc.bytes)/1024)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	sorted := sortedMS(lat)
	rung := tailRung(len(sorted), w.maxTail)
	sort.Float64s(sizes)
	fmt.Printf("# timed phase: %d requests (%d failed) in %.2fs by %d client(s); tail_ms is p%g with %d samples beyond it; max %.1f ms\n",
		res.Attempted, res.Failed, load.elapsed.Seconds(), w.clients, rung, int(float64(len(sorted))*(1-rung/100)), sorted[len(sorted)-1])
	win := make([]int, o.seconds)
	for _, oc := range load.outcomes {
		if k := int(oc.done / time.Second); k < len(win) {
			win[k]++
		}
	}
	fmt.Printf("# completions per second: %v\n", win)
	fmt.Printf("# response KiB quartiles: %.1f / %.1f / %.1f\n", percentile(sizes, 25), percentile(sizes, 50), percentile(sizes, 75))
	fmt.Printf("# verification: %d answers bit-compared with the library path, %d scored on an independent world seed, in %.1fs\n", compared, scored, verifyTime.Seconds())
	printShares(seq, load.outcomes)
	if budget := storeBudget(w, g); budget > 0 {
		fmt.Printf("# working set %.1f MiB against a store budget of %.1f MiB\n", float64(workingSet(w, g))/(1<<20), float64(budget)/(1<<20))
	}
	if w.workers > 0 {
		hits := workersAfter.CacheHits - workersBefore.CacheHits
		miss := workersAfter.CacheMiss - workersBefore.CacheMiss
		fmt.Printf("# timed-phase worker tally-cache hit ratio %.3f (%d of %d)\n", ratio(float64(hits), float64(hits+miss)), hits, hits+miss)
	}

	if !o.trace {
		okCount := float64(len(lat))
		res.Metrics["setup_s"] = metric{median(totals), "s"}
		res.Metrics["p50_ms"] = metric{percentile(sorted, 50), "ms"}
		res.Metrics["tail_ms"] = metric{percentile(sorted, rung), "ms"}
		res.Metrics["ops_per_s"] = metric{okCount / load.elapsed.Seconds(), "1/s"}
		res.Metrics["success_rate"] = metric{okCount / float64(res.Attempted), "fraction"}
		res.Metrics["pmin"] = metric{pmin, "probability"}
		res.Metrics["pavg"] = metric{pavg, "probability"}
		res.Metrics["rss_mb"] = metric{rss, "MiB"}
		sys.dep.close()
		return res, checkFinite(res)
	}

	// The traced replay runs on fresh rung instances over the same store;
	// the timed deployment goes first, and its memory back to the OS.
	sys.dep.close()
	debug.FreeOSMemory()
	t := &tracer{w: w, g: g, seed: ws, store: sys.store, seq: seq}
	if err := t.run(); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	kernelWorlds := 64
	if w.fixture == "dblp" {
		kernelWorlds = 8
	}
	k := samplerRung(g, ws, kernelWorlds)
	tier, err := tiers(g, ws, dir)
	if err != nil {
		return nil, err
	}
	rows := layerRows(w, t, k, tier, median(loads), median(warms))
	for _, r := range rows {
		fmt.Printf("# layer %-36s %14.4f %-8s %s\n", r.name, r.value, r.unit, r.state)
		res.Metrics[r.name] = metric{r.value, r.unit}
	}
	for _, sc := range selfChecks(t) {
		fmt.Printf("# self %s mean=%.4f iqr=%.4f\n", sc.name, sc.mean, sc.iqr)
	}
	spans := filepath.Join(o.root, ".bench_build", "spans")
	if err := os.MkdirAll(spans, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed)), t.spans); err != nil {
		return nil, err
	}
	return res, checkFinite(res)
}

// printShares prints the request-class shares of the timed phase with
// each class's median latency, so the end-to-end median and tail can be
// placed inside a class's latency mode.
func printShares(seq []prepared, outs []outcome) {
	lat := map[string][]time.Duration{}
	for _, o := range outs {
		c := seq[o.idx].req.class()
		lat[c] = append(lat[c], o.latency)
	}
	var names []string
	for c := range lat {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Printf("# class %-20s %5.1f%% of requests, median %.3f ms\n", c, 100*float64(len(lat[c]))/float64(len(outs)), percentile(sortedMS(lat[c]), 50))
	}
}

func checkFinite(res *result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}

// peakRSS returns the process's peak resident set (VmHWM), in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
