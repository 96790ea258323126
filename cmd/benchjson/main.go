// Command benchjson converts `go test -bench` text output (read from
// stdin) into a stable JSON document on stdout, so benchmark runs can be
// committed (BENCH_conn.json, BENCH_store.json) and diffed across changes.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | go run ./cmd/benchjson -suite conn
//
// The -suite flag labels the document, so multiple benchmark files (the
// estimator-level conn suite, the storage-tier store suite) stay
// distinguishable after archiving. Standard columns (ns/op, B/op,
// allocs/op) get dedicated fields; every other "value unit" pair —
// including b.ReportMetric custom metrics — lands in the metrics map keyed
// by unit.
//
// With -update FILE, the parsed benchmarks are merged into an existing
// report file instead of emitted on stdout: entries whose names match are
// replaced, new names are appended, and everything else in the file is
// preserved. This is how partial benchmark targets (`make bench-store`,
// `make bench-dblp`) refresh their slice of BENCH_store.json without
// rerunning — or discarding — the rest of the suite.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Suite      string      `json:"suite,omitempty"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseLine parses one "BenchmarkName-P  N  v unit  v unit ..." line;
// ok is false for non-benchmark lines.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	b := Benchmark{Name: strings.TrimPrefix(fields[0], "Benchmark")}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// mergeInto folds parsed benchmarks into the report stored at path,
// replacing same-name entries and appending new ones, and rewrites the
// file in place. A missing file starts from an empty report.
func mergeInto(path string, report Report) error {
	existing := Report{Suite: report.Suite}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &existing); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	byName := make(map[string]int, len(existing.Benchmarks))
	for i, b := range existing.Benchmarks {
		byName[b.Name] = i
	}
	for _, b := range report.Benchmarks {
		if i, ok := byName[b.Name]; ok {
			existing.Benchmarks[i] = b
		} else {
			byName[b.Name] = len(existing.Benchmarks)
			existing.Benchmarks = append(existing.Benchmarks, b)
		}
	}
	// Environment fields describe the freshest run.
	existing.GoVersion = report.GoVersion
	existing.GOOS = report.GOOS
	existing.GOARCH = report.GOARCH
	out, err := json.MarshalIndent(existing, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	suite := flag.String("suite", "", "label recorded in the emitted document")
	update := flag.String("update", "", "merge results into this report file instead of writing stdout")
	flag.Parse()
	report := Report{
		Suite:     *suite,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *update != "" {
		if err := mergeInto(*update, report); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
