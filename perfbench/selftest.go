package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelftest runs every workload of BENCHMARK.json briefly, untraced and
// traced, and fails when a metric is missing, non-finite or without its
// unit, when the emitted names differ from BENCHMARK.json, or when a self
// time is negative by more than its own spread.
func runSelftest(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var problems []string
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			cmd := exec.Command(exe, "--root", root, "--workload", w.Name, "--seed", "1", "--seconds", "2", "--trace", trace, "--brief")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			label := fmt.Sprintf("%s --trace %s", w.Name, trace)
			if err := cmd.Run(); err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", label, err))
				continue
			}
			ps := checkOutput(out.String(), want)
			for _, p := range ps {
				problems = append(problems, label+": "+p)
			}
			fmt.Printf("selftest %-32s %d metrics, %d problems\n", label, len(want), len(ps))
		}
	}
	if len(problems) > 0 {
		return errors.New("selftest failed:\n  " + strings.Join(problems, "\n  "))
	}
	fmt.Println("selftest passed")
	return nil
}

// checkOutput checks one run's output against the expected metric units.
func checkOutput(out string, want map[string]string) []string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return []string{"last line is not a result: " + err.Error()}
	}
	var problems []string
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		problems = append(problems, fmt.Sprintf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed))
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			problems = append(problems, "missing metric "+name)
		case m.Unit == "" || m.Unit != want[name]:
			problems = append(problems, fmt.Sprintf("metric %s has unit %q, want %q", name, m.Unit, want[name]))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, "metric "+name+" is not finite")
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			problems = append(problems, "metric "+name+" is not in BENCHMARK.json")
		}
	}
	for _, line := range lines {
		rest, ok := strings.CutPrefix(line, "# self ")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 3 {
			problems = append(problems, "malformed self line: "+line)
			continue
		}
		mean, err1 := strconv.ParseFloat(strings.TrimPrefix(f[1], "mean="), 64)
		iqr, err2 := strconv.ParseFloat(strings.TrimPrefix(f[2], "iqr="), 64)
		if err1 != nil || err2 != nil {
			problems = append(problems, "malformed self line: "+line)
			continue
		}
		if mean < -iqr {
			problems = append(problems, fmt.Sprintf("self time %s is %.4f ms, negative beyond its spread %.4f", f[0], mean, iqr))
		}
	}
	return problems
}
