package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ucgraph/internal/obs"
)

// storeStats, shardStats and fabricStats decode the /statsz and
// /v1/shards blocks of one graph's world store, shard workers and shard
// fabric.
type storeStats struct {
	Worlds               int    `json:"worlds"`
	ResidentBlocks       int    `json:"resident_blocks"`
	ResidentLabelBlocks  int    `json:"resident_label_blocks"`
	ResidentBitmapBlocks int    `json:"resident_bitmap_blocks"`
	ResidentBytes        int64  `json:"resident_bytes"`
	BlockWorlds          int    `json:"block_worlds"`
	Hits                 uint64 `json:"hits"`
	Materializations     uint64 `json:"materializations"`
	Recomputes           uint64 `json:"recomputes"`
	ColdRecomputes       uint64 `json:"cold_recomputes"`
	PostSpillRecomputes  uint64 `json:"post_spill_recomputes"`
	Evictions            uint64 `json:"evictions"`
	DiskHits             uint64 `json:"disk_hits"`
	DiskBytes            int64  `json:"disk_bytes"`
	SpillWrites          uint64 `json:"spill_writes"`
	CorruptDropped       uint64 `json:"corrupt_dropped"`
	AccumWorlds          uint64 `json:"accum_worlds"`
	AccumFlushes         uint64 `json:"accum_flushes"`
	DirectWorlds         uint64 `json:"direct_worlds"`
	CacheDir             string `json:"cache_dir,omitempty"`
}

type shardStats struct {
	Addr             string `json:"addr"`
	State            string `json:"state"`
	Requests         uint64 `json:"requests"`
	Failures         uint64 `json:"failures"`
	Duplicates       uint64 `json:"duplicates"`
	RangesServed     uint64 `json:"ranges_served"`
	WorldsServed     uint64 `json:"worlds_served"`
	BreakerTrips     uint64 `json:"breaker_trips,omitempty"`
	BreakerOpen      bool   `json:"breaker_open,omitempty"`
	IntegrityRejects uint64 `json:"integrity_rejects,omitempty"`
	LastRTTMS        int64  `json:"last_rtt_ms"`
	LastOKMS         int64  `json:"last_ok_unix_ms,omitempty"`
	LastErr          string `json:"last_err,omitempty"`
}

type fabricStats struct {
	Hedges           uint64 `json:"hedges"`
	Duplicates       uint64 `json:"duplicates"`
	Rescatters       uint64 `json:"rescatters"`
	BreakerTrips     uint64 `json:"breaker_trips"`
	Quarantines      uint64 `json:"quarantines"`
	IntegrityRejects uint64 `json:"integrity_rejects"`
	Audits           uint64 `json:"audits"`
	AuditDivergences uint64 `json:"audit_divergences"`
}

// promSample is one parsed /metricsz sample.
type promSample struct {
	labels map[string]string
	value  float64
}

// promFamilies is a parsed /metricsz scrape: each family's type and its
// samples (a histogram's _bucket, _sum and _count samples under the
// family name).
type promFamilies struct {
	types   map[string]string
	samples map[string][]promSample
}

var (
	promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	promLabelRE  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// scrapeMetrics fetches /metricsz, checks it with the strict parser of
// internal/obs and parses it.
func scrapeMetrics(t *testing.T, base string) promFamilies {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("/metricsz is not valid Prometheus text: %v\n%s", err, buf.String())
	}
	pf := promFamilies{types: map[string]string{}, samples: map[string][]promSample{}}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			pf.types[f[2]] = f[3]
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		s := promSample{labels: map[string]string{}, value: v}
		for _, l := range promLabelRE.FindAllStringSubmatch(m[2], -1) {
			s.labels[l[1]] = l[2]
		}
		name := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && pf.types[base] == "histogram" {
				name = base
			}
		}
		pf.samples[name] = append(pf.samples[name], s)
	}
	return pf
}

// shape is a family's type and its sorted label names (le excluded).
func (pf promFamilies) shape(name string) string {
	seen := map[string]bool{}
	for _, s := range pf.samples[name] {
		for l := range s.labels {
			if l != "le" {
				seen[l] = true
			}
		}
	}
	labels := make([]string, 0, len(seen))
	for l := range seen {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return strings.TrimSpace(pf.types[name] + " " + strings.Join(labels, ","))
}

// legacyFamilies are the /metricsz families exported before /statsz and
// /metricsz were rendered from one table, with their types and label
// names: dashboards are built on them, so none may be renamed or retyped.
var legacyFamilies = map[string]string{
	"ucgraph_build_info":                       "gauge commit,go_version,version",
	"ucgraph_uptime_seconds":                   "gauge",
	"ucgraph_inflight_requests":                "gauge",
	"ucgraph_draining":                         "gauge",
	"ucgraph_requests_total":                   "counter",
	"ucgraph_failures_total":                   "counter",
	"ucgraph_adaptive_queries_total":           "counter",
	"ucgraph_worlds_saved_total":               "counter",
	"ucgraph_jobs":                             "gauge state",
	"ucgraph_store_worlds":                     "gauge graph",
	"ucgraph_store_resident_blocks":            "gauge graph",
	"ucgraph_store_resident_bytes":             "gauge graph",
	"ucgraph_store_hits_total":                 "counter graph",
	"ucgraph_store_materializations_total":     "counter graph",
	"ucgraph_store_recomputes_total":           "counter graph",
	"ucgraph_store_evictions_total":            "counter graph",
	"ucgraph_store_disk_hits_total":            "counter graph",
	"ucgraph_store_spill_writes_total":         "counter graph",
	"ucgraph_store_corrupt_dropped_total":      "counter graph",
	"ucgraph_fabric_hedges_total":              "counter graph",
	"ucgraph_fabric_duplicates_total":          "counter graph",
	"ucgraph_fabric_rescatters_total":          "counter graph",
	"ucgraph_fabric_breaker_trips_total":       "counter graph",
	"ucgraph_fabric_quarantines_total":         "counter graph",
	"ucgraph_fabric_integrity_rejects_total":   "counter graph",
	"ucgraph_fabric_audits_total":              "counter graph",
	"ucgraph_fabric_audit_divergences_total":   "counter graph",
	"ucgraph_shard_worker_up":                  "gauge graph,worker",
	"ucgraph_shard_worker_requests_total":      "counter graph,worker",
	"ucgraph_shard_worker_failures_total":      "counter graph,worker",
	"ucgraph_shard_worker_worlds_served_total": "counter graph,worker",
	"ucgraph_request_seconds":                  "histogram endpoint",
	"ucgraph_stage_seconds":                    "histogram stage",
	"ucgraph_shard_rtt_seconds":                "histogram worker",
}

// tableFamilies are the families the stat tables added for /statsz
// numbers that had none.
var tableFamilies = map[string]string{
	"ucgraph_store_resident_label_blocks":          "gauge graph",
	"ucgraph_store_resident_bitmap_blocks":         "gauge graph",
	"ucgraph_store_block_worlds":                   "gauge graph",
	"ucgraph_store_cold_recomputes_total":          "counter graph",
	"ucgraph_store_post_spill_recomputes_total":    "counter graph",
	"ucgraph_store_disk_bytes":                     "gauge graph",
	"ucgraph_store_accum_worlds_total":             "counter graph",
	"ucgraph_store_accum_flushes_total":            "counter graph",
	"ucgraph_store_direct_worlds_total":            "counter graph",
	"ucgraph_shard_worker_duplicates_total":        "counter graph,worker",
	"ucgraph_shard_worker_ranges_served_total":     "counter graph,worker",
	"ucgraph_shard_worker_breaker_trips_total":     "counter graph,worker",
	"ucgraph_shard_worker_breaker_open":            "gauge graph,worker",
	"ucgraph_shard_worker_integrity_rejects_total": "counter graph,worker",
	"ucgraph_shard_worker_last_rtt_ms":             "gauge graph,worker",
	"ucgraph_shard_worker_last_ok_unix_ms":         "gauge graph,worker",
}

// TestStatszAndMetricszAgree scrapes a quiet coordinator over two workers
// after real traffic: every number or bool of a graph's store, fabric
// and shards blocks in /statsz equals the sample of its /metricsz family
// (ucgraph_store_<key>, ucgraph_fabric_<key>, ucgraph_shard_worker_<key>,
// with _total on counters), the legacy families keep their names, types
// and labels, the families the tables added are there, and every family
// is documented.
func TestStatszAndMetricszAgree(t *testing.T) {
	g := testGraph(t, 72, 5)
	// Background pings stay off (the Options default), so nothing moves
	// the counters once the traffic below has been answered.
	s, err := New([]GraphConfig{{Name: "ring", Graph: g, Seed: 7}}, Options{
		Shards: startShardWorkers(t, g, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	for _, req := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/conn", map[string]any{"graph": "ring", "centers": []int32{1, 33}, "samples": 400, "explain": true}},
		{"/v1/conn", map[string]any{"graph": "ring", "centers": []int32{5}, "depth": 2, "samples": 300}},
		{"/v1/cluster", map[string]any{"graph": "ring", "algo": "mcp", "k": 3, "seed": 11}},
		{"/v1/knn", map[string]any{"graph": "ring", "source": 2, "k": 4, "samples": 200}},
	} {
		if code, raw := post(t, ts.URL+req.path, req.body, nil); code != 200 {
			t.Fatalf("%s: code %d: %s", req.path, code, raw)
		}
	}
	// Wait until two reads of the graph's blocks agree: the traffic has
	// stopped moving them.
	var statsz map[string]any
	var prev any
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		statsz = nil
		if code := get(t, ts.URL+"/statsz", &statsz); code != 200 {
			t.Fatal("statsz failed")
		}
		cur := statsz["graphs"].(map[string]any)["ring"]
		if reflect.DeepEqual(cur, prev) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the graph's counters did not settle")
		}
		prev = cur
	}
	pf := scrapeMetrics(t, ts.URL)

	gm := statsz["graphs"].(map[string]any)["ring"].(map[string]any)
	checked := map[string]bool{}
	agree := func(prefix string, block map[string]any, labels map[string]string) {
		t.Helper()
		for key, v := range block {
			var want float64
			switch x := v.(type) {
			case float64:
				want = x
			case bool:
				if x {
					want = 1
				}
			default:
				continue
			}
			fam := prefix + key
			if _, ok := pf.types[fam]; !ok {
				fam += "_total"
			}
			var got []float64
			for _, s := range pf.samples[fam] {
				if reflect.DeepEqual(s.labels, labels) {
					got = append(got, s.value)
				}
			}
			if len(got) != 1 || got[0] != want {
				t.Errorf("/statsz %s = %v, /metricsz %s%v = %v", key, v, fam, labels, got)
			}
			checked[fam] = true
		}
	}
	agree("ucgraph_store_", gm["store"].(map[string]any), map[string]string{"graph": "ring"})
	agree("ucgraph_fabric_", gm["fabric"].(map[string]any), map[string]string{"graph": "ring"})
	workers := gm["shards"].([]any)
	if len(workers) != 2 {
		t.Fatalf("/statsz shards: %v", workers)
	}
	for _, w := range workers {
		ws := w.(map[string]any)
		agree("ucgraph_shard_worker_", ws, map[string]string{"graph": "ring", "worker": ws["addr"].(string)})
	}
	if len(checked) != 19+8+10 {
		t.Errorf("compared %d families, want 37 (19 store, 8 fabric, 10 worker): %v", len(checked), checked)
	}

	doc := readDocs(t, "OPERATIONS.md", "SERVER.md")
	for _, fams := range []map[string]string{legacyFamilies, tableFamilies} {
		for name, want := range fams {
			if got := pf.shape(name); got != want {
				t.Errorf("family %s: %q, want %q", name, got, want)
			}
		}
	}
	if len(pf.types) != len(legacyFamilies)+len(tableFamilies) {
		t.Errorf("/metricsz has %d families, want %d", len(pf.types), len(legacyFamilies)+len(tableFamilies))
	}
	for name := range pf.types {
		if !strings.Contains(doc, "`"+name+"`") && !strings.Contains(doc, "`"+name+"{") {
			t.Errorf("family %s is documented in neither docs/OPERATIONS.md nor docs/SERVER.md", name)
		}
	}
}

// readDocs concatenates files of the docs directory.
func readDocs(t *testing.T, names ...string) string {
	t.Helper()
	var all strings.Builder
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join("..", "..", "docs", name))
		if err != nil {
			t.Fatal(err)
		}
		all.Write(b)
	}
	return all.String()
}

// TestRequestHistogramLabelsAreRoutes: ucgraph_request_seconds labels a
// request with the path of the route it matched, and a request no route
// matched (an unknown path, a wrong method) with "other", so random job
// IDs and paths add no labels.
func TestRequestHistogramLabelsAreRoutes(t *testing.T) {
	_, ts := newTestServer(t, testGraph(t, 32, 1), Options{})
	rnd := rand.New(rand.NewPCG(1, 2))
	id := func() string { return strconv.FormatUint(rnd.Uint64(), 36) }
	routes := []struct{ method, path, label string }{
		{"GET", "/healthz", "/healthz"},
		{"GET", "/statsz", "/statsz"},
		{"GET", "/metricsz", "/metricsz"},
		{"GET", "/v1/graphs", "/v1/graphs"},
		{"POST", "/v1/conn", "/v1/conn"},
		{"POST", "/v1/cluster", "/v1/cluster"},
		{"GET", "/v1/jobs/" + id(), "/v1/jobs/{id}"},
		{"DELETE", "/v1/jobs/" + id(), "/v1/jobs/{id}"},
		{"POST", "/v1/knn", "/v1/knn"},
		{"POST", "/v1/influence", "/v1/influence"},
		{"POST", "/v1/reliability", "/v1/reliability"},
		{"GET", "/v1/shards", "/v1/shards"},
		{"POST", "/v1/shards", "/v1/shards"},
		{"GET", "/debug/traces", "/debug/traces"},
		{"GET", "/debug/traces/" + id(), "/debug/traces/{id}"},
		{"GET", "/" + id(), "other"},
		{"GET", "/v1/" + id() + "/" + id(), "other"},
		{"GET", "/v1/jobs", "other"},
		{"DELETE", "/v1/conn", "other"},
		{"POST", "/statsz", "other"},
	}
	want := map[string]bool{}
	for _, rt := range routes {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// The whole body arrives only after ServeHTTP observed the request.
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[rt.label] = true
	}
	got := map[string]bool{}
	for _, s := range scrapeMetrics(t, ts.URL).samples["ucgraph_request_seconds"] {
		got[s.labels["endpoint"]] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("endpoint labels %v, want %v", keysOf(got), keysOf(want))
	}
}

func keysOf(m map[string]bool) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}
