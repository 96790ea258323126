package experiments

import (
	"math"
	"strings"
	"testing"
)

// tinyCfg keeps experiment tests fast: small sample counts and a small
// DBLP instance.
func tinyCfg() Config {
	return Config{
		Seed:          1,
		MetricSamples: 48,
		ScheduleMax:   128,
		DBLPAuthors:   1200,
	}
}

func TestTable1AllDatasets(t *testing.T) {
	cfg := tinyCfg()
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table1 returned %d rows, want 4", len(rows))
	}
	want := map[string]int{"collins": 1004, "gavin": 1727, "krogan": 2559}
	for _, r := range rows {
		if r.Nodes < 100 || r.Edges < 100 {
			t.Fatalf("%s: degenerate stats %+v", r.Name, r)
		}
		if wantN, ok := want[r.Name]; ok {
			diff := r.Nodes - wantN
			if diff < 0 {
				diff = -diff
			}
			if float64(diff) > 0.06*float64(wantN) {
				t.Fatalf("%s: %d nodes, want ~%d", r.Name, r.Nodes, wantN)
			}
		}
	}
}

// qualityGolden pins every Collins cell of tinyCfg's quality grid: the
// Figure 1 pmin/pavg and the Figure 2 inner/outer AVPR of each
// (k, algorithm). Any change to a clustering, its sampling or its
// scoring shows up here as a changed cell.
var qualityGolden = []struct {
	k                    int
	algo                 string
	pmin, pavg           float64
	innerAVPR, outerAVPR float64
}{
	{8, "mcl", 0.16666666666666666, 0.9866749174917484, 0.9833202323088092, 0.9711049066317227},
	{8, "gmm", 0.41666666666666663, 0.9908003300330028, 0.984096372135552, 0.6059674138328088},
	{8, "mcp", 0.47916666666666663, 0.9915635313531348, 0.9836716020448802, 0.46288796122230824},
	{8, "acp", 0.16666666666666666, 0.989067656765676, 0.980535616701375, 0.7416839384867326},
	{65, "mcl", 0.16666666666666666, 0.9897483498349833, 0.9933683259961621, 0.9739796905837735},
	{65, "gmm", 0.6458333333333333, 0.9930280528052795, 0.998459100465057, 0.9562061962751952},
	{65, "mcp", 0.6458333333333333, 0.9962046204620457, 0.9932870861310663, 0.8484188037409479},
	{65, "acp", 0.8541666666666666, 0.9989686468646858, 0.9979709992705726, 0.8118392503400728},
	{92, "mcl", 0.25, 0.9904496699669963, 0.9962384869577445, 0.9740156073668051},
	{92, "gmm", 0.8125, 0.9953176567656771, 0.9976963240842243, 0.9707089225228999},
	{92, "mcp", 0.6458333333333333, 0.9962458745874582, 0.9931799929054269, 0.8886289234192336},
	{92, "acp", 0.8541666666666666, 0.9989686468646858, 0.9979112994498256, 0.8643068567132292},
}

func TestQualityGridCollins(t *testing.T) {
	cfg := tinyCfg()
	cfg.Graphs = []string{"collins"}
	cells, err := QualityGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(qualityGolden) { // 3 inflations x 4 algorithms
		t.Fatalf("grid has %d cells, want %d", len(cells), len(qualityGolden))
	}
	// Within 1e-12, not bit for bit: the metrics are float sums, which
	// Go may contract into fused multiply-adds on other architectures.
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	for i, want := range qualityGolden {
		c := cells[i]
		if c.K != want.k || c.Algo != want.algo || !near(c.PMin, want.pmin) || !near(c.PAvg, want.pavg) ||
			!near(c.InnerAVPR, want.innerAVPR) || !near(c.OuterAVPR, want.outerAVPR) {
			t.Errorf("cell %d = %+v, want %+v", i, c, want)
		}
	}
	algos := map[string]int{}
	for _, c := range cells {
		algos[c.Algo]++
		if c.Graph != "collins" {
			t.Fatalf("unexpected graph %q", c.Graph)
		}
		if c.PMin < 0 || c.PMin > 1 || c.PAvg < 0 || c.PAvg > 1 {
			t.Fatalf("probabilities out of range: %+v", c)
		}
		if c.InnerAVPR < 0 || c.InnerAVPR > 1 || c.OuterAVPR < 0 || c.OuterAVPR > 1 {
			t.Fatalf("AVPR out of range: %+v", c)
		}
		if c.Millis < 0 {
			t.Fatalf("negative time: %+v", c)
		}
		if c.K < 1 {
			t.Fatalf("bad k: %+v", c)
		}
	}
	for _, a := range []string{"gmm", "mcl", "mcp", "acp"} {
		if algos[a] == 0 {
			t.Fatalf("algorithm %s missing from grid", a)
		}
	}
	// Same k for all four algorithms within a (graph, k) group is implied
	// by construction; check pmin ordering on the easiest claim: mcp's
	// worst pmin across cells is at least as good as gmm's worst.
	worst := func(algo string) float64 {
		w := 1.0
		for _, c := range cells {
			if c.Algo == algo && c.PMin < w {
				w = c.PMin
			}
		}
		return w
	}
	if worst("mcp") < worst("gmm")-0.05 {
		t.Fatalf("mcp worst pmin %v clearly below gmm %v", worst("mcp"), worst("gmm"))
	}
}

func TestQualityGridAveragedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment reproduction; run without -short")
	}
	cfg := tinyCfg()
	cfg.Graphs = []string{"collins"}
	cfg.Runs = 2
	cells, err := QualityGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := tinyCfg()
	single.Graphs = []string{"collins"}
	cellsSingle, err := QualityGrid(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(cellsSingle) {
		t.Fatalf("averaging changed the cell count: %d vs %d", len(cells), len(cellsSingle))
	}
	for _, c := range cells {
		if c.PMin < 0 || c.PMin > 1 || c.PAvg < 0 || c.PAvg > 1 {
			t.Fatalf("averaged cell out of range: %+v", c)
		}
	}
}

func TestQualityGridUnknownDataset(t *testing.T) {
	cfg := tinyCfg()
	cfg.Graphs = []string{"nope"}
	if _, err := QualityGrid(cfg); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestFigure4Points(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment reproduction; run without -short")
	}
	cfg := tinyCfg()
	pts, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("figure4 produced %d points", len(pts))
	}
	seen := map[int]bool{}
	for _, p := range pts {
		if p.K < 2 {
			t.Fatalf("bad k: %+v", p)
		}
		if seen[p.K] {
			t.Fatalf("duplicate k=%d", p.K)
		}
		seen[p.K] = true
		if p.MCPMillis < 0 || p.MCLMillis < 0 {
			t.Fatalf("negative time: %+v", p)
		}
	}
}

// table2Golden pins every Table 2 row of tinyCfg: the TPR and FPR of each
// predictor are single integer divisions of pair counts, so they are
// exact on every platform, and any change to a depth-limited tally, a
// clustering or the scoring shows up here as a changed row.
var table2Golden = []PredictionRow{
	{"mcp", 2, 0.8020289855072463, 0.001167993627908689},
	{"acp", 2, 0.7559420289855072, 0.0007329243682292347},
	{"mcp", 3, 0.8556521739130435, 0.002165306238558515},
	{"acp", 3, 0.9168115942028986, 0.001693423426136953},
	{"mcp", 4, 0.8255072463768116, 0.004477866688085461},
	{"acp", 4, 0.871304347826087, 0.004698748004538107},
	{"mcp", 6, 0.7901449275362319, 0.012054765179733805},
	{"acp", 6, 0.8927536231884058, 0.008975813495848436},
	{"mcp", 8, 0.7292753623188406, 0.014196644612001888},
	{"acp", 8, 0.8669565217391304, 0.017372650207661905},
	{"mcl", 0, 0.9115942028985508, 0.00017068101725886285},
	{"kpt", 0, 0.3356521739130435, 0.0003313219746789691},
}

func TestTable2Rows(t *testing.T) {
	cfg := tinyCfg()
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 depths x 2 algorithms + mcl + kpt.
	if len(rows) != len(table2Golden) {
		t.Fatalf("table2 has %d rows, want %d", len(rows), len(table2Golden))
	}
	for i, want := range table2Golden {
		if rows[i] != want {
			t.Errorf("table2 row %d = %+v, want %+v", i, rows[i], want)
		}
	}
	byAlgoDepth := map[string]map[int]PredictionRow{}
	for _, r := range rows {
		if r.TPR < 0 || r.TPR > 1 || r.FPR < 0 || r.FPR > 1 {
			t.Fatalf("rates out of range: %+v", r)
		}
		if byAlgoDepth[r.Algo] == nil {
			byAlgoDepth[r.Algo] = map[int]PredictionRow{}
		}
		byAlgoDepth[r.Algo][r.Depth] = r
	}
	// FPR grows (weakly) with depth for mcp, as in the paper.
	prev := -1.0
	for _, d := range []int{2, 3, 4, 6, 8} {
		r, ok := byAlgoDepth["mcp"][d]
		if !ok {
			t.Fatalf("missing mcp depth %d", d)
		}
		if r.FPR < prev-0.05 {
			t.Fatalf("mcp FPR not weakly increasing with depth: %v after %v", r.FPR, prev)
		}
		prev = r.FPR
	}
	// kpt has the lowest TPR of all predictors (its key weakness in the
	// paper's comparison).
	kptTPR := byAlgoDepth["kpt"][0].TPR
	for _, r := range rows {
		if r.Algo != "kpt" && r.TPR < kptTPR-0.05 {
			t.Fatalf("%s d=%d TPR %v below kpt %v", r.Algo, r.Depth, r.TPR, kptTPR)
		}
	}
}

func TestFormatters(t *testing.T) {
	stats := []DatasetStats{{Name: "collins", Nodes: 1000, Edges: 8000}}
	if s := FormatTable1(stats); !strings.Contains(s, "collins") || !strings.Contains(s, "8000") {
		t.Fatalf("FormatTable1 output missing content:\n%s", s)
	}
	cells := []Cell{
		{Graph: "gavin", K: 50, Algo: "mcp", PMin: 0.5, PAvg: 0.8, InnerAVPR: 0.7, OuterAVPR: 0.1, Millis: 42},
		{Graph: "gavin", K: 50, Algo: "gmm", PMin: 0.1, PAvg: 0.4, InnerAVPR: 0.6, OuterAVPR: 0.5, Millis: 7},
	}
	f1 := FormatFigure1(cells)
	if !strings.Contains(f1, "p_min") || !strings.Contains(f1, "p_avg") || !strings.Contains(f1, "mcp") {
		t.Fatalf("FormatFigure1 incomplete:\n%s", f1)
	}
	// gmm sorts before mcp within a group.
	if strings.Index(f1, "gmm") > strings.Index(f1, "mcp") {
		t.Fatal("FormatFigure1 ordering wrong")
	}
	if s := FormatFigure2(cells); !strings.Contains(s, "inner-AVPR") || !strings.Contains(s, "outer-AVPR") {
		t.Fatalf("FormatFigure2 incomplete:\n%s", s)
	}
	if s := FormatFigure3(cells); !strings.Contains(s, "running time") {
		t.Fatalf("FormatFigure3 incomplete:\n%s", s)
	}
	pts := []ScalePoint{{K: 10, MCPMillis: 5, MCLMillis: 50}}
	if s := FormatFigure4(pts); !strings.Contains(s, "mcp (ms)") {
		t.Fatalf("FormatFigure4 incomplete:\n%s", s)
	}
	rows := []PredictionRow{{Algo: "mcp", Depth: 2, TPR: 0.3, FPR: 0.01}, {Algo: "mcl", TPR: 0.4, FPR: 0.002}}
	s := FormatTable2(rows)
	if !strings.Contains(s, "TPR") || !strings.Contains(s, "mcl") {
		t.Fatalf("FormatTable2 incomplete:\n%s", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MetricSamples <= 0 || c.ScheduleMax <= 0 || c.DBLPAuthors <= 0 || len(c.Graphs) != 4 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}
