package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/datasets"
	"ucgraph/internal/gio"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// graphName is the name every fixture is served under.
const graphName = "g"

// workload is one traffic mix over one fixture. Why each exists, and the
// input properties measured on it, are recorded in WORKLOADS.md.
type workload struct {
	name    string
	fixture string // "krogan" or "dblp"
	clients int    // closed-loop clients in the timed phase
	workers int    // loopback shard workers behind the daemon; 0 = local
	// samples is the world budget of every /v1/conn request (fixed and
	// adaptive alike), so a cached tally never covers more worlds than a
	// fixed request asks for and every fixed answer is reproducible.
	samples int
	// warmWorlds is how far warm-up materializes the world stream; bits
	// additionally materializes the edge bitmaps of depth-limited requests.
	warmWorlds int
	bits       bool
	// budgetFrac, when positive, bounds the daemon's world store to this
	// share of the timed phase's working set and attaches a disk tier.
	budgetFrac float64
	// maxTail caps the tail percentile so it does not flip between runs
	// whose request counts straddle a rung of the ladder.
	maxTail float64
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// state is the cache state the workload's requests meet: warm-store,
	// tally-hit or disk.
	state string
	// ramp is how many leading requests are sent, untimed, before the
	// timed phase, so it measures the steady state of caches that fill
	// with traffic rather than their warming.
	ramp int
	// keep is how many leading requests keep their response bodies for
	// verification and the quality re-estimate.
	keep int
	// replayWarm and replayLen size the traced replay: each rung instance
	// is warmed with the first replayWarm requests, then the next replayLen
	// are replayed and measured.
	replayWarm, replayLen int
	// qualityWorlds is the world count of the independent re-estimate
	// behind pmin/pavg, and scored how many distinct answers it scores.
	qualityWorlds, scored int
	gen                   func(g *graph.Uncertain, seed, worldSeed uint64) ([]request, error)
}

var workloads = []*workload{
	{
		name: "krogan-cluster", fixture: "krogan", clients: 1, setups: 5, state: "warm-store",
		warmWorlds: conn.DefaultSchedule(0).Max, bits: true, maxTail: 90,
		keep: 1 << 30, replayLen: 18, qualityWorlds: 4096, scored: 128,
		gen: func(g *graph.Uncertain, seed, ws uint64) ([]request, error) {
			return clusterRequests(g, seed, ws, clusterSlots, 6)
		},
	},
	{
		name: "krogan-conn", fixture: "krogan", clients: 2, setups: 5, state: "tally-hit", samples: 1024,
		warmWorlds: 1024, bits: true, maxTail: 99, ramp: 1500,
		keep: 800, replayWarm: 1500, replayLen: 400, qualityWorlds: 1024, scored: 256,
		gen: func(g *graph.Uncertain, seed, ws uint64) ([]request, error) {
			return connRequests(g, seed, 1024, kroganConnSlots, 200000, true)
		},
	},
	{
		name: "dblp-tiered", fixture: "dblp", clients: 1, setups: 3, state: "disk", samples: 64,
		warmWorlds: 64, bits: true, budgetFrac: 0.35, maxTail: 90,
		keep: 64, replayWarm: 8, replayLen: 24, qualityWorlds: 32, scored: 64,
		gen: func(g *graph.Uncertain, seed, ws uint64) ([]request, error) {
			return connRequests(g, seed, 64, dblpSlots, 4000, false)
		},
	},
	{
		name: "krogan-sharded", fixture: "krogan", clients: 1, setups: 5, state: "warm-store", workers: 2,
		warmWorlds: conn.DefaultSchedule(0).Max, maxTail: 90, ramp: 64,
		keep: 1 << 30, replayWarm: 64, replayLen: 8, qualityWorlds: 4096, scored: 128,
		gen: func(g *graph.Uncertain, seed, ws uint64) ([]request, error) {
			var slots []clusterSlot
			for _, s := range clusterSlots {
				if s.depth == 0 {
					slots = append(slots, s)
				}
			}
			// Long enough that the timed phase never wraps: a repeated
			// request would be a worker tally-cache hit.
			return clusterRequests(g, seed, ws, slots, 40)
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// dblpAuthors is half the paper's DBLP instance (636,751 authors): at full
// scale the run-to-run spread of dblp-tiered came too close to its bounds
// on a 2-vCPU host (WORKLOADS.md). Brief runs (the self-test) use a small
// one.
const (
	dblpAuthors      = 320000
	dblpAuthorsBrief = 40000
)

// kroganFixtureSeed fixes the Krogan fixture: every workload seed serves
// the same generated instance (2,610 nodes, 7,100 edges), as the paper
// clusters one Krogan network, and the workload seed drives the world
// stream and the request sequence. Across generated instances the
// clustering quality itself moves: pmin's standard deviation over seeds
// was 6% of its mean, 5 points of it from the instance (WORKLOADS.md).
const kroganFixtureSeed = 1

// buildFixture generates the workload's graph: the fixed Krogan instance,
// or a DBLP instance from the seed.
func buildFixture(w *workload, seed uint64, brief bool) (*graph.Uncertain, error) {
	if w.fixture == "krogan" {
		ds, err := datasets.Krogan(kroganFixtureSeed)
		if err != nil {
			return nil, err
		}
		return ds.Graph, nil
	}
	cfg := datasets.DefaultDBLPConfig()
	cfg.Authors = dblpAuthors
	if brief {
		cfg.Authors = dblpAuthorsBrief
	}
	ds, err := datasets.DBLP(cfg, seed)
	if err != nil {
		return nil, err
	}
	return ds.Graph, nil
}

// worldSeed derives the daemon's world-stream seed from the workload seed.
func worldSeed(seed uint64) uint64 { return rng.Stream(seed, 0x776f726c64) }

// request is one generated request: exactly one of Cluster or Conn is set.
// Probe lists the nodes a /v1/conn answer is scored on for pmin/pavg (the
// targets when the request names them).
type request struct {
	Cluster *clusterBody `json:"cluster,omitempty"`
	Conn    *connBody    `json:"conn,omitempty"`
	Probe   []int32      `json:"probe,omitempty"`
}

type clusterBody struct {
	Graph   string  `json:"graph"`
	Algo    string  `json:"algo"`
	K       int     `json:"k"`
	Depth   int     `json:"depth,omitempty"`
	Seed    uint64  `json:"seed"`
	Eps     float64 `json:"eps,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	Explain bool    `json:"explain,omitempty"`
}

type connBody struct {
	Graph   string  `json:"graph"`
	Source  *int32  `json:"source,omitempty"`
	Target  *int32  `json:"target,omitempty"`
	Centers []int32 `json:"centers,omitempty"`
	Targets []int32 `json:"targets,omitempty"`
	Depth   int     `json:"depth,omitempty"`
	Samples int     `json:"samples"`
	Eps     float64 `json:"eps,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	Stream  bool    `json:"stream,omitempty"`
}

func (r *request) path() string {
	if r.Cluster != nil {
		return "/v1/cluster"
	}
	return "/v1/conn"
}

func (r *request) adaptive() bool {
	if r.Cluster != nil {
		return r.Cluster.Eps > 0
	}
	return r.Conn.Eps > 0
}

// depth returns the request's depth with 0 mapped to conn.Unlimited.
func (r *request) depth() int {
	d := 0
	if r.Cluster != nil {
		d = r.Cluster.Depth
	} else {
		d = r.Conn.Depth
	}
	if d <= 0 {
		return conn.Unlimited
	}
	return d
}

// class names the request's latency class for the share table.
func (r *request) class() string {
	c := ""
	switch {
	case r.Cluster != nil:
		c = r.Cluster.Algo
	case r.Conn.Source != nil:
		c = "pair"
	default:
		c = "multi"
	}
	if r.depth() >= 0 {
		c += "-d"
	}
	if r.adaptive() {
		c += "-adaptive"
	}
	if r.Conn != nil && r.Conn.Stream {
		c += "-sse"
	}
	return c
}

// clusterSlot is one entry of the cyclic cluster request template. The
// template fixes the class shares exactly, so the latency median and tail
// sit at the same place in the class mix on every seed.
type clusterSlot struct {
	algo     string
	k, depth int
	adaptive bool
}

// clusterSlots: 9 fixed unlimited-depth, 3 adaptive (eps/delta racing)
// and 6 depth-limited (d = 2, 3, as in Table 2) requests over a spread of
// k. Two thirds are ACP, in the whole template and in its unlimited-depth
// part alike: MCP runs take about three times as long, and an even split
// would put the median in the gap between the two modes. Depth-limited
// MCP needs a large k to be feasible on Krogan; see clusterRequests.
var clusterSlots = []clusterSlot{
	{"acp", 100, 0, false}, {"mcp", 150, 0, false}, {"acp", 300, 2, false},
	{"acp", 200, 0, false}, {"acp", 100, 0, true}, {"acp", 100, 3, false},
	{"mcp", 200, 0, false}, {"acp", 50, 0, false}, {"mcp", 900, 2, false},
	{"acp", 400, 0, false}, {"mcp", 200, 0, true}, {"acp", 100, 2, false},
	{"acp", 300, 0, false}, {"mcp", 400, 0, false}, {"mcp", 600, 3, false},
	{"acp", 150, 0, false}, {"acp", 200, 0, true}, {"acp", 300, 3, false},
}

// floorWorlds is the schedule's world cap: an MCP run whose guesses fall
// through to the probability floor scores every candidate on this many
// worlds and takes some 30 times longer than the rest of its class.
var floorWorlds = conn.DefaultSchedule(0).Max

// clusterRequests cycles the template `cycles` times with a fresh driver
// seed per request. Every depth-limited MCP request is run once on the
// library path first: a k that admits no full clustering on this seed's
// fixture would answer 500, and a run that falls through to the
// probability floor would put the tail on one request, so either is turned
// into ACP (which always answers) with the same k and depth. Unlimited-
// depth MCP uses k >= 150, where no floor run showed up in 60 driver
// seeds (at k = 100, 3 of 60 did).
func clusterRequests(g *graph.Uncertain, seed, ws uint64, slots []clusterSlot, cycles int) ([]request, error) {
	x := rng.NewXoshiro256(rng.Stream(seed, 0x636c7573))
	mc := conn.NewMonteCarlo(g, ws)
	var out []request
	for c := 0; c < cycles; c++ {
		for _, s := range slots {
			b := &clusterBody{Graph: graphName, Algo: s.algo, K: s.k, Depth: s.depth, Seed: x.Uint64() >> 1}
			if s.adaptive {
				b.Eps, b.Delta = 0.1, 0.1
			}
			if b.Algo == "mcp" && b.Depth > 0 {
				_, st, err := core.MCP(mc, b.K, core.Options{Seed: b.Seed, Depth: b.Depth})
				if errors.Is(err, core.ErrNoClustering) || st.MaxSamples >= floorWorlds {
					b.Algo = "acp"
				} else if err != nil {
					return nil, err
				}
			}
			out = append(out, request{Cluster: b})
		}
	}
	return out, nil
}

// connSlot is one entry of a cyclic /v1/conn request template.
type connSlot struct {
	multi            bool
	depth            int
	adaptive, stream bool
}

// kroganConnSlots: 15 pair and 5 multi-center requests per cycle, so the
// median falls inside the pair latency mode and the tail inside the
// full-vector multi mode, never in the gap between them. 5 of 20 are
// adaptive; 2 of those stream.
var kroganConnSlots = []connSlot{
	{false, 0, false, false}, {true, 0, false, false}, {false, 2, false, false},
	{false, 0, false, false}, {false, 0, true, false}, {false, 2, false, false},
	{false, 0, false, false}, {true, 2, false, false}, {false, 0, true, true},
	{false, 0, false, false}, {false, 2, false, false}, {true, 0, true, false},
	{false, 0, false, false}, {true, 0, false, false}, {false, 0, true, false},
	{false, 2, false, false}, {false, 0, false, false}, {true, 2, false, false},
	{false, 0, true, true}, {false, 0, false, false},
}

// dblpSlots: 12 depth-2 and 8 unlimited-depth requests per cycle, pairs
// and small multi-center batches, all with explicit targets.
var dblpSlots = []connSlot{
	{false, 2, false, false}, {true, 2, false, false}, {false, 0, false, false},
	{false, 2, false, false}, {true, 0, false, false}, {true, 2, false, false},
	{false, 0, false, false}, {false, 2, false, false}, {true, 2, false, false},
	{false, 0, false, false}, {true, 2, false, false}, {false, 2, false, false},
	{true, 0, false, false}, {false, 0, false, false}, {false, 2, false, false},
	{true, 2, false, false}, {false, 0, false, false}, {true, 0, false, false},
	{true, 2, false, false}, {false, 2, false, false},
}

// kroganMultiSizes cycles the multi-center batch sizes (1-64, skewed
// small) of krogan-conn.
var kroganMultiSizes = []int{2, 4, 1, 8, 2, 16, 4, 1, 32, 2, 8, 4, 64, 1, 2, 8}

// connRequests builds count requests from the template. On krogan-conn
// (skewed) centers follow a Zipf-like popularity, so popular centers
// repeat and answer from the daemon's tally cache; on dblp-tiered centers
// are uniform, hence mostly distinct, and every request names its targets.
// Targets and probe nodes lie within two hops of a center, so the scored
// probabilities are the ones a user asks about, and depth-2 answers are
// not trivially zero.
func connRequests(g *graph.Uncertain, seed uint64, samples int, slots []connSlot, count int, skewed bool) ([]request, error) {
	n := g.NumNodes()
	x := rng.NewXoshiro256(rng.Stream(seed, 0x636f6e6e))
	perm := x.Perm(n)
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	pickCenter := func() int32 {
		if !skewed {
			return int32(x.Intn(n))
		}
		r := x.Float64() * total
		return int32(perm[sort.SearchFloat64s(cum, r)])
	}
	hood := newNeighborhood(n)
	out := make([]request, 0, count)
	multi := 0
	for i := 0; len(out) < count; i++ {
		s := slots[i%len(slots)]
		b := &connBody{Graph: graphName, Depth: s.depth, Samples: samples, Stream: s.stream}
		if s.adaptive {
			b.Eps, b.Delta = 0.05, 0.05
		}
		req := request{Conn: b}
		if !s.multi {
			src := pickCenter()
			near := hood.near(g, []int32{src}, 2, 1, x)
			if len(near) == 0 {
				continue
			}
			b.Source, b.Target = &src, &near[0]
			req.Probe = near
		} else {
			size := 2
			if skewed {
				size = kroganMultiSizes[multi%len(kroganMultiSizes)]
			} else if s.depth > 0 {
				size = 8
			}
			multi++
			seen := make(map[int32]bool, size)
			for len(b.Centers) < size {
				c := pickCenter()
				if !seen[c] {
					seen[c] = true
					b.Centers = append(b.Centers, c)
				}
			}
			req.Probe = hood.near(g, b.Centers, 2, 4, x)
			if len(req.Probe) == 0 {
				continue
			}
			if !skewed {
				b.Targets = req.Probe
			}
		}
		out = append(out, req)
	}
	return out, nil
}

// neighborhood draws nodes within a few hops of a center set by BFS over
// the full graph (every edge present).
type neighborhood struct {
	seen  []uint32
	epoch uint32
	queue []int32
}

func newNeighborhood(n int) *neighborhood {
	return &neighborhood{seen: make([]uint32, n)}
}

// near returns up to count distinct nodes, chosen at random, that lie
// within hops of some center and are not centers themselves.
func (h *neighborhood) near(g *graph.Uncertain, centers []int32, hops, count int, x *rng.Xoshiro256) []int32 {
	h.epoch++
	h.queue = h.queue[:0]
	for _, c := range centers {
		if h.seen[c] != h.epoch {
			h.seen[c] = h.epoch
			h.queue = append(h.queue, c)
		}
	}
	seeds := len(h.queue)
	start, end := 0, seeds
	for d := 0; d < hops; d++ {
		for ; start < end; start++ {
			nodes, _, _ := g.NeighborSlices(h.queue[start])
			for _, v := range nodes {
				if h.seen[v] != h.epoch {
					h.seen[v] = h.epoch
					h.queue = append(h.queue, v)
				}
			}
		}
		end = len(h.queue)
	}
	cand := h.queue[seeds:]
	if len(cand) == 0 {
		return nil
	}
	var out []int32
	for len(out) < count && len(out) < len(cand) {
		j := len(out) + x.Intn(len(cand)-len(out))
		cand[len(out)], cand[j] = cand[j], cand[len(out)]
		out = append(out, cand[len(out)])
	}
	return out
}

// generate is the child-process half of a run: it builds the fixture,
// writes it with gio.SaveGraph, generates the request sequence and writes
// it, so the measured process starts from the generated files alone.
func generate(w *workload, seed uint64, dir string, brief bool) error {
	g, err := buildFixture(w, seed, brief)
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	if err := gio.SaveGraph(filepath.Join(dir, "graph.txt"), g); err != nil {
		return err
	}
	reqs, err := w.gen(g, seed, worldSeed(seed))
	if err != nil {
		return fmt.Errorf("requests: %w", err)
	}
	data, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "requests.json"), data, 0o644)
}

func readRequests(dir string) ([]request, error) {
	data, err := os.ReadFile(filepath.Join(dir, "requests.json"))
	if err != nil {
		return nil, err
	}
	var reqs []request
	if err := json.Unmarshal(data, &reqs); err != nil {
		return nil, fmt.Errorf("requests.json: %w", err)
	}
	if len(reqs) == 0 {
		return nil, errors.New("requests.json: empty sequence")
	}
	return reqs, nil
}
