package shard

import (
	"context"
	"fmt"
	"sort"

	"ucgraph/internal/graph"
	"ucgraph/internal/influence"
	"ucgraph/internal/knn"
	"ucgraph/internal/metrics"
	"ucgraph/internal/worldstore"
)

// Tally kinds: the integer-tally shapes workers can compute over a world
// range. Each corresponds to one estimator surface of the library and is
// declared once, in the kinds table below (docs/SHARD_PROTOCOL.md §4).
const (
	// KindConnected tallies, per center and node, the worlds where the
	// node shares a component with the center (unlimited-depth connection
	// counts, from the label blocks' largest-component indexes).
	KindConnected = "connected"
	// KindWithin is the depth-limited form of KindConnected (edge-bitmap
	// BFS within Depth hops).
	KindWithin = "within"
	// KindPair tallies the worlds where nodes U and V share a component.
	KindPair = "pair"
	// KindDistances tallies, per node, the hop-distance histogram from
	// Source (the k-NN distance distribution).
	KindDistances = "distances"
	// KindSpread tallies the (world, node) pairs where the node shares a
	// component with at least one of Seeds (influence spread).
	KindSpread = "spread"
	// KindMarginal tallies, per candidate, the marginal influence spread
	// given the Seeds already picked (the greedy maximization's inner
	// query; empty Seeds gives the initial round). Empty Candidates means
	// "every node, in node order" — the initial round asks about all n
	// nodes, and shipping n IDs per scatter request would dwarf the
	// tallies themselves on large graphs.
	KindMarginal = "marginal"
	// KindReliability tallies the worlds where every node of Seeds lies in
	// one connected component (k-terminal reliability; the set travels in
	// the Seeds field). Empty Seeds means "all nodes" — all-terminal
	// reliability without shipping n IDs.
	KindReliability = "reliability"
	// KindComponents tallies the total number of connected components
	// summed over the requested worlds.
	KindComponents = "components"
	// KindLargest tallies the total size of the largest connected
	// component summed over the requested worlds.
	KindLargest = "largest"
)

// shape is the response payload layout of a tally kind
// (docs/SHARD_PROTOCOL.md §6).
type shape uint8

const (
	countMatrix shape = iota // Counts: per row (center), per node, int32 world counts
	scalar                   // Count: one int64
	totals                   // Totals: one int64 per row
	histograms               // Hist + Unreachable: one distance histogram per node
)

// tallyKind declares one kind of integer tally. The kinds table is the
// only place a kind is spelled out: the wire codec, the worker's request
// validation and tally cache, the range kernel (shared by the worker, the
// audit referee and the coordinator's local path), the merge and the
// coordinator's response check all read it.
type tallyKind struct {
	name  string
	code  byte // one-byte wire code; append-only, never renumbered
	shape shape
	// check validates the kind-specific request fields against g.
	check func(g *graph.Uncertain, req *TallyRequest) error
	// rows is the row count of a countMatrix or totals payload for req on
	// an n-node graph.
	rows func(n int, req *TallyRequest) int
	// tally computes the payload over one world range of store.
	tally func(ctx context.Context, store *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error)
}

// kinds is the tally-kind table. Adding a kind is one entry here (plus a
// wire code in docs/SHARD_PROTOCOL.md §4 and the coordinator method that
// turns its tally into an estimate).
var kinds = [...]tallyKind{
	{name: KindConnected, code: 1, shape: countMatrix, check: checkCenters, rows: centerRows,
		tally: func(ctx context.Context, ws *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
			return countTally(ctx, ws, req, rg, ws.CountConnectedFromMulti)
		}},
	{name: KindWithin, code: 2, shape: countMatrix, rows: centerRows,
		check: func(g *graph.Uncertain, req *TallyRequest) error {
			if req.Depth < 0 {
				return badReq("kind %q needs a non-negative \"depth\"", req.Kind)
			}
			return checkCenters(g, req)
		},
		tally: func(ctx context.Context, ws *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
			return countTally(ctx, ws, req, rg, func(cs []graph.NodeID, lo []int, hi int, counts [][]int32) {
				ws.CountWithinMulti(cs, req.Depth, lo, hi, counts)
			})
		}},
	{name: KindPair, code: 3, shape: scalar,
		check: func(g *graph.Uncertain, req *TallyRequest) error {
			return validNodes(g, "u/v", []int32{req.U, req.V})
		},
		tally: func(ctx context.Context, ws *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
			cnt, err := ws.CountPairCtx(ctx, req.U, req.V, rg.Lo, rg.Hi)
			return &TallyResponse{Count: cnt}, err
		}},
	{name: KindDistances, code: 4, shape: histograms,
		check: func(g *graph.Uncertain, req *TallyRequest) error {
			return validNodes(g, "source", []int32{req.Source})
		},
		tally: distancesTally},
	{name: KindSpread, code: 5, shape: totals, rows: oneRow,
		check: func(g *graph.Uncertain, req *TallyRequest) error {
			if len(req.Seeds) == 0 {
				return badReq("kind %q needs \"seeds\"", req.Kind)
			}
			return checkSeedsCandidates(g, req)
		},
		tally: func(ctx context.Context, ws *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
			return total(influence.SpreadTallyCtx(ctx, ws, req.Seeds, rg.Lo, rg.Hi))
		}},
	{name: KindMarginal, code: 6, shape: totals, check: checkSeedsCandidates,
		rows: func(n int, req *TallyRequest) int {
			if len(req.Candidates) == 0 {
				return n // empty candidates = all nodes
			}
			return len(req.Candidates)
		},
		tally: func(ctx context.Context, ws *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
			candidates := req.Candidates
			if len(candidates) == 0 {
				candidates = make([]graph.NodeID, ws.NumNodes())
				for v := range candidates {
					candidates[v] = graph.NodeID(v)
				}
			}
			t, err := influence.MarginalTallyCtx(ctx, ws, req.Seeds, candidates, rg.Lo, rg.Hi)
			return &TallyResponse{Totals: t}, err
		}},
	{name: KindReliability, code: 7, shape: totals, rows: oneRow,
		check: func(g *graph.Uncertain, req *TallyRequest) error {
			return validNodes(g, "seeds", req.Seeds) // empty seeds = all-terminal
		},
		tally: func(ctx context.Context, ws *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
			if len(req.Seeds) == 0 {
				return total(metrics.AllTerminalReliabilityTallyCtx(ctx, ws, rg.Lo, rg.Hi))
			}
			return total(metrics.SetReliabilityTallyCtx(ctx, ws, req.Seeds, rg.Lo, rg.Hi))
		}},
	{name: KindComponents, code: 8, shape: totals, rows: oneRow, check: checkNothing,
		tally: func(ctx context.Context, ws *worldstore.Store, _ *TallyRequest, rg Range) (*TallyResponse, error) {
			return total(metrics.ComponentsTallyCtx(ctx, ws, rg.Lo, rg.Hi))
		}},
	{name: KindLargest, code: 9, shape: totals, rows: oneRow, check: checkNothing,
		tally: func(ctx context.Context, ws *worldstore.Store, _ *TallyRequest, rg Range) (*TallyResponse, error) {
			return total(metrics.LargestComponentTallyCtx(ctx, ws, rg.Lo, rg.Hi))
		}},
}

// kindNamed returns the table entry of a kind name, or nil.
func kindNamed(name string) *tallyKind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// kindCoded returns the table entry of a wire code, or nil.
func kindCoded(code byte) *tallyKind {
	for i := range kinds {
		if kinds[i].code == code {
			return &kinds[i]
		}
	}
	return nil
}

func oneRow(int, *TallyRequest) int                      { return 1 }
func centerRows(_ int, req *TallyRequest) int            { return len(req.Centers) }
func checkNothing(*graph.Uncertain, *TallyRequest) error { return nil }

func checkCenters(g *graph.Uncertain, req *TallyRequest) error {
	if len(req.Centers) == 0 {
		return badReq("kind %q needs \"centers\"", req.Kind)
	}
	return validNodes(g, "centers", req.Centers)
}

func checkSeedsCandidates(g *graph.Uncertain, req *TallyRequest) error {
	if err := validNodes(g, "seeds", req.Seeds); err != nil {
		return err
	}
	return validNodes(g, "candidates", req.Candidates)
}

func validNodes(g *graph.Uncertain, field string, nodes []int32) error {
	n := int32(g.NumNodes())
	for _, v := range nodes {
		if v < 0 || v >= n {
			return badReq("%q node %d out of range [0, %d)", field, v, n)
		}
	}
	return nil
}

// total wraps a scalar kernel result as a one-row totals payload.
func total(t int64, err error) (*TallyResponse, error) {
	return &TallyResponse{Totals: []int64{t}}, err
}

// countTally runs a multi-center count kernel over one range: every
// center starts at rg.Lo.
func countTally(ctx context.Context, ws *worldstore.Store, req *TallyRequest, rg Range,
	count func(cs []graph.NodeID, lo []int, hi int, counts [][]int32)) (*TallyResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	counts := newMatrix(len(req.Centers), ws.NumNodes())
	lo := make([]int, len(req.Centers))
	for j := range lo {
		lo[j] = rg.Lo
	}
	count(req.Centers, lo, rg.Hi, counts)
	return &TallyResponse{Counts: counts}, nil
}

// distancesTally converts knn's per-node distance maps into histograms
// sorted by distance.
func distancesTally(ctx context.Context, ws *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
	dd, err := knn.SampleRangeCtx(ctx, ws, req.Source, rg.Lo, rg.Hi)
	if err != nil {
		return nil, err
	}
	n := ws.NumNodes()
	resp := &TallyResponse{Hist: make([][]DistCount, n), Unreachable: make([]int64, n)}
	for v := 0; v < n; v++ {
		buckets := make([]DistCount, 0, len(dd.Hist[v]))
		for d, c := range dd.Hist[v] {
			buckets = append(buckets, DistCount{D: d, N: int64(c)})
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].D < buckets[j].D })
		resp.Hist[v] = buckets
		resp.Unreachable[v] = int64(dd.Unreachable[v])
	}
	return resp, nil
}

// newMatrix allocates a rows x cols int32 matrix over one backing array.
func newMatrix(rows, cols int) [][]int32 {
	buf := make([]int32, rows*cols)
	m := make([][]int32, rows)
	for j := range m {
		m[j] = buf[j*cols : (j+1)*cols : (j+1)*cols]
	}
	return m
}

// validTally checks a request's kind and kind-specific fields.
func validTally(g *graph.Uncertain, req *TallyRequest) error {
	k := kindNamed(req.Kind)
	if k == nil {
		return badReq("unknown tally kind %q", req.Kind)
	}
	return k.check(g, req)
}

// rangeTally is the transport-free tally kernel: one kind over one world
// range of the (graph, seed) stream behind store, for a request validTally
// accepted. It is shared by the worker, by the coordinator's audit referee
// (which recomputes a divergent group locally over the same stream — the
// two sides agreeing byte-for-byte is the audit's ground truth) and by the
// coordinator's local path. The result is immutable once returned (it may
// be shared by the worker cache), and merging per-range results is plain
// integer addition — the whole bit-identity argument: integer sums are
// order-free, so any partitioning of [lo, hi) into ranges, workers,
// retries and hedges folds to the same totals.
func rangeTally(ctx context.Context, store *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
	resp, err := kindNamed(req.Kind).tally(ctx, store, req, rg)
	if err != nil {
		return nil, err
	}
	resp.Worlds = rg.Worlds()
	return resp, nil
}

// mergeTally folds one per-range result into the accumulator. dst starts
// zero-valued; src is never mutated (it may live in the cache).
func mergeTally(dst, src *TallyResponse, kind string) {
	dst.Worlds += src.Worlds
	switch kindNamed(kind).shape {
	case countMatrix:
		if dst.Counts == nil {
			cols := 0
			if len(src.Counts) > 0 {
				cols = len(src.Counts[0])
			}
			dst.Counts = newMatrix(len(src.Counts), cols)
		}
		for j, row := range src.Counts {
			out := dst.Counts[j]
			for i, c := range row {
				out[i] += c
			}
		}
	case scalar:
		dst.Count += src.Count
	case totals:
		if dst.Totals == nil {
			dst.Totals = make([]int64, len(src.Totals))
		}
		for i, t := range src.Totals {
			dst.Totals[i] += t
		}
	case histograms:
		if dst.Hist == nil {
			dst.Hist = make([][]DistCount, len(src.Hist))
			dst.Unreachable = make([]int64, len(src.Unreachable))
		}
		for v, buckets := range src.Hist {
			dst.Hist[v] = mergeBuckets(dst.Hist[v], buckets)
		}
		for v, u := range src.Unreachable {
			dst.Unreachable[v] += u
		}
	}
}

// mergeBuckets merges two distance histograms sorted ascending by D.
func mergeBuckets(a, b []DistCount) []DistCount {
	if len(a) == 0 {
		return append([]DistCount(nil), b...)
	}
	out := make([]DistCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].D < b[j].D:
			out = append(out, a[i])
			i++
		case a[i].D > b[j].D:
			out = append(out, b[j])
			j++
		default:
			out = append(out, DistCount{D: a[i].D, N: a[i].N + b[j].N})
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// checkTally validates the shape of a worker's payload against the
// request on an n-node graph, so a version-skewed worker — or one
// restarted with a different graph under the same name — surfaces as a
// retriable worker failure instead of an index panic inside the merge.
func checkTally(n int, req *TallyRequest, resp *TallyResponse) error {
	k := kindNamed(req.Kind)
	switch k.shape {
	case countMatrix:
		if rows := k.rows(n, req); len(resp.Counts) != rows {
			return fmt.Errorf("got %d count rows, want %d", len(resp.Counts), rows)
		}
		for j, row := range resp.Counts {
			if len(row) != n {
				return fmt.Errorf("count row %d has %d nodes, want %d", j, len(row), n)
			}
		}
	case totals:
		if rows := k.rows(n, req); len(resp.Totals) != rows {
			return fmt.Errorf("got %d totals, want %d", len(resp.Totals), rows)
		}
	case histograms:
		if len(resp.Hist) != n || len(resp.Unreachable) != n {
			return fmt.Errorf("got %d histograms / %d unreachable rows, want %d", len(resp.Hist), len(resp.Unreachable), n)
		}
	}
	return nil
}

// appendPayload appends the payload of resp in the layout of shape s.
func (s shape) appendPayload(buf []byte, resp *TallyResponse) []byte {
	switch s {
	case countMatrix:
		cols := 0
		if len(resp.Counts) > 0 {
			cols = len(resp.Counts[0])
		}
		buf = appendU32(buf, uint32(len(resp.Counts)))
		buf = appendU32(buf, uint32(cols))
		for _, row := range resp.Counts {
			for _, v := range row {
				buf = appendI32(buf, v)
			}
		}
	case scalar:
		buf = appendI64(buf, resp.Count)
	case totals:
		buf = appendU32(buf, uint32(len(resp.Totals)))
		for _, v := range resp.Totals {
			buf = appendI64(buf, v)
		}
	case histograms:
		buf = appendU32(buf, uint32(len(resp.Hist)))
		for _, buckets := range resp.Hist {
			buf = appendU32(buf, uint32(len(buckets)))
			for _, b := range buckets {
				buf = appendI32(buf, b.D)
				buf = appendI64(buf, b.N)
			}
		}
		for _, u := range resp.Unreachable {
			buf = appendI64(buf, u)
		}
	}
	return buf
}

// readPayload decodes a payload of shape s into resp, bounds-checking
// every count before allocating.
func (s shape) readPayload(r *wireReader, resp *TallyResponse) {
	switch s {
	case countMatrix:
		rows := r.count(maxWireItems, 4)
		cols := r.count(maxWireItems, 0)
		if r.err == nil && rows*cols*4 > len(r.buf)-r.off {
			r.fail("shard: count matrix %dx%d exceeds frame body", rows, cols)
		}
		if r.err == nil && rows > 0 {
			resp.Counts = newMatrix(rows, cols)
			for _, row := range resp.Counts {
				for i := range row {
					row[i] = r.i32()
				}
			}
		}
	case scalar:
		resp.Count = r.i64()
	case totals:
		n := r.count(maxWireItems, 8)
		if r.err == nil && n > 0 {
			resp.Totals = make([]int64, n)
			for i := range resp.Totals {
				resp.Totals[i] = r.i64()
			}
		}
	case histograms:
		n := r.count(maxWireItems, 4)
		if r.err != nil || n == 0 {
			return
		}
		resp.Hist = make([][]DistCount, n)
		for v := range resp.Hist {
			nb := r.count(maxWireItems, 12)
			if r.err != nil {
				return
			}
			if nb > 0 {
				buckets := make([]DistCount, nb)
				for i := range buckets {
					buckets[i] = DistCount{D: r.i32(), N: r.i64()}
				}
				resp.Hist[v] = buckets
			}
		}
		resp.Unreachable = make([]int64, n)
		for v := range resp.Unreachable {
			resp.Unreachable[v] = r.i64()
		}
	}
}
