package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/worldstore"
)

// verifier bit-compares a seeded sample of the timed answers against the
// library path, and re-estimates answer quality on an independent world
// seed. It runs after the timed phase.
type verifier struct {
	w    *workload
	g    *graph.Uncertain
	seed uint64 // the daemon's world seed
	seq  []prepared
}

// sampleKept returns up to max distinct request indices whose bodies were
// kept, chosen with a seeded shuffle.
func sampleKept(outs []outcome, max int, seed uint64, want func(*outcome) bool) []*outcome {
	seen := map[int]bool{}
	var kept []*outcome
	for i := range outs {
		o := &outs[i]
		if o.err != nil || (o.body == nil && o.final == nil) || seen[o.idx] || !want(o) {
			continue
		}
		seen[o.idx] = true
		kept = append(kept, o)
	}
	x := rng.NewXoshiro256(rng.Stream(seed, 0x76657269))
	x.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
	if len(kept) > max {
		kept = kept[:max]
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].idx < kept[j].idx })
	return kept
}

// compare bit-compares sampled answers and marks mismatches as failures.
// It returns how many answers it compared.
func (v *verifier) compare(outs []outcome, benchSeed uint64) (int, error) {
	if v.seq[0].req.Cluster != nil {
		if v.w.workers > 0 {
			return v.compareSharded(outs, benchSeed)
		}
		return v.compareCluster(outs, benchSeed)
	}
	return v.compareConn(outs, benchSeed)
}

// clusterOptions maps a request onto core.Options the way the daemon's
// handler does.
func clusterOptions(b *clusterBody, sharded bool) core.Options {
	opt := core.Options{Seed: b.Seed, Depth: b.Depth}
	if opt.Depth <= 0 {
		opt.Depth = conn.Unlimited
	}
	if sharded {
		opt.ScoreChunk = shardScoreChunk
	}
	if b.Eps > 0 {
		opt.Adaptive = &core.AdaptiveScoring{Eps: b.Eps, Delta: b.Delta}
	}
	return opt
}

// shardScoreChunk mirrors the daemon's min-partial batch size for sharded
// clustering runs.
const shardScoreChunk = 256

func runClustering(ctx context.Context, o conn.Oracle, b *clusterBody, sharded bool) (*core.Clustering, core.Stats, error) {
	if b.Algo == "acp" {
		return core.ACPCtx(ctx, o, b.K, clusterOptions(b, sharded))
	}
	return core.MCPCtx(ctx, o, b.K, clusterOptions(b, sharded))
}

// compareCluster re-runs sampled clusterings with core.MCP/ACP on a fresh
// conn.NewMonteCarlo and compares centers, assignment and probabilities.
func (v *verifier) compareCluster(outs []outcome, benchSeed uint64) (int, error) {
	sample := sampleKept(outs, 6, benchSeed, func(*outcome) bool { return true })
	for _, o := range sample {
		b := v.seq[o.idx].req.Cluster
		cl, _, err := runClustering(context.Background(), conn.NewMonteCarlo(v.g, v.seed), b, false)
		if err != nil {
			o.err = fmt.Errorf("library path: %w", err)
			continue
		}
		var got clusterAnswer
		if err := json.Unmarshal(o.body, &got); err != nil {
			o.err = err
			continue
		}
		if !reflect.DeepEqual(got.Centers, cl.Centers) || !reflect.DeepEqual(got.Assign, cl.Assign) || !reflect.DeepEqual(got.Prob, cl.Prob) {
			o.err = fmt.Errorf("request %d: clustering differs from the library path", o.idx)
		}
	}
	return len(sample), nil
}

// compareSharded sends sampled requests to an unsharded daemon over the
// same graph and seed and compares the answers, elapsed time aside.
func (v *verifier) compareSharded(outs []outcome, benchSeed uint64) (int, error) {
	sample := sampleKept(outs, 6, benchSeed, func(*outcome) bool { return true })
	d, err := startDaemon(v.g, v.seed, nil, "", false)
	if err != nil {
		return 0, err
	}
	defer d.close()
	client := newClient()
	defer client.CloseIdleConnections()
	for _, o := range sample {
		p := v.seq[o.idx]
		resp, err := client.Post(d.url+p.path, "application/json", bytes.NewReader(p.body))
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			o.err = fmt.Errorf("local daemon: HTTP %d", resp.StatusCode)
			continue
		}
		var a, b map[string]any
		if json.Unmarshal(o.body, &a) != nil || json.Unmarshal(body, &b) != nil {
			o.err = fmt.Errorf("request %d: undecodable answer", o.idx)
			continue
		}
		delete(a, "elapsed_ms")
		delete(b, "elapsed_ms")
		if !reflect.DeepEqual(a, b) {
			o.err = fmt.Errorf("request %d: sharded answer differs from the local daemon", o.idx)
		}
	}
	return len(sample), nil
}

// connAnswer is the part of a /v1/conn answer (or final SSE frame) the
// benchmark reads.
type connAnswer struct {
	Probability *float64    `json:"probability"`
	Estimates   [][]float64 `json:"estimates"`
	Worlds      int         `json:"worlds"`
	Budget      int         `json:"budget"`
}

func decodeConn(o *outcome) (*connAnswer, error) {
	body := o.body
	if o.final != nil {
		body = o.final
	}
	var a connAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// rows returns the answer as one row per center (a pair answer is a
// one-center, one-target row).
func (a *connAnswer) rows() [][]float64 {
	if a.Probability != nil {
		return [][]float64{{*a.Probability}}
	}
	return a.Estimates
}

// compareConn recomputes sampled answers with MonteCarlo.FromCenters and
// Pair on a fresh estimator. Fixed-budget answers must match the budget
// exactly. An adaptive answer is an exact tally over the worlds it reports
// or over more of them, up to the budget — the daemon answers a center
// whose cached tally already covers more worlds with that higher
// precision — so each of its rows must match one of those precisions.
func (v *verifier) compareConn(outs []outcome, benchSeed uint64) (int, error) {
	max := 48
	if v.w.fixture == "dblp" {
		max = 6
	}
	fixed := sampleKept(outs, max, benchSeed, func(o *outcome) bool { return !v.seq[o.idx].req.adaptive() })
	adaptive := sampleKept(outs, max/4, benchSeed+1, func(o *outcome) bool { return v.seq[o.idx].req.adaptive() })
	mc := conn.NewMonteCarlo(v.g, v.seed)
	for _, o := range fixed {
		b := v.seq[o.idx].req.Conn
		a, err := decodeConn(o)
		if err != nil {
			o.err = err
			continue
		}
		want := libraryConn(mc, b, b.Samples)
		if !reflect.DeepEqual(a.rows(), want) {
			o.err = fmt.Errorf("request %d: answer differs from the library path", o.idx)
		}
	}
	for _, o := range adaptive {
		b := v.seq[o.idx].req.Conn
		a, err := decodeConn(o)
		if err != nil {
			o.err = err
			continue
		}
		if a.Worlds < 1 || a.Worlds > b.Samples {
			o.err = fmt.Errorf("request %d: adaptive answer used %d of %d worlds", o.idx, a.Worlds, b.Samples)
			continue
		}
		// A fresh estimator queried at ascending precisions answers each
		// precision exactly.
		fresh := conn.NewMonteCarlo(v.g, v.seed)
		got := a.rows()
		ok := make([]bool, len(got))
		for _, r := range conn.AdaptiveScheduleFor(fresh, b.Samples, 0) {
			if r < a.Worlds {
				continue
			}
			want := libraryConn(fresh, b, r)
			for i := range got {
				ok[i] = ok[i] || reflect.DeepEqual(got[i], want[i])
			}
		}
		for i := range ok {
			if !ok[i] {
				o.err = fmt.Errorf("request %d: adaptive row %d matches no legitimate precision", o.idx, i)
			}
		}
	}
	return len(fixed) + len(adaptive), nil
}

// libraryConn answers a /v1/conn request on the library path at r worlds,
// as rows: one per center, projected onto the targets.
func libraryConn(mc *conn.MonteCarlo, b *connBody, r int) [][]float64 {
	depth := b.Depth
	if depth <= 0 {
		depth = conn.Unlimited
	}
	if b.Source != nil {
		if depth == conn.Unlimited && b.Eps == 0 {
			return [][]float64{{mc.Pair(*b.Source, *b.Target, r)}}
		}
		return [][]float64{{mc.FromCenter(*b.Source, depth, r)[*b.Target]}}
	}
	ests := mc.FromCenters(b.Centers, depth, r)
	if len(b.Targets) == 0 {
		return ests
	}
	out := make([][]float64, len(ests))
	for i, est := range ests {
		for _, t := range b.Targets {
			out[i] = append(out[i], est[t])
		}
	}
	return out
}

// quality re-estimates answer quality on an independent world seed and
// returns pmin and pavg. For a clustering: the minimum and the average
// over nodes of the re-estimated probability that the node connects to
// its center, averaged over the run's clusterings. For a connection query:
// the same over the probe nodes, each assigned to the center the answer
// ranks highest for it.
func (v *verifier) quality(outs []outcome) (pmin, pavg float64, scored int, err error) {
	indep := worldstore.New(v.g, rng.Mix64(v.seed^0x696e646570))
	indep.SetBudget(0)
	rq := v.w.qualityWorlds
	seen := map[int]bool{}
	var sumMin, sumAvg float64
	for i := range outs {
		o := &outs[i]
		if o.err != nil || (o.body == nil && o.final == nil) || seen[o.idx] {
			continue
		}
		seen[o.idx] = true
		req := v.seq[o.idx].req
		var centers []graph.NodeID
		var nodes []graph.NodeID
		var assign []int32
		if req.Cluster != nil {
			var a clusterAnswer
			if err := json.Unmarshal(o.body, &a); err != nil {
				return 0, 0, 0, err
			}
			centers, assign = a.Centers, a.Assign
			for u := range a.Assign {
				nodes = append(nodes, graph.NodeID(u))
			}
		} else {
			a, err := decodeConn(o)
			if err != nil {
				return 0, 0, 0, err
			}
			centers, nodes, assign = bestCenters(req, a)
		}
		r := rq
		if req.depth() >= 0 && req.Cluster != nil {
			// A depth-limited clustering has up to 900 centers, each a BFS
			// per world: fewer worlds keep the re-estimate to seconds.
			r = min(rq, depthQualityWorlds)
		}
		p := reestimate(indep, centers, nodes, assign, req.depth(), r)
		mn, sum := 1.0, 0.0
		for _, x := range p {
			mn = math.Min(mn, x)
			sum += x
		}
		sumMin += mn
		sumAvg += sum / float64(len(p))
		scored++
		if scored == v.w.scored {
			break
		}
	}
	if scored == 0 {
		return 0, 0, 0, fmt.Errorf("no answers to score")
	}
	return sumMin / float64(scored), sumAvg / float64(scored), scored, nil
}

// bestCenters assigns each probe node of a connection answer to the
// center with the highest answered probability for it.
func bestCenters(req *request, a *connAnswer) (centers, nodes []graph.NodeID, assign []int32) {
	b := req.Conn
	if b.Source != nil {
		return []graph.NodeID{*b.Source}, []graph.NodeID{*b.Target}, []int32{0}
	}
	for j, t := range req.Probe {
		col := int(t)
		if len(b.Targets) > 0 {
			col = j
		}
		best := 0
		for i := range a.Estimates {
			if a.Estimates[i][col] > a.Estimates[best][col] {
				best = i
			}
		}
		nodes = append(nodes, t)
		assign = append(assign, int32(best))
	}
	return b.Centers, nodes, assign
}

// depthQualityWorlds caps the independent re-estimate of a depth-limited
// clustering.
const depthQualityWorlds = 256

// reestimate returns, for each node, the fraction of the first r worlds
// of the independent store in which it connects (within depth) to its
// assigned center.
func reestimate(st *worldstore.Store, centers, nodes []graph.NodeID, assign []int32, depth, r int) []float64 {
	counts := make([]int, len(nodes))
	if depth < 0 {
		own := make([]graph.NodeID, len(nodes))
		for i := range nodes {
			own[i] = centers[assign[i]]
		}
		st.Scan(0, r, func(_ int, lab []int32) {
			for i, u := range nodes {
				if lab[u] == lab[own[i]] {
					counts[i]++
				}
			}
		})
	} else {
		tallies := make([][]int32, len(centers))
		for i := range tallies {
			tallies[i] = make([]int32, st.NumNodes())
		}
		st.CountWithinMulti(centers, depth, make([]int, len(centers)), r, tallies)
		for i, u := range nodes {
			counts[i] = int(tallies[assign[i]][u])
		}
	}
	out := make([]float64, len(nodes))
	for i, c := range counts {
		out[i] = float64(c) / float64(r)
	}
	return out
}
