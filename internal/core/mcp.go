package core

import (
	"context"
	"errors"
	"fmt"

	"ucgraph/internal/conn"
	"ucgraph/internal/rng"
)

// ErrNoClustering is returned when no full k-clustering with objective above
// the probability floor PL could be found (Section 4: "if the algorithm
// does not find a clustering whose objective function is above the
// threshold, it terminates by reporting that no clustering could be
// found"). This happens when the graph has more than k connected
// components, or when connection probabilities below PL would be required.
var ErrNoClustering = errors.New("core: no full k-clustering above the probability floor")

// Options configures the MCP and ACP drivers.
type Options struct {
	// Gamma is the guess-ratio parameter of Algorithms 2-3 (default 0.1,
	// the value used in Section 5).
	Gamma float64
	// PL is the probability floor below which guesses are not refined
	// (default 1e-4, the value used in Section 5).
	PL float64
	// Alpha is the candidate-set size of min-partial; the paper's
	// experiments use 1 (default). Alpha <= 0 selects "all uncovered".
	Alpha int
	// Eps is the estimation slack of Section 4 (default 0.1).
	Eps float64
	// Depth limits path lengths (d-connection probabilities, Section 3.4);
	// conn.Unlimited (default) disables the limit.
	Depth int
	// TheoreticalDepthSel, when true, uses the selection depth d' of the
	// theory (d for MCP, floor(d/3) for ACP) instead of d' = d.
	TheoreticalDepthSel bool
	// Schedule maps probability guesses to Monte Carlo sample sizes.
	// The zero value is replaced by conn.DefaultSchedule(n).
	Schedule conn.Schedule
	// Geometric, when true, uses the pure Algorithm 2/3 schedule
	// q <- q/(1+Gamma) instead of the accelerated Section 5 schedule
	// q_i = max{1 - Gamma*2^i, PL} with final binary search.
	Geometric bool
	// ScoreChunk bounds how many candidates one batched FromCenters
	// scoring query carries (<= 0 selects the default, 64; see
	// PartialParams.ScoreChunk). Larger chunks suit oracles with
	// per-query overhead — the shard coordinator's network scatter —
	// and never affect results.
	ScoreChunk int
	// Seed drives candidate selection; estimator seeds are independent.
	Seed uint64
	// Adaptive, when non-nil, switches min-partial candidate scoring to
	// confidence-target racing (see AdaptiveScoring): candidates whose
	// score intervals already separate stop consuming worlds. nil keeps
	// the fixed-budget path bit-identical to previous releases.
	Adaptive *AdaptiveScoring
	// Progress, when non-nil, receives one ProgressEvent per selected
	// center across all min-partial invocations of a run — the hook the
	// server streams progressive clustering frames from.
	Progress func(ProgressEvent)
}

// withDefaults fills in the documented defaults.
func (o Options) withDefaults(n int) Options {
	if o.Gamma <= 0 {
		o.Gamma = 0.1
	}
	if o.PL <= 0 {
		o.PL = 1e-4
	}
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.Eps <= 0 {
		o.Eps = 0.1
	}
	if o.Depth == 0 {
		o.Depth = conn.Unlimited
	}
	if o.Schedule == (conn.Schedule{}) {
		o.Schedule = conn.DefaultSchedule(n)
	}
	return o
}

// Stats reports the work done by a driver run.
type Stats struct {
	// Invocations counts min-partial executions.
	Invocations int
	// OracleCalls counts FromCenter invocations across all executions.
	OracleCalls int
	// FinalQ is the probability guess that produced the returned
	// clustering.
	FinalQ float64
	// MaxSamples is the largest per-phase Monte Carlo sample size used.
	MaxSamples int
}

// MCP solves the Minimum Connection Probability problem (Definition 1) with
// Algorithm 2: repeatedly run min-partial with decreasing probability
// guesses until the returned k-clustering covers all nodes. With the
// default options it follows the practical accelerated schedule of
// Section 5; with Options.Geometric it follows Algorithm 2 literally.
//
// The returned clustering C satisfies, w.h.p.,
// min-prob(C) >= (1-eps) * p_opt-min(k)^2 / (1+gamma)  (Theorem 7).
func MCP(o conn.Oracle, k int, opt Options) (*Clustering, Stats, error) {
	return MCPCtx(context.Background(), o, k, opt)
}

// MCPCtx is MCP with cooperative cancellation: min-partial invocations are
// run with ctx (aborting mid-estimation when the oracle implements
// conn.ContextOracle), so a deadline or cancellation surfaces as ctx's
// error together with the Stats of the work done so far. A nil-error run
// is bit-identical to MCP.
func MCPCtx(ctx context.Context, o conn.Oracle, k int, opt Options) (*Clustering, Stats, error) {
	n := o.NumNodes()
	if k < 1 || k >= n {
		return nil, Stats{}, fmt.Errorf("core: k = %d out of range [1, %d)", k, n)
	}
	opt = opt.withDefaults(n)
	rnd := rng.NewXoshiro256(rng.Stream(opt.Seed, 0x4d4350)) // "MCP" stream
	return mcpRun(ctx, o, k, opt, rnd)
}

func mcpRun(ctx context.Context, o conn.Oracle, k int, opt Options, rnd *rng.Xoshiro256) (*Clustering, Stats, error) {
	var st Stats
	depthSel := opt.Depth // practical: d' = d

	try := func(q float64) (*PartialResult, error) {
		r := opt.Schedule.Samples(q)
		if r > st.MaxSamples {
			st.MaxSamples = r
		}
		res, err := MinPartialCtx(ctx, o, rnd, PartialParams{
			K: k, Q: q, QBar: q, Alpha: opt.Alpha,
			Depth: opt.Depth, DepthSel: depthSel,
			R: r, Eps: opt.Eps,
			ScoreChunk: opt.ScoreChunk,
			Adaptive:   opt.Adaptive,
			Progress:   opt.Progress,
		})
		if err != nil {
			return nil, err
		}
		st.Invocations++
		st.OracleCalls += res.OracleCalls
		return res, nil
	}

	if opt.Geometric {
		// Algorithm 2 verbatim: q = 1, divide by (1+gamma).
		q := 1.0
		for {
			res, err := try(q)
			if err != nil {
				return nil, st, err
			}
			if res.Clustering.IsFull() {
				st.FinalQ = q
				return res.Clustering, st, nil
			}
			if q <= opt.PL {
				return nil, st, ErrNoClustering
			}
			q = q / (1 + opt.Gamma)
			if q < opt.PL {
				q = opt.PL
			}
		}
	}

	// Accelerated schedule: q_i = max{1 - gamma*2^i, PL}, then binary
	// search between the last failing guess and the first succeeding one.
	var (
		loQ   float64 // highest guess known to cover all nodes
		loRes *PartialResult
		hiQ   = 1.0 // lowest guess known to fail (exclusive bound)
	)
	for i := 0; ; i++ {
		q := 1 - opt.Gamma*float64(int64(1)<<uint(i))
		if q < opt.PL {
			q = opt.PL
		}
		res, err := try(q)
		if err != nil {
			return nil, st, err
		}
		if res.Clustering.IsFull() {
			loQ, loRes = q, res
			break
		}
		hiQ = q
		if q <= opt.PL {
			return nil, st, ErrNoClustering
		}
	}
	// Binary search in (loQ, hiQ): stop when the ratio between the bounds
	// exceeds 1 - gamma (Section 5).
	for loQ/hiQ < 1-opt.Gamma {
		mid := (loQ + hiQ) / 2
		res, err := try(mid)
		if err != nil {
			return nil, st, err
		}
		if res.Clustering.IsFull() {
			loQ, loRes = mid, res
		} else {
			hiQ = mid
		}
	}
	st.FinalQ = loQ
	return loRes.Clustering, st, nil
}
