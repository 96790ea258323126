package conn

import (
	"math"

	"ucgraph/internal/graph"
)

// This file implements the progressive sampling variant sketched at the end
// of Section 4.2 of the paper: estimating connection probabilities with
// relative-error guarantees *without* a prior lower bound pL. It follows
// the optimal stopping-rule approach of Dagum, Karp, Luby and Ross ("An
// optimal algorithm for Monte Carlo estimation"), which the progressive
// schedule of Pietracaprina et al. [28] generalizes: keep sampling until
// the number of successes reaches a threshold that depends only on
// (eps, delta), at which point successes/samples is an (eps, delta)
// relative approximation of the true probability. The expected sample
// count is O(ln(1/delta) / (eps^2 p)) — within a constant factor of the
// best possible — and no knowledge of p is needed in advance.

// StoppingRuleThreshold returns the success-count threshold Upsilon of the
// Dagum-Karp-Luby-Ross stopping rule for an (eps, delta) relative-error
// guarantee:
//
//	Upsilon = 1 + 4(e-2)(1+eps) ln(2/delta) / eps^2
//
// The constant 4(e-2) ~ 2.873 comes from the generalized Bernstein
// inequality the DKLR analysis rests on: for zero-mean increments bounded
// by 1, the moment generating function is controlled via
// e^x <= 1 + x + (e-2) x^2 on x <= 1, and the resulting tail bound
// 2 exp(-t^2 eps^2 / (2 (e-2) (1+eps) rho)) needs the leading factor 4 so
// that both the early-stop and late-stop failure modes stay under delta/2
// each. Shrinking the constant invalidates the proof; growing it only
// wastes samples.
//
// eps and delta must both lie strictly inside (0, 1); anything else —
// including NaN, which a plain range comparison would let through since
// NaN fails every ordered comparison — panics, because a silent garbage
// threshold would void the guarantee of every caller above.
func StoppingRuleThreshold(eps, delta float64) int {
	if !validEpsDelta(eps, delta) {
		panic("conn: StoppingRuleThreshold needs eps, delta in (0,1)")
	}
	const e2 = math.E - 2
	return int(math.Ceil(1 + 4*e2*(1+eps)*math.Log(2/delta)/(eps*eps)))
}

// AdaptiveResult reports an adaptive estimation outcome.
type AdaptiveResult struct {
	// P is the estimated probability.
	P float64
	// Samples is the number of worlds consumed.
	Samples int
	// Successes is the number of worlds where the event held.
	Successes int
	// Converged is false only if MaxSamples was hit before the stopping
	// rule fired; P is then the plain frequency estimate (an upper
	// confidence argument still bounds the true probability by roughly
	// Upsilon/MaxSamples).
	Converged bool
}

// AdaptivePair estimates Pr(u ~ v) to relative error eps with confidence
// 1-delta using the stopping rule, consuming worlds from the estimator's
// stream until the success threshold is reached or maxSamples worlds have
// been inspected (maxSamples <= 0 selects 2^22). Unlike Pair, it needs no
// lower bound on the probability: cheap for well-connected pairs,
// gracefully capped for nearly-disconnected ones.
func (mc *MonteCarlo) AdaptivePair(u, v graph.NodeID, eps, delta float64, maxSamples int) AdaptiveResult {
	if maxSamples <= 0 {
		maxSamples = 1 << 22
	}
	upsilon := StoppingRuleThreshold(eps, delta)
	successes, samples := 0, 0
	stopAt := -1 // world index where the success threshold fired
	const chunk = 64
	for samples < maxSamples && stopAt < 0 {
		batch := chunk
		if samples+batch > maxSamples {
			batch = maxSamples - samples
		}
		mc.store.Scan(samples, samples+batch, func(w int, lab []int32) {
			if stopAt >= 0 {
				return
			}
			if lab[u] == lab[v] {
				successes++
				if successes >= upsilon {
					stopAt = w
				}
			}
		})
		samples += batch
	}
	if stopAt >= 0 {
		n := stopAt + 1
		return AdaptiveResult{
			P:         float64(upsilon) / float64(n),
			Samples:   n,
			Successes: successes,
			Converged: true,
		}
	}
	p := 0.0
	if samples > 0 {
		p = float64(successes) / float64(samples)
	}
	return AdaptiveResult{P: p, Samples: samples, Successes: successes}
}
