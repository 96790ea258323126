package ucgraph

// This file exposes the companion query primitives built on the same
// possible-world machinery as the clustering algorithms: k-nearest
// neighbors under probabilistic distances (Potamias et al., the paper that
// introduced the uncertain-graph model), influence-spread maximization
// (Kempe et al., discussed in Section 1.1), representative-world
// extraction (Parchas et al.), network-reliability statistics, and the
// pL-free adaptive estimation sketched in Section 4.2.

import (
	"context"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/graph"
	"ucgraph/internal/influence"
	"ucgraph/internal/knn"
	"ucgraph/internal/metrics"
	"ucgraph/internal/repworld"
	"ucgraph/internal/worldstore"
)

// DistanceDistribution is the sampled hop-distance distribution from one
// source node, supporting the probabilistic distance measures of the
// uncertain-graph k-NN literature.
type DistanceDistribution = knn.DistanceDistribution

// KNNMeasure selects a node-ranking criterion for nearest-neighbor queries.
type KNNMeasure = knn.Measure

// Nearest-neighbor ranking criteria.
const (
	// MedianDistance ranks by the median hop distance.
	MedianDistance = knn.MedianDistance
	// MajorityDistance ranks by the most probable finite hop distance.
	MajorityDistance = knn.MajorityDistance
	// ExpectedReliableDistance ranks by expected distance conditioned on
	// connectivity (reliability >= 1/2 required).
	ExpectedReliableDistance = knn.ExpectedReliableDistance
	// ByReliability ranks by Pr(s ~ v) descending.
	ByReliability = knn.ByReliability
)

// Neighbor is one ranked nearest-neighbor answer.
type Neighbor = knn.Neighbor

// InfiniteDistance marks an unreachable hop distance.
const InfiniteDistance = knn.Infinite

// SampleDistances computes the hop-distance distribution from src over r
// sampled possible worlds, the basis for KNN queries:
//
//	dd := ucgraph.SampleDistances(g, src, seed, 1000)
//	nearest := dd.KNN(10, ucgraph.MedianDistance)
func SampleDistances(g *Graph, src NodeID, seed uint64, r int) *DistanceDistribution {
	return knn.Sample(g, src, seed, r)
}

// SampleDistancesCtx is SampleDistances with cooperative cancellation:
// the per-world BFS loop aborts once ctx is done, returning ctx's error.
func SampleDistancesCtx(ctx context.Context, g *Graph, src NodeID, seed uint64, r int) (*DistanceDistribution, error) {
	return knn.SampleCtx(ctx, g, src, seed, r)
}

// InfluenceResult is the outcome of greedy influence maximization.
type InfluenceResult = influence.Result

// InfluenceSpread estimates sigma(S): the expected number of nodes
// connected to at least one seed in a random possible world (the
// live-edge view of the Independent Cascade model on undirected graphs).
func InfluenceSpread(g *Graph, seeds []NodeID, seed uint64, r int) float64 {
	return influence.Spread(worldstore.Shared(g, seed), seeds, r)
}

// MaximizeInfluence greedily selects k seeds maximizing the expected
// spread, with CELF lazy evaluation; the result is a (1 - 1/e - eps)
// approximation of the optimal seed set by submodularity.
func MaximizeInfluence(g *Graph, k int, seed uint64, r int) (*InfluenceResult, error) {
	return influence.Greedy(worldstore.Shared(g, seed), k, r)
}

// MaximizeInfluenceCtx is MaximizeInfluence with cooperative cancellation:
// the greedy selection aborts at the next world scan once ctx is done,
// returning ctx's error.
func MaximizeInfluenceCtx(ctx context.Context, g *Graph, k int, seed uint64, r int) (*InfluenceResult, error) {
	return influence.GreedyCtx(ctx, worldstore.Shared(g, seed), k, r)
}

// MostProbableWorld returns the deterministic graph keeping exactly the
// edges with p >= 1/2 — the single most likely possible world.
func MostProbableWorld(g *Graph) (*Graph, error) {
	return repworld.Materialize(g, repworld.MostProbable(g))
}

// RepresentativeWorld returns a deterministic instance of g whose node
// degrees track the expected degrees of the uncertain graph (the
// ADR-style greedy of Parchas et al.), a better proxy than the most
// probable world when low-probability regions are dense.
func RepresentativeWorld(g *Graph) (*Graph, error) {
	return repworld.Materialize(g, repworld.AverageDegree(g))
}

// SampledRepresentativeWorld returns the possible world with the smallest
// degree discrepancy among the first r worlds of the shared (g, seed)
// stream, plus that world's stream index. The result is an actual sample —
// the exact world every other query on the same (g, seed) pair observes at
// that index — unlike the synthesized MostProbableWorld and
// RepresentativeWorld instances.
func SampledRepresentativeWorld(g *Graph, seed uint64, r int) (*Graph, int, error) {
	kept, idx := repworld.BestSampled(worldstore.Shared(g, seed), r)
	world, err := repworld.Materialize(g, kept)
	return world, idx, err
}

// DegreeDiscrepancy returns sum over nodes of |deg_world(v) -
// E[deg_g(v)]| for a deterministic instance world of g (world must have
// the same node set).
func DegreeDiscrepancy(g *Graph, world *Graph) float64 {
	kept := make([]int32, 0, world.NumEdges())
	for _, e := range world.Edges() {
		// Map world edges back onto g's edge IDs by endpoints.
		if _, ok := g.HasEdge(e.U, e.V); ok {
			kept = append(kept, findEdgeID(g, e.U, e.V))
		}
	}
	return repworld.Discrepancy(g, kept)
}

// findEdgeID locates the edge ID of {u, v} in g (which must exist).
func findEdgeID(g *Graph, u, v NodeID) int32 {
	var id int32 = -1
	g.Neighbors(u, func(w graph.NodeID, edgeID int32, _ float64) {
		if w == v {
			id = edgeID
		}
	})
	return id
}

// ExpectedComponents estimates the expected number of connected components
// of a random possible world.
func ExpectedComponents(g *Graph, seed uint64, r int) float64 {
	return metrics.ExpectedComponents(worldstore.Shared(g, seed), r)
}

// SetReliability estimates the probability that all nodes of set lie in a
// single connected component of a random possible world (k-terminal
// reliability).
func SetReliability(g *Graph, set []NodeID, seed uint64, r int) float64 {
	return metrics.SetReliability(worldstore.Shared(g, seed), set, r)
}

// AllTerminalReliability estimates the probability that a random possible
// world is connected.
func AllTerminalReliability(g *Graph, seed uint64, r int) float64 {
	return metrics.AllTerminalReliability(worldstore.Shared(g, seed), r)
}

// AdaptiveParams is an (eps, delta) confidence target for adaptive
// estimation: with probability at least 1-Delta, every tracked estimate
// lands within Eps of the truth (within Eps times the truth for
// AdaptiveConnectionProbability).
type AdaptiveParams = conn.AdaptiveParams

// AdaptiveStats accounts an adaptive run: worlds consumed vs budget,
// rounds, the final certified half-width, and whether the run converged.
type AdaptiveStats = conn.AdaptiveStats

// AdaptiveSnapshot is one refinement round of an adaptive run, delivered
// to the progress callback of AdaptiveFromCenters.
type AdaptiveSnapshot = conn.AdaptiveSnapshot

// AdaptiveScoring switches MCP/ACP candidate scoring to adaptive racing:
// set it on Options.Adaptive to prune dominated candidate centers early
// instead of spending the full sample budget on each (see
// Options.Adaptive for the determinism contract).
type AdaptiveScoring = core.AdaptiveScoring

// AdaptiveConnectionProbability estimates Pr(u ~ v) to RELATIVE error
// p.Eps with confidence 1-p.Delta — the progressive sampling without a
// lower bound pL sketched at the end of Section 4.2 of the paper. It runs
// the same doubling rounds as ConnectionProbabilityInterval and stops once
// the interval half-width h satisfies h <= Eps*(estimate - h), so the
// world count adapts to the unknown probability (~ln(1/delta)/(eps^2 Pr)),
// capped at p.MaxWorlds (<= 0 selects 2^20); a pair that stays
// disconnected ends unconverged with estimate 0. Deterministic for fixed
// (graph, seed, params); the estimate is bit-identical to a fixed-budget
// run of stats.Worlds worlds.
func AdaptiveConnectionProbability(ctx context.Context, g *Graph, u, v NodeID, p AdaptiveParams, seed uint64) (float64, AdaptiveStats, error) {
	return conn.AdaptivePairRelative(ctx, conn.NewMonteCarlo(g, seed), u, v, conn.Unlimited, p, nil)
}

// ConnectionProbabilityInterval estimates Pr(u ~ v) to ADDITIVE error eps
// with confidence 1-delta: worlds are consumed in block-aligned doubling
// rounds from the shared store and the run stops as soon as the
// Hoeffding/empirical-Bernstein interval closes to eps. Unlike the
// relative-error AdaptiveConnectionProbability, the additive target never
// needs many worlds for rare events — extreme probabilities converge
// FASTER (the empirical variance vanishes). Deterministic for fixed
// (graph, seed, params); the estimate at the stopping point is
// bit-identical to a fixed-budget run of the same world count.
func ConnectionProbabilityInterval(ctx context.Context, g *Graph, u, v NodeID, p AdaptiveParams, seed uint64) (float64, AdaptiveStats, error) {
	return conn.AdaptivePairInterval(ctx, conn.NewMonteCarlo(g, seed), u, v, conn.Unlimited, p, nil)
}

// AdaptiveFromCenters answers "Pr(c ~ u) for every u" for each center to
// an additive (eps, delta) target, refining all centers together over
// doubling world rounds until the widest tracked interval closes (targets
// restricts which nodes count; nil tracks all). The progress callback, if
// non-nil, observes every refinement round; returning an error from it
// aborts the run. est may be shared — rounds extend its per-center tally
// cache exactly like fixed-budget queries do.
func AdaptiveFromCenters(ctx context.Context, est *Estimator, cs []NodeID, depth int, targets []NodeID, p AdaptiveParams, progress func(AdaptiveSnapshot) error) ([][]float64, AdaptiveStats, error) {
	return conn.AdaptiveFromCenters(ctx, est, cs, depth, targets, p, progress)
}
