// Package knn implements k-nearest-neighbor queries on uncertain graphs
// under the probabilistic distance measures of Potamias, Bonchi, Gionis
// and Kollios, "k-nearest neighbors in uncertain graphs" (VLDB 2010) —
// reference [29] of the paper under reproduction, which introduced the
// uncertain-graph model the clustering algorithms build on.
//
// For a source s and node v, the hop-distance d(s, v) is a random variable
// over possible worlds (taking value +inf when disconnected). Because its
// expectation is infinite whenever disconnection has positive probability,
// [29] ranks nodes by distribution summaries instead:
//
//   - Median-Distance: the smallest d whose cumulative probability reaches
//     1/2 (more generally any quantile);
//   - Majority-Distance: the most probable finite distance;
//   - Expected-Reliable-Distance: the expected distance conditioned on
//     connectivity, penalized implicitly by the reliability;
//   - Reliability: Pr(s ~ v) itself, the measure the clustering paper
//     adopts.
//
// As [29] observes (and the clustering paper reiterates), these distances
// do not satisfy the triangle inequality — the observation that motivates
// the connection-probability metric of Theorem 1.
package knn

import (
	"context"
	"math"
	"sort"

	"ucgraph/internal/graph"
	"ucgraph/internal/worldstore"
)

// Infinite marks an unreachable distance in a world.
const Infinite int32 = math.MaxInt32

// DistanceDistribution holds, for one source, the empirical hop-distance
// distribution of every node over r sampled worlds.
type DistanceDistribution struct {
	Source graph.NodeID
	R      int
	// Hist[v] maps finite hop distances to world counts; worlds where v is
	// unreachable from the source are counted in Unreachable[v].
	Hist        []map[int32]int
	Unreachable []int
}

// Sample computes the hop-distance distribution from src over the first r
// worlds of the seeded stream, routed through the shared world store for
// (g, seed): the worlds are the same ones any conn.MonteCarlo estimator or
// reliability metric built from that pair observes.
func Sample(g *graph.Uncertain, src graph.NodeID, seed uint64, r int) *DistanceDistribution {
	return SampleStore(worldstore.Shared(g, seed), src, r)
}

// SampleCtx is Sample with cooperative cancellation (see SampleStoreCtx).
func SampleCtx(ctx context.Context, g *graph.Uncertain, src graph.NodeID, seed uint64, r int) (*DistanceDistribution, error) {
	return SampleStoreCtx(ctx, worldstore.Shared(g, seed), src, r)
}

// SampleStore computes the hop-distance distribution from src over the
// first r worlds of ws. Hop distances need per-world BFS, so the sampling
// runs on the store's implicit world view rather than its label blocks.
func SampleStore(ws *worldstore.Store, src graph.NodeID, r int) *DistanceDistribution {
	dd, _ := SampleStoreCtx(context.Background(), ws, src, r)
	return dd
}

// SampleStoreCtx is SampleStore with cooperative cancellation: ctx is
// checked between per-world BFS traversals, and a cancelled run returns
// ctx's error with no distribution. A nil-error run is bit-identical to
// SampleStore.
func SampleStoreCtx(ctx context.Context, ws *worldstore.Store, src graph.NodeID, r int) (*DistanceDistribution, error) {
	return SampleRangeCtx(ctx, ws, src, 0, r)
}

// SampleRangeCtx computes the hop-distance distribution from src over the
// world range [lo, hi) of ws — the partial tally one shard worker
// contributes when the distribution is computed distributed. The returned
// distribution has R = hi - lo; summing the histogram counts, unreachable
// counts and R of distributions over disjoint ranges of the same stream
// (the shard fabric's mergeBuckets does this) gives exactly the
// distribution a single scan of the union would have produced, because
// every field is an order-free integer sum over worlds.
func SampleRangeCtx(ctx context.Context, ws *worldstore.Store, src graph.NodeID, lo, hi int) (*DistanceDistribution, error) {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	g := ws.Graph()
	n := g.NumNodes()
	dd := &DistanceDistribution{
		Source:      src,
		R:           hi - lo,
		Hist:        make([]map[int32]int, n),
		Unreachable: make([]int, n),
	}
	for v := range dd.Hist {
		dd.Hist[v] = make(map[int32]int, 8)
	}
	ws.Grow(hi)
	seen := make([]uint32, n)
	queue := make([]graph.NodeID, 0, n)
	reached := make([]bool, n)
	for w := lo; w < hi; w++ {
		if (w-lo)%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		world := ws.World(w)
		for v := range reached {
			reached[v] = false
		}
		world.BFSWithin(src, -1, seen, uint32(w-lo+1), queue, func(v graph.NodeID, depth int32) {
			dd.Hist[v][depth]++
			reached[v] = true
		})
		for v := 0; v < n; v++ {
			if !reached[v] {
				dd.Unreachable[v]++
			}
		}
	}
	return dd, nil
}

// Reliability returns the fraction of worlds where v was reachable:
// the Monte Carlo estimate of Pr(s ~ v).
func (dd *DistanceDistribution) Reliability(v graph.NodeID) float64 {
	return 1 - float64(dd.Unreachable[v])/float64(dd.R)
}

// Median returns the median hop distance of v (the 0.5-quantile of the
// distance distribution, with +inf mass included), or Infinite if v is
// disconnected in at least half the worlds.
func (dd *DistanceDistribution) Median(v graph.NodeID) int32 {
	return dd.Quantile(v, 0.5)
}

// Quantile returns the smallest distance d such that
// Pr(dist(s,v) <= d) >= phi, or Infinite if no finite distance reaches the
// quantile.
func (dd *DistanceDistribution) Quantile(v graph.NodeID, phi float64) int32 {
	need := phi * float64(dd.R)
	ds := make([]int32, 0, len(dd.Hist[v]))
	for d := range dd.Hist[v] {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	cum := 0
	for _, d := range ds {
		cum += dd.Hist[v][d]
		if float64(cum) >= need-1e-9 {
			return d
		}
	}
	return Infinite
}

// Majority returns the most probable finite hop distance of v (ties to the
// smaller distance), or Infinite if v was never reached.
func (dd *DistanceDistribution) Majority(v graph.NodeID) int32 {
	best, bestCount := Infinite, 0
	ds := make([]int32, 0, len(dd.Hist[v]))
	for d := range dd.Hist[v] {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	for _, d := range ds {
		if c := dd.Hist[v][d]; c > bestCount {
			best, bestCount = d, c
		}
	}
	return best
}

// ExpectedReliable returns the expected hop distance of v conditioned on
// reachability, and the reliability itself. It returns (+inf, 0) for a
// node never reached.
func (dd *DistanceDistribution) ExpectedReliable(v graph.NodeID) (dist float64, reliability float64) {
	reached := dd.R - dd.Unreachable[v]
	if reached == 0 {
		return math.Inf(1), 0
	}
	sum := 0.0
	for d, c := range dd.Hist[v] {
		sum += float64(d) * float64(c)
	}
	return sum / float64(reached), float64(reached) / float64(dd.R)
}

// Measure selects a node-ranking criterion for KNN queries.
type Measure int

const (
	// MedianDistance ranks by the median hop distance (ties by
	// reliability, then node ID).
	MedianDistance Measure = iota
	// MajorityDistance ranks by the most probable finite distance.
	MajorityDistance
	// ExpectedReliableDistance ranks by expected distance conditioned on
	// connectivity, requiring reliability >= 1/2 as in [29].
	ExpectedReliableDistance
	// ByReliability ranks by Pr(s ~ v) descending — the measure aligned
	// with the clustering paper's objectives.
	ByReliability
)

// Neighbor is one ranked query answer.
type Neighbor struct {
	Node graph.NodeID
	// Distance is the measure value (Infinite for unbounded measures);
	// for ByReliability it is the median distance, reported for context.
	Distance int32
	// Reliability is the estimated Pr(s ~ v).
	Reliability float64
}

// KNN returns the k nodes closest to the distribution's source under the
// given measure, excluding the source itself. Fewer than k neighbors are
// returned when the rest of the graph is unreachable in every sampled
// world (or fails the measure's reliability requirement).
func (dd *DistanceDistribution) KNN(k int, m Measure) []Neighbor {
	n := len(dd.Hist)
	cands := make([]Neighbor, 0, n-1)
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == dd.Source {
			continue
		}
		rel := dd.Reliability(graph.NodeID(v))
		if rel == 0 {
			continue
		}
		var dist int32
		switch m {
		case MedianDistance:
			dist = dd.Median(graph.NodeID(v))
			if dist == Infinite {
				continue
			}
		case MajorityDistance:
			dist = dd.Majority(graph.NodeID(v))
			if dist == Infinite {
				continue
			}
		case ExpectedReliableDistance:
			ed, rel2 := dd.ExpectedReliable(graph.NodeID(v))
			if rel2 < 0.5 {
				continue
			}
			dist = int32(math.Round(ed))
		case ByReliability:
			dist = dd.Median(graph.NodeID(v))
		}
		cands = append(cands, Neighbor{Node: graph.NodeID(v), Distance: dist, Reliability: rel})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if m == ByReliability {
			if a.Reliability != b.Reliability {
				return a.Reliability > b.Reliability
			}
			return a.Node < b.Node
		}
		if a.Distance != b.Distance {
			return a.Distance < b.Distance
		}
		if a.Reliability != b.Reliability {
			return a.Reliability > b.Reliability
		}
		return a.Node < b.Node
	})
	if k < len(cands) {
		cands = cands[:k]
	}
	return cands
}
