// Package ucgraph clusters uncertain graphs with provable guarantees.
//
// It is a Go implementation of "Clustering Uncertain Graphs" (Ceccarello,
// Fantozzi, Pietracaprina, Pucci, Vandin — VLDB 2017). An uncertain graph
// G = (V, E, p) is a probability space whose outcomes (possible worlds) are
// subgraphs of G in which each edge e materializes independently with
// probability p(e). The library partitions V into k clusters around k
// center nodes so as to maximize either
//
//   - the minimum connection probability of a node to its cluster center
//     (the MCP problem), or
//   - the average connection probability of a node to its cluster center
//     (the ACP problem),
//
// where the connection probability Pr(u ~ v) is the probability that u and
// v fall in the same connected component of a random possible world. Both
// algorithms carry approximation guarantees relative to the optimal
// k-clustering and keep the number of clusters under exact control, unlike
// earlier uncertain-graph clustering heuristics.
//
// # Quick start
//
//	b := ucgraph.NewBuilder(4)
//	b.AddEdge(0, 1, 0.9)
//	b.AddEdge(1, 2, 0.8)
//	b.AddEdge(2, 3, 0.9)
//	g, _ := b.Build()
//	cl, stats, err := ucgraph.MCP(g, 2, ucgraph.Options{Seed: 1})
//
// The returned Clustering lists the k centers, each node's cluster and the
// estimated connection probability of each node to its center.
//
// # Depth-limited clustering
//
// Setting Options.Depth = d restricts connection probabilities to paths of
// at most d hops (the d-connection probability of Section 3.4), useful when
// topological proximity matters alongside reliability — e.g. protein
// complex prediction in PPI networks.
//
// # Baselines
//
// The package also ships the three comparison algorithms of the paper's
// evaluation: MCL (Markov Cluster), GMM (k-center on most-probable-path
// distances) and KPT (pKwikCluster), plus the quality metrics used to
// compare them (MinProb/AvgProb, inner/outer AVPR, pair confusion against
// ground-truth communities).
//
// # Deadlines and cancellation
//
// The long-running entry points have Ctx variants (MCPCtx, ACPCtx,
// ConnectionProbabilityCtx, SampleDistancesCtx, MaximizeInfluenceCtx)
// that honor context cancellation and deadlines: estimation aborts at the
// next chunk of sampled worlds and the context's error is returned. A
// call that returns without error is bit-identical to its context-free
// twin — cancellation never degrades an answer, it only withholds one.
// The ucserve daemon (cmd/ucserve) serves every request through these
// variants; see docs/SERVER.md.
package ucgraph

import (
	"context"
	"io"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/datasets"
	"ucgraph/internal/gio"
	"ucgraph/internal/gmm"
	"ucgraph/internal/graph"
	"ucgraph/internal/kpt"
	"ucgraph/internal/mcl"
	"ucgraph/internal/metrics"
	"ucgraph/internal/worldstore"
)

// NodeID identifies a node; the nodes of an n-node graph are 0..n-1.
type NodeID = graph.NodeID

// Edge is one undirected uncertain edge with survival probability P.
type Edge = graph.Edge

// Graph is an immutable uncertain graph.
type Graph = graph.Uncertain

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// Clustering is a k-clustering: centers, per-node cluster assignment and
// per-node estimated connection probability to the assigned center.
type Clustering = core.Clustering

// Options configures the MCP and ACP drivers; the zero value selects the
// defaults used in the paper's experiments (gamma 0.1, floor 1e-4,
// alpha 1, accelerated guess schedule with binary search).
// The estimator and the candidate-scoring fan-out share one process-wide
// budget of GOMAXPROCS worker goroutines (set it with the GOMAXPROCS
// environment variable or runtime.GOMAXPROCS; 1 runs serially). Results
// are bit-identical for every worker count up to the estimator's
// tally-cache overflow boundary (see Estimator).
type Options = core.Options

// Stats reports the work performed by an MCP/ACP run.
type Stats = core.Stats

// Schedule maps probability guesses to Monte Carlo sample sizes
// (progressive sampling, Section 4 of the paper).
type Schedule = conn.Schedule

// Estimator is the Monte Carlo connection-probability oracle. It answers
// from the shared world store of its (graph, seed) pair, so all queries
// against it — and against every other consumer of that pair — are
// mutually consistent and reproducible. Estimators are safe for concurrent
// use and internally parallel: estimates do not depend on the worker count
// (GOMAXPROCS) or the store's memory budget.
type Estimator = conn.MonteCarlo

// WorldStore is the shared, memory-bounded store of sampled possible
// worlds that all estimators, metrics and companion queries of one
// (graph, seed) pair answer from. See Worlds and SetWorldMemoryBudget.
type WorldStore = worldstore.Store

// MCLOptions configures the MCL baseline.
type MCLOptions = mcl.Options

// MCLResult is the outcome of an MCL run.
type MCLResult = mcl.Result

// Confusion is a pair-level confusion matrix against ground-truth
// communities.
type Confusion = metrics.Confusion

// Dataset is a synthetic uncertain graph with optional planted ground
// truth, emulating one of the paper's evaluation datasets.
type Dataset = datasets.Dataset

// DBLPConfig sizes the synthetic DBLP co-authorship generator.
type DBLPConfig = datasets.DBLPConfig

// Unassigned marks a node not covered by any cluster in a partial
// clustering.
const Unassigned = core.Unassigned

// Unlimited disables the path-length limit on connection probabilities.
const Unlimited = conn.Unlimited

// ErrNoClustering is returned when no full k-clustering exists above the
// probability floor (e.g. the graph has more than k connected components).
var ErrNoClustering = core.ErrNoClustering

// NewBuilder returns a Builder for a graph with n nodes; AddEdge grows the
// node set as needed.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n nodes from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadGraph parses a graph from "u v p" edge lines.
func ReadGraph(r io.Reader) (*Graph, error) { return gio.ReadGraph(r) }

// WriteGraph writes a graph as "u v p" edge lines.
func WriteGraph(w io.Writer, g *Graph) error { return gio.WriteGraph(w, g) }

// LoadGraph reads a graph from a file.
func LoadGraph(path string) (*Graph, error) { return gio.LoadGraph(path) }

// SaveGraph writes a graph to a file.
func SaveGraph(path string, g *Graph) error { return gio.SaveGraph(path, g) }

// NewEstimator returns a Monte Carlo connection-probability estimator over
// g's possible worlds under the given seed.
func NewEstimator(g *Graph, seed uint64) *Estimator { return conn.NewMonteCarlo(g, seed) }

// Worlds returns the shared world store for (g, seed): the single
// materialization of that world stream which every estimator, metric and
// companion query built from the pair answers from. Use it for
// observability (Stats) or to bound its label memory (SetBudget).
func Worlds(g *Graph, seed uint64) *WorldStore { return worldstore.Shared(g, seed) }

// SetWorldMemoryBudget bounds the label memory, in bytes, of world stores
// created afterwards (0 restores the unbounded default). Bounded stores
// evict least-recently-used label blocks and recompute them on demand;
// estimates are bit-identical either way, only speed varies. Existing
// stores keep their budgets; use WorldStore.SetBudget for those.
func SetWorldMemoryBudget(bytes int64) { worldstore.SetDefaultBudget(bytes) }

// MCP partitions g into k clusters maximizing the minimum connection
// probability of a node to its cluster center (Algorithm 2 of the paper,
// with the Section 4 progressive-sampling oracle). The result satisfies,
// with high probability,
//
//	min-prob(C) >= (1-eps) * p_opt-min(k)^2 / (1+gamma).
func MCP(g *Graph, k int, opt Options) (*Clustering, Stats, error) {
	return core.MCP(conn.NewMonteCarlo(g, estimatorSeed(opt.Seed)), k, opt)
}

// MCPCtx is MCP with cooperative cancellation: the run aborts at the next
// chunk of sampled worlds once ctx is cancelled or past its deadline,
// returning ctx's error. A nil-error run is bit-identical to MCP.
func MCPCtx(ctx context.Context, g *Graph, k int, opt Options) (*Clustering, Stats, error) {
	return core.MCPCtx(ctx, conn.NewMonteCarlo(g, estimatorSeed(opt.Seed)), k, opt)
}

// MCPWithOracle runs MCP against a caller-supplied estimator, so repeated
// runs can share sampled worlds.
func MCPWithOracle(oracle *Estimator, k int, opt Options) (*Clustering, Stats, error) {
	return core.MCP(oracle, k, opt)
}

// ACP partitions g into k clusters maximizing the average connection
// probability of a node to its cluster center (Algorithm 3). The result
// satisfies, with high probability,
//
//	avg-prob(C) >= (1-eps) * (p_opt-avg(k) / ((1+gamma) H(n)))^3.
func ACP(g *Graph, k int, opt Options) (*Clustering, Stats, error) {
	return core.ACP(conn.NewMonteCarlo(g, estimatorSeed(opt.Seed)), k, opt)
}

// ACPCtx is ACP with cooperative cancellation, under the same contract as
// MCPCtx: ctx's error on abort, bit-identical results on success.
func ACPCtx(ctx context.Context, g *Graph, k int, opt Options) (*Clustering, Stats, error) {
	return core.ACPCtx(ctx, conn.NewMonteCarlo(g, estimatorSeed(opt.Seed)), k, opt)
}

// ACPWithOracle runs ACP against a caller-supplied estimator, so repeated
// runs can share sampled worlds.
func ACPWithOracle(oracle *Estimator, k int, opt Options) (*Clustering, Stats, error) {
	return core.ACP(oracle, k, opt)
}

// estimatorSeed derives the estimator's world-stream seed from the driver
// seed so that MCP(g, k, opt) is fully reproducible.
func estimatorSeed(seed uint64) uint64 { return seed ^ 0x77c11a9d5f3b2e01 }

// MCL clusters g with the Markov Cluster algorithm, using edge
// probabilities as similarity weights. The number of clusters is an
// emergent property of Options.Inflation.
func MCL(g *Graph, opt MCLOptions) *MCLResult { return mcl.Cluster(g, opt) }

// GMM clusters g with the Gonzalez k-center baseline on the shortest-path
// metric w(e) = ln(1/p(e)).
func GMM(g *Graph, k int, seed uint64) (*Clustering, error) { return gmm.Cluster(g, k, seed) }

// KPT clusters g with pKwikCluster (Kollios, Potamias, Terzi); the number
// of clusters is an outcome of the random pivot order.
func KPT(g *Graph, seed uint64) *Clustering { return kpt.Cluster(g, seed) }

// MinProb estimates the minimum connection probability of a node to its
// cluster center (Equation 1) over r sampled worlds.
func MinProb(g *Graph, cl *Clustering, seed uint64, r int) float64 {
	return metrics.PMin(cl, worldstore.Shared(g, seed), r)
}

// AvgProb estimates the average connection probability of nodes to their
// cluster centers (Equation 2) over r sampled worlds.
func AvgProb(g *Graph, cl *Clustering, seed uint64, r int) float64 {
	return metrics.PAvg(cl, worldstore.Shared(g, seed), r)
}

// AVPR estimates the inner and outer Average Vertex Pairwise Reliability of
// a clustering over r sampled worlds: the mean connection probability of
// same-cluster pairs and of cross-cluster pairs.
func AVPR(g *Graph, cl *Clustering, seed uint64, r int) (inner, outer float64) {
	return metrics.AVPR(cl, worldstore.Shared(g, seed), r)
}

// PairConfusion scores a clustering against ground-truth communities at the
// node-pair level (Section 5.2): pairs co-clustered and co-complexed are
// true positives.
func PairConfusion(cl *Clustering, truth [][]NodeID) Confusion {
	return metrics.PairConfusion(cl, truth)
}

// ConnectionProbability estimates Pr(u ~ v) with r sampled worlds.
func ConnectionProbability(g *Graph, u, v NodeID, seed uint64, r int) float64 {
	return conn.NewMonteCarlo(g, seed).Pair(u, v, r)
}

// ConnectionProbabilityCtx is ConnectionProbability with cooperative
// cancellation: the world scan aborts once ctx is done, returning ctx's
// error.
func ConnectionProbabilityCtx(ctx context.Context, g *Graph, u, v NodeID, seed uint64, r int) (float64, error) {
	return conn.NewMonteCarlo(g, seed).PairCtx(ctx, u, v, r)
}

// SyntheticCollins generates the Collins-like PPI dataset (Table 1 row 1):
// ~1004 nodes, ~8323 edges, mostly high-probability edges, with planted
// protein complexes as ground truth.
func SyntheticCollins(seed uint64) (*Dataset, error) { return datasets.Collins(seed) }

// SyntheticGavin generates the Gavin-like PPI dataset: ~1727 nodes, ~7534
// edges, mostly low-probability edges.
func SyntheticGavin(seed uint64) (*Dataset, error) { return datasets.Gavin(seed) }

// SyntheticKrogan generates the Krogan-like PPI dataset: ~2559 nodes,
// ~7031 edges, a quarter of them above probability 0.9. Its Curated field
// carries a MIPS-like ground-truth subset for prediction experiments.
func SyntheticKrogan(seed uint64) (*Dataset, error) { return datasets.Krogan(seed) }

// SyntheticDBLP generates a DBLP-like co-authorship uncertain graph with
// p = 1 - exp(-x/2) for x co-authored papers. The zero config is a
// laptop-scale default; set Authors to 636751 for the paper-scale graph.
func SyntheticDBLP(cfg DBLPConfig, seed uint64) (*Dataset, error) {
	return datasets.DBLP(cfg, seed)
}
