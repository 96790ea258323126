// Package mcl implements the Markov Cluster Algorithm of van Dongen,
// "Graph clustering via a discrete uncoupling process" (SIMAX 2008) — the
// main competitor in the paper's experimental evaluation (Section 5).
//
// MCL interprets edge weights (here: edge probabilities) as similarity
// scores, builds the column-stochastic random-walk matrix of the graph,
// and alternates two operations until the process converges to a
// (near-)idempotent matrix:
//
//   - expansion: M <- M * M, spreading flow along walks;
//   - inflation: entrywise power r followed by column renormalization,
//     strengthening strong flows and weakening weak ones.
//
// Converged columns concentrate their mass on a few attractor rows; the
// clusters are the weakly connected components of the converged support.
// The inflation parameter r indirectly controls cluster granularity (the
// paper's Section 5 sweeps it to obtain target cluster counts), but there
// is no fixed relation between r and the number of clusters — the
// motivation for the paper's fully parametric algorithms.
package mcl

import (
	"runtime"

	"ucgraph/internal/core"
	"ucgraph/internal/graph"
	"ucgraph/internal/par"
)

// Options configures an MCL run. Zero fields take the documented defaults.
type Options struct {
	// Inflation is the entrywise power r (default 2.0). Larger values give
	// finer clusterings.
	Inflation float64
	// LoopWeight is the self-loop weight added to every node before
	// normalization (default 1.0), as in the mcl reference implementation.
	LoopWeight float64
	// PruneThreshold drops entries below it after each inflation
	// (default 1e-5), bounding the matrix density.
	PruneThreshold float64
	// MaxNNZPerColumn truncates columns to their largest entries after
	// pruning (default 256; negative disables), mirroring mcl's -S/-R
	// scheme.
	MaxNNZPerColumn int
	// MaxIterations bounds the expansion/inflation loop (default 128).
	MaxIterations int
	// ConvergenceChaos stops the loop once the chaos measure — the maximum
	// over columns of (max entry - sum of squared entries) — falls below it
	// (default 1e-4).
	ConvergenceChaos float64
}

func (o Options) withDefaults() Options {
	if o.Inflation <= 0 {
		o.Inflation = 2.0
	}
	if o.LoopWeight <= 0 {
		o.LoopWeight = 1.0
	}
	if o.PruneThreshold <= 0 {
		o.PruneThreshold = 1e-5
	}
	if o.MaxNNZPerColumn == 0 {
		o.MaxNNZPerColumn = 256
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 128
	}
	if o.ConvergenceChaos <= 0 {
		o.ConvergenceChaos = 1e-4
	}
	return o
}

// Result is the outcome of an MCL run.
type Result struct {
	// Clustering assigns every node to a cluster; centers are the
	// attractor nodes (the node with the largest converged self-flow in
	// each cluster), matching footnote 2 of the paper.
	Clustering *core.Clustering
	// Iterations is the number of expansion/inflation rounds executed.
	Iterations int
	// Chaos is the final value of the convergence measure.
	Chaos float64
	// Converged reports whether Chaos dropped below the threshold before
	// MaxIterations.
	Converged bool
}

// Cluster runs MCL on g, using edge probabilities as similarity weights.
func Cluster(g *graph.Uncertain, opt Options) *Result {
	opt = opt.withDefaults()
	n := g.NumNodes()

	// Build the initial matrix: adjacency weights + self loops, column
	// stochastic.
	m := newMatrix(n)
	for j := int32(0); j < int32(n); j++ {
		nodes, _, probs := g.NeighborSlices(j)
		col := make([]entry, 0, len(nodes)+1)
		inserted := false
		for i, v := range nodes {
			if !inserted && v > j {
				col = append(col, entry{row: j, val: opt.LoopWeight})
				inserted = true
			}
			col = append(col, entry{row: v, val: probs[i]})
		}
		if !inserted {
			col = append(col, entry{row: j, val: opt.LoopWeight})
		}
		m.cols[j] = col
	}
	m.normalize()

	res := &Result{}
	for iter := 0; iter < opt.MaxIterations; iter++ {
		res.Iterations = iter + 1
		next := newMatrix(n)
		// Each share expands a contiguous range of columns and reports the
		// largest chaos among them; the maximum does not depend on the split.
		shareChaos := make([]float64, runtime.GOMAXPROCS(0))
		par.Split(len(shareChaos), func(i, k int) {
			chunk := (n + k - 1) / k
			lo, hi := min(i*chunk, n), min((i+1)*chunk, n)
			if lo >= hi {
				return
			}
			acc := make([]float64, n)
			touched := make([]int32, 0, 1024)
			scratch := make([]entry, 0, 1024)
			localChaos := 0.0
			for j := lo; j < hi; j++ {
				scratch = m.squareColumn(int32(j), acc, touched, scratch)
				col := make([]entry, len(scratch))
				copy(col, scratch)
				col = inflateColumn(col, opt.Inflation, opt.PruneThreshold)
				col = truncateColumn(col, opt.MaxNNZPerColumn)
				next.cols[j] = col
				max, sumSq := 0.0, 0.0
				for _, e := range col {
					if e.val > max {
						max = e.val
					}
					sumSq += e.val * e.val
				}
				if c := max - sumSq; c > localChaos {
					localChaos = c
				}
			}
			shareChaos[i] = localChaos
		})
		chaos := 0.0
		for _, c := range shareChaos {
			if c > chaos {
				chaos = c
			}
		}
		m = next
		res.Chaos = chaos
		if chaos < opt.ConvergenceChaos {
			res.Converged = true
			break
		}
	}

	res.Clustering = interpret(m, n)
	return res
}

// interpret extracts clusters from the converged matrix: weakly connected
// components of the support, with the node of largest self-flow in each
// component as its attractor/center.
func interpret(m *matrix, n int) *core.Clustering {
	uf := graph.NewUnionFind(n)
	for j := int32(0); j < int32(n); j++ {
		for _, e := range m.cols[j] {
			uf.Union(j, e.row)
		}
	}
	labels := make([]int32, n)
	uf.Labels(labels)

	// Map component representatives to dense cluster indices, picking the
	// attractor (max diagonal value; ties to the smaller node) per cluster.
	clusterOf := make(map[int32]int32)
	var centers []graph.NodeID
	bestDiag := make([]float64, 0)
	for u := int32(0); u < int32(n); u++ {
		rep := labels[u]
		idx, ok := clusterOf[rep]
		diag := m.at(u, u)
		if !ok {
			idx = int32(len(centers))
			clusterOf[rep] = idx
			centers = append(centers, u)
			bestDiag = append(bestDiag, diag)
			continue
		}
		if diag > bestDiag[idx] {
			bestDiag[idx] = diag
			centers[idx] = u
		}
	}

	assign := make([]int32, n)
	prob := make([]float64, n)
	for u := int32(0); u < int32(n); u++ {
		assign[u] = clusterOf[labels[u]]
	}
	for i, c := range centers {
		assign[c] = int32(i)
		prob[c] = 1
	}
	return &core.Clustering{Centers: centers, Assign: assign, Prob: prob}
}
