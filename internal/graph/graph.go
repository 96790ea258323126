// Package graph provides the deterministic graph substrate beneath the
// uncertain-graph algorithms: a compact CSR (compressed sparse row)
// representation of an undirected uncertain graph, union–find, breadth-first
// search (plain and depth-limited), Dijkstra shortest paths, and connected
// components.
//
// An uncertain graph G = (V, E, p) assigns each undirected edge e a survival
// probability p(e) in (0, 1]. Package graph stores the probabilities but
// attaches no semantics to them; interpreting them as a distribution over
// possible worlds is the job of internal/sampler and internal/conn.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"ucgraph/internal/rng"
)

// NodeID identifies a node. Nodes of a graph with n nodes are 0..n-1.
type NodeID = int32

// Edge is one undirected uncertain edge.
type Edge struct {
	U, V NodeID  // endpoints, U != V
	P    float64 // survival probability, in (0, 1]
}

// Uncertain is an immutable uncertain graph in CSR form.
//
// Every undirected edge {u, v} appears twice in the adjacency arrays (once
// per direction) but has a single edge ID in [0, NumEdges()), shared by both
// directions. Possible-world samplers flip one coin per edge ID, so the two
// directions always agree.
type Uncertain struct {
	n int32

	// CSR arrays: the neighbors of u are adjNode[adjStart[u]:adjStart[u+1]],
	// with parallel edge IDs in adjEdge and probabilities in adjProb.
	adjStart []int32
	adjNode  []NodeID
	adjEdge  []int32
	adjProb  []float64

	// Per-edge data, indexed by edge ID.
	edges  []Edge
	thresh []uint64 // rng.CoinThreshold(P), precomputed for samplers

	digestOnce sync.Once
	digest     uint64
}

// Builder accumulates edges and produces an Uncertain graph.
// The zero value is an empty builder; AddEdge and EnsureNode grow its node
// set.
type Builder struct {
	n     int
	edges []Edge
	seen  map[[2]NodeID]int // maps normalized endpoints to index in edges
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the current number of nodes.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// HasEdge reports whether the undirected edge {u, v} was already added,
// returning its current probability.
func (b *Builder) HasEdge(u, v NodeID) (float64, bool) {
	if u > v {
		u, v = v, u
	}
	if i, ok := b.seen[[2]NodeID{u, v}]; ok {
		return b.edges[i].P, true
	}
	return 0, false
}

// EnsureNode grows the node set so that id is a valid node.
func (b *Builder) EnsureNode(id NodeID) {
	if int(id) >= b.n {
		b.n = int(id) + 1
	}
}

// AddEdge records the undirected edge {u, v} with probability p.
// Self loops, negative ids, ids of math.MaxInt32-1 and above (the node
// count plus one must fit an int32) and out-of-range probabilities are
// rejected. Adding an edge that already exists replaces its probability
// (last write wins), matching the behaviour of the paper's datasets where
// each pair appears once.
func (b *Builder) AddEdge(u, v NodeID, p float64) error {
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node id (%d, %d)", u, v)
	}
	if id := max(u, v); id >= math.MaxInt32-1 {
		return fmt.Errorf("graph: node id %d too large: ids stop at %d", id, math.MaxInt32-2)
	}
	if !(p > 0 && p <= 1) {
		return fmt.Errorf("graph: edge {%d,%d} probability %v outside (0,1]", u, v, p)
	}
	b.EnsureNode(u)
	b.EnsureNode(v)
	if u > v {
		u, v = v, u
	}
	key := [2]NodeID{u, v}
	if i, ok := b.seen[key]; ok {
		b.edges[i].P = p
		return nil
	}
	if b.seen == nil {
		b.seen = make(map[[2]NodeID]int)
	}
	b.seen[key] = len(b.edges)
	b.edges = append(b.edges, Edge{U: u, V: v, P: p})
	return nil
}

// Build finalizes the builder into an immutable CSR graph. The node count
// must be positive and below math.MaxInt32, the bound AddEdge puts on ids.
func (b *Builder) Build() (*Uncertain, error) {
	if b.n == 0 {
		return nil, errors.New("graph: cannot build a graph with no nodes")
	}
	if b.n < 0 || b.n >= math.MaxInt32 {
		return nil, fmt.Errorf("graph: node count %d outside [1, %d]", b.n, math.MaxInt32-1)
	}
	g := &Uncertain{n: int32(b.n), edges: make([]Edge, len(b.edges))}
	copy(g.edges, b.edges)
	// Deterministic edge IDs: sort by endpoints.
	sort.Slice(g.edges, func(i, j int) bool {
		if g.edges[i].U != g.edges[j].U {
			return g.edges[i].U < g.edges[j].U
		}
		return g.edges[i].V < g.edges[j].V
	})
	m := len(g.edges)
	g.thresh = make([]uint64, m)
	deg := make([]int32, g.n+1)
	for i, e := range g.edges {
		g.thresh[i] = rng.CoinThreshold(e.P)
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := int32(1); i <= g.n; i++ {
		deg[i] += deg[i-1]
	}
	g.adjStart = deg
	g.adjNode = make([]NodeID, 2*m)
	g.adjEdge = make([]int32, 2*m)
	g.adjProb = make([]float64, 2*m)
	fill := make([]int32, g.n)
	for i, e := range g.edges {
		pu := g.adjStart[e.U] + fill[e.U]
		g.adjNode[pu], g.adjEdge[pu], g.adjProb[pu] = e.V, int32(i), e.P
		fill[e.U]++
		pv := g.adjStart[e.V] + fill[e.V]
		g.adjNode[pv], g.adjEdge[pv], g.adjProb[pv] = e.U, int32(i), e.P
		fill[e.V]++
	}
	return g, nil
}

// FromEdges builds a graph with n nodes from a list of edges.
func FromEdges(n int, edges []Edge) (*Uncertain, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// NumNodes returns the number of nodes.
func (g *Uncertain) NumNodes() int { return int(g.n) }

// NumEdges returns the number of undirected edges.
func (g *Uncertain) NumEdges() int { return len(g.edges) }

// Edges returns the edge list, indexed by edge ID. Callers must not modify it.
func (g *Uncertain) Edges() []Edge { return g.edges }

// EdgeByID returns the edge with the given ID.
func (g *Uncertain) EdgeByID(id int32) Edge { return g.edges[id] }

// CoinThreshold returns the precomputed sampler threshold of an edge ID.
func (g *Uncertain) CoinThreshold(id int32) uint64 { return g.thresh[id] }

// Digest returns a stable 64-bit fingerprint of the graph: node count plus
// every edge's endpoints and coin threshold, folded in edge-ID order. Two
// graphs with equal digests define identical possible-world streams under
// equal seeds (edge coins are functions of edge ID and threshold alone), so
// persistent world caches key their contents on (Digest, seed) to verify
// that a cache directory belongs to the graph being served. Computed once,
// lazily; safe for concurrent use.
func (g *Uncertain) Digest() uint64 {
	g.digestOnce.Do(func() {
		h := rng.Mix64(0x75cd9f3c0a11ed00 ^ uint64(g.n))
		for id := range g.edges {
			e := &g.edges[id]
			h = rng.Mix64(h ^ (uint64(uint32(e.U)) | uint64(uint32(e.V))<<32))
			h = rng.Mix64(h + g.thresh[id])
		}
		if h == 0 {
			h = 1 // 0 is the "no digest" sentinel in cache headers
		}
		g.digest = h
	})
	return g.digest
}

// Degree returns the number of incident edges of u.
func (g *Uncertain) Degree(u NodeID) int {
	return int(g.adjStart[u+1] - g.adjStart[u])
}

// Neighbors calls fn for every edge incident to u, passing the neighbor, the
// edge ID and the edge probability. It avoids allocation on the hot path.
func (g *Uncertain) Neighbors(u NodeID, fn func(v NodeID, edgeID int32, p float64)) {
	for i := g.adjStart[u]; i < g.adjStart[u+1]; i++ {
		fn(g.adjNode[i], g.adjEdge[i], g.adjProb[i])
	}
}

// NeighborSlices returns the raw CSR slices for node u: neighbor IDs, edge
// IDs and probabilities. Callers must not modify them. This is the zero-cost
// access path used by the samplers.
func (g *Uncertain) NeighborSlices(u NodeID) (nodes []NodeID, edgeIDs []int32, probs []float64) {
	lo, hi := g.adjStart[u], g.adjStart[u+1]
	return g.adjNode[lo:hi], g.adjEdge[lo:hi], g.adjProb[lo:hi]
}

// HasEdge reports whether {u, v} is an edge and returns its probability.
func (g *Uncertain) HasEdge(u, v NodeID) (float64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	// Scan the smaller adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for i := g.adjStart[u]; i < g.adjStart[u+1]; i++ {
		if g.adjNode[i] == v {
			return g.adjProb[i], true
		}
	}
	return 0, false
}

// ExpectedDegree returns the sum of incident edge probabilities of u,
// i.e. the expected degree of u in a random possible world.
func (g *Uncertain) ExpectedDegree(u NodeID) float64 {
	s := 0.0
	for i := g.adjStart[u]; i < g.adjStart[u+1]; i++ {
		s += g.adjProb[i]
	}
	return s
}
