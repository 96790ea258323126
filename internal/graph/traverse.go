package graph

import (
	"container/heap"
	"math"
)

// BFSAll computes hop distances from src over all edges (ignoring
// probabilities, i.e. on the underlying deterministic topology).
// Unreachable nodes get distance -1.
func (g *Uncertain) BFSAll(src NodeID) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, g.n)
	queue = append(queue, src)
	// Index cursor instead of re-slicing the queue head: re-slicing keeps
	// the backing array alive anyway but defeats bounds-check elimination
	// and obscures the single-allocation behaviour (same idiom as
	// World.BFSWithin).
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := dist[u]
		for i := g.adjStart[u]; i < g.adjStart[u+1]; i++ {
			v := g.adjNode[i]
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Components labels the connected components of the underlying topology.
// It returns canonical labels (component id = smallest node in it is NOT
// guaranteed; labels are representatives) and the number of components.
func (g *Uncertain) Components() (labels []int32, count int) {
	uf := NewUnionFind(int(g.n))
	for _, e := range g.edges {
		uf.Union(e.U, e.V)
	}
	labels = make([]int32, g.n)
	uf.Labels(labels)
	// Labels are union-find representatives, i.e. node IDs in [0, n), so a
	// slice-backed marker counts them without the per-call map allocation
	// this hot path used to pay.
	seen := make([]bool, g.n)
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			count++
		}
	}
	return labels, count
}

// LargestComponent returns the node set of the largest connected component
// of the underlying topology, sorted ascending.
func (g *Uncertain) LargestComponent() []NodeID {
	labels, _ := g.Components()
	counts := make([]int32, g.n)
	for _, l := range labels {
		counts[l]++
	}
	// Scanning labels in increasing order makes the tie-break (smallest
	// representative wins) deterministic, unlike the map iteration this
	// replaced.
	var best int32 = -1
	var bestCount int32
	for l := int32(0); l < g.n; l++ {
		if counts[l] > bestCount {
			best, bestCount = l, counts[l]
		}
	}
	nodes := make([]NodeID, 0, bestCount)
	for u := int32(0); u < g.n; u++ {
		if labels[u] == best {
			nodes = append(nodes, u)
		}
	}
	return nodes
}

// InducedSubgraph returns the subgraph induced by nodes, together with the
// mapping from new node IDs to original IDs (newToOld). Nodes must be
// distinct and in range; the new graph numbers them 0..len(nodes)-1 in the
// given order.
func (g *Uncertain) InducedSubgraph(nodes []NodeID) (*Uncertain, []NodeID, error) {
	oldToNew := make(map[NodeID]NodeID, len(nodes))
	newToOld := make([]NodeID, len(nodes))
	for i, u := range nodes {
		oldToNew[u] = NodeID(i)
		newToOld[i] = u
	}
	b := NewBuilder(len(nodes))
	for _, e := range g.edges {
		nu, ok1 := oldToNew[e.U]
		nv, ok2 := oldToNew[e.V]
		if ok1 && ok2 {
			if err := b.AddEdge(nu, nv, e.P); err != nil {
				return nil, nil, err
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, newToOld, nil
}

// heapItem is a (node, distance) pair in the Dijkstra priority queue.
type heapItem struct {
	node NodeID
	dist float64
}

type distHeap []heapItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Dijkstra computes single-source shortest path distances from src using the
// edge weights w(e) = -ln(p(e)). This is the distance transform d(u,v) =
// ln(1/Pr-path(u~v)) under which the most probable path is the shortest
// path; it is the metric the GMM baseline clusters against (Section 5.1).
// Unreachable nodes get +Inf.
func (g *Uncertain) Dijkstra(src NodeID) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &distHeap{{node: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		u := it.node
		if it.dist > dist[u] {
			continue // stale entry
		}
		for i := g.adjStart[u]; i < g.adjStart[u+1]; i++ {
			v := g.adjNode[i]
			w := -math.Log(g.adjProb[i])
			if nd := it.dist + w; nd < dist[v] {
				dist[v] = nd
				heap.Push(h, heapItem{node: v, dist: nd})
			}
		}
	}
	return dist
}
