package ucgraph_test

import (
	"context"
	"fmt"
	"sort"

	"ucgraph"
)

// Two certain triangles joined by nothing: the canonical deterministic
// clustering input for examples.
func twoTriangles() *ucgraph.Graph {
	b := ucgraph.NewBuilder(6)
	for c := 0; c < 2; c++ {
		base := ucgraph.NodeID(c * 3)
		b.AddEdge(base, base+1, 1)
		b.AddEdge(base+1, base+2, 1)
		b.AddEdge(base, base+2, 1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// printPartition renders a clustering as a canonical partition (clusters
// sorted by smallest member), independent of center randomization.
func printPartition(cl *ucgraph.Clustering) {
	clusters := cl.Clusters()
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	for _, members := range clusters {
		fmt.Println(members)
	}
}

func ExampleMCP() {
	g := twoTriangles()
	cl, _, err := ucgraph.MCP(g, 2, ucgraph.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	printPartition(cl)
	fmt.Printf("min-prob: %.1f\n", cl.MinProb())
	// Output:
	// [0 1 2]
	// [3 4 5]
	// min-prob: 1.0
}

func ExampleACP() {
	g := twoTriangles()
	cl, _, err := ucgraph.ACP(g, 2, ucgraph.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	printPartition(cl)
	fmt.Printf("avg-prob: %.1f\n", cl.AvgProb())
	// Output:
	// [0 1 2]
	// [3 4 5]
	// avg-prob: 1.0
}

func ExampleNewBuilder() {
	b := ucgraph.NewBuilder(3)
	b.AddEdge(0, 1, 0.9)
	b.AddEdge(1, 2, 0.5)
	if err := b.AddEdge(2, 2, 0.5); err != nil {
		fmt.Println("rejected:", err)
	}
	g, _ := b.Build()
	fmt.Println(g.NumNodes(), "nodes,", g.NumEdges(), "edges")
	// Output:
	// rejected: graph: self loop on node 2
	// 3 nodes, 2 edges
}

func ExampleConnectionProbability() {
	// On a graph of certain edges the connection probability is exactly 1.
	g := twoTriangles()
	same := ucgraph.ConnectionProbability(g, 0, 2, 1, 1000)
	cross := ucgraph.ConnectionProbability(g, 0, 5, 1, 1000)
	fmt.Printf("same triangle: %.1f, different triangles: %.1f\n", same, cross)
	// Output:
	// same triangle: 1.0, different triangles: 0.0
}

func ExampleMCL() {
	g := twoTriangles()
	res := ucgraph.MCL(g, ucgraph.MCLOptions{})
	fmt.Println("clusters:", res.Clustering.K())
	fmt.Println("converged:", res.Converged)
	// Output:
	// clusters: 2
	// converged: true
}

func ExampleKPT() {
	// All edge probabilities above 1/2: every pivot absorbs its whole
	// triangle, so pKwikCluster finds the two triangles.
	g := twoTriangles()
	cl := ucgraph.KPT(g, 7)
	fmt.Println("clusters:", cl.K())
	// Output:
	// clusters: 2
}

func ExampleSampleDistances() {
	b := ucgraph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(ucgraph.NodeID(i), ucgraph.NodeID(i+1), 1)
	}
	g, _ := b.Build()
	dd := ucgraph.SampleDistances(g, 0, 1, 100)
	for _, nb := range dd.KNN(2, ucgraph.MedianDistance) {
		fmt.Printf("node %d at median distance %d\n", nb.Node, nb.Distance)
	}
	// Output:
	// node 1 at median distance 1
	// node 2 at median distance 2
}

func ExampleAdaptiveConnectionProbability() {
	b := ucgraph.NewBuilder(2)
	b.AddEdge(0, 1, 0.8)
	g, _ := b.Build()
	// Relative error 10% with confidence 99%, no lower bound on Pr(0 ~ 1).
	p, st, err := ucgraph.AdaptiveConnectionProbability(context.Background(), g, 0, 1,
		ucgraph.AdaptiveParams{Eps: 0.1, Delta: 0.01}, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("converged=%v after %d worlds: Pr(0 ~ 1) = %.2f\n", st.Converged, st.Worlds, p)
	// Output:
	// converged=true after 1024 worlds: Pr(0 ~ 1) = 0.80
}

func ExampleMostProbableWorld() {
	b := ucgraph.NewBuilder(3)
	b.AddEdge(0, 1, 0.9)
	b.AddEdge(1, 2, 0.2)
	g, _ := b.Build()
	world, _ := ucgraph.MostProbableWorld(g)
	fmt.Println("edges kept:", world.NumEdges())
	// Output:
	// edges kept: 1
}

func ExampleSetReliability() {
	g := twoTriangles()
	fmt.Printf("within triangle: %.1f\n", ucgraph.SetReliability(g, []ucgraph.NodeID{0, 1, 2}, 1, 500))
	fmt.Printf("across triangles: %.1f\n", ucgraph.SetReliability(g, []ucgraph.NodeID{0, 3}, 1, 500))
	// Output:
	// within triangle: 1.0
	// across triangles: 0.0
}

func ExampleInfluenceSpread() {
	g := twoTriangles()
	// One seed reaches its own certain triangle: spread exactly 3.
	fmt.Printf("%.1f\n", ucgraph.InfluenceSpread(g, []ucgraph.NodeID{0}, 1, 200))
	// Two seeds in different triangles reach everything.
	fmt.Printf("%.1f\n", ucgraph.InfluenceSpread(g, []ucgraph.NodeID{0, 3}, 1, 200))
	// Output:
	// 3.0
	// 6.0
}

func ExampleMaximizeInfluence() {
	g := twoTriangles()
	res, _ := ucgraph.MaximizeInfluence(g, 2, 1, 200)
	fmt.Printf("spread after 2 seeds: %.1f\n", res.Spread[1])
	// Output:
	// spread after 2 seeds: 6.0
}
