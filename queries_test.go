package ucgraph

import (
	"context"
	"math"
	"testing"
)

func certainPath(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicKNN(t *testing.T) {
	g := certainPath(t, 7)
	dd := SampleDistances(g, 3, 1, 50)
	nb := dd.KNN(2, MedianDistance)
	if len(nb) != 2 {
		t.Fatalf("got %d neighbors", len(nb))
	}
	for _, x := range nb {
		if x.Node != 2 && x.Node != 4 {
			t.Fatalf("unexpected neighbor %d", x.Node)
		}
		if x.Distance != 1 {
			t.Fatalf("neighbor distance %d, want 1", x.Distance)
		}
	}
	// All measures run without error.
	for _, m := range []KNNMeasure{MedianDistance, MajorityDistance, ExpectedReliableDistance, ByReliability} {
		if got := dd.KNN(3, m); len(got) == 0 {
			t.Fatalf("measure %v returned nothing", m)
		}
	}
}

func TestPublicInfluence(t *testing.T) {
	// Star: hub is the best single seed.
	b := NewBuilder(5)
	for i := 1; i < 5; i++ {
		if err := b.AddEdge(0, NodeID(i), 0.8); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaximizeInfluence(g, 1, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("best seed = %d, want hub 0", res.Seeds[0])
	}
	spread := InfluenceSpread(g, res.Seeds, 1, 4000)
	if math.Abs(spread-res.Spread[0]) > 1e-9 {
		t.Fatalf("InfluenceSpread %v != greedy's record %v (same seed/worlds)", spread, res.Spread[0])
	}
	if math.Abs(spread-4.2) > 0.2 { // 1 + 4*0.8
		t.Fatalf("hub spread = %v, want ~4.2", spread)
	}
}

func TestPublicRepresentativeWorlds(t *testing.T) {
	// 0.4-clique: most probable world empty, representative world not.
	b := NewBuilder(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if err := b.AddEdge(NodeID(i), NodeID(j), 0.4); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mp, err := MostProbableWorld(g)
	if err != nil {
		t.Fatal(err)
	}
	if mp.NumEdges() != 0 {
		t.Fatalf("most probable world kept %d edges", mp.NumEdges())
	}
	rep, err := RepresentativeWorld(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumEdges() < 4 {
		t.Fatalf("representative world kept only %d edges", rep.NumEdges())
	}
	if DegreeDiscrepancy(g, rep) > DegreeDiscrepancy(g, mp) {
		t.Fatal("representative world has worse degree discrepancy than most probable")
	}
}

func TestPublicReliabilityStats(t *testing.T) {
	g := certainPath(t, 4)
	if got := ExpectedComponents(g, 1, 100); got != 1 {
		t.Fatalf("E[components] = %v, want 1 on a certain path", got)
	}
	if got := AllTerminalReliability(g, 1, 100); got != 1 {
		t.Fatalf("all-terminal = %v, want 1", got)
	}
	if got := SetReliability(g, []NodeID{0, 3}, 1, 100); got != 1 {
		t.Fatalf("SetReliability = %v, want 1", got)
	}
	// Uncertain case: two-node p=0.5.
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := ExpectedComponents(g2, 3, 30000)
	if math.Abs(got-1.5) > 0.03 {
		t.Fatalf("E[components] = %v, want ~1.5", got)
	}
}

func TestPublicAdaptiveEstimation(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 0.3); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, st, err := AdaptiveConnectionProbability(context.Background(), g, 0, 1,
		AdaptiveParams{Eps: 0.1, Delta: 0.01}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("adaptive estimation did not converge")
	}
	if math.Abs(p-0.3)/0.3 > 0.2 {
		t.Fatalf("adaptive estimate %v, want ~0.3", p)
	}
	if st.Worlds < 100 {
		t.Fatalf("suspiciously few worlds: %d", st.Worlds)
	}
}

func TestPublicConnectionProbabilityInterval(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 0.6); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, st, err := ConnectionProbabilityInterval(context.Background(), g, 0, 2,
		AdaptiveParams{Eps: 0.05, Delta: 0.05, MaxWorlds: 1 << 16}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.HalfWidth > 0.05 {
		t.Fatalf("interval did not close: %+v", st)
	}
	if math.Abs(p-0.48) > 0.05 {
		t.Fatalf("estimate %v, want 0.48 +- 0.05", p)
	}

	// The batched form tracks every node by default and reports each
	// refinement round through the callback.
	rounds := 0
	ests, st2, err := AdaptiveFromCenters(context.Background(), NewEstimator(g, 5),
		[]NodeID{0}, Unlimited, nil,
		AdaptiveParams{Eps: 0.05, Delta: 0.05, MaxWorlds: 1 << 16},
		func(AdaptiveSnapshot) error { rounds++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || !st2.Converged {
		t.Fatalf("no refinement rounds observed (%d) or unconverged: %+v", rounds, st2)
	}
	if math.Abs(ests[0][2]-0.48) > 0.05 {
		t.Fatalf("batched estimate %v, want 0.48 +- 0.05", ests[0][2])
	}
}
