package conn

import (
	"math"
	"testing"

	"ucgraph/internal/graph"
)

func TestStoppingRuleThreshold(t *testing.T) {
	// Known shape: Upsilon ~ 1 + 4(e-2)(1+eps)ln(2/delta)/eps^2.
	got := StoppingRuleThreshold(0.1, 0.05)
	want := 1 + 4*(math.E-2)*1.1*math.Log(40)/0.01
	if math.Abs(float64(got)-want) > 1.5 {
		t.Fatalf("threshold = %d, want ~%.0f", got, want)
	}
	// Tighter eps costs quadratically more.
	if StoppingRuleThreshold(0.05, 0.05) < 3*got {
		t.Fatal("halving eps should roughly quadruple the threshold")
	}
}

func TestStoppingRulePanics(t *testing.T) {
	for _, args := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for eps=%v delta=%v", args[0], args[1])
				}
			}()
			StoppingRuleThreshold(args[0], args[1])
		}()
	}
}

func TestAdaptivePairAccuracy(t *testing.T) {
	for _, p := range []float64{0.8, 0.4, 0.1} {
		g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, P: p}})
		if err != nil {
			t.Fatal(err)
		}
		mc := NewMonteCarlo(g, uint64(100*p))
		res := mc.AdaptivePair(0, 1, 0.1, 0.01, 0)
		if !res.Converged {
			t.Fatalf("p=%v: did not converge", p)
		}
		if math.Abs(res.P-p)/p > 0.2 { // eps=0.1 plus slack for delta
			t.Fatalf("p=%v: estimate %v outside relative error", p, res.P)
		}
	}
}

func TestAdaptivePairSampleCountScales(t *testing.T) {
	// The expected sample count is ~Upsilon/p: the p=0.05 pair should take
	// roughly 10x the samples of the p=0.5 pair.
	build := func(p float64) *MonteCarlo {
		g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, P: p}})
		if err != nil {
			t.Fatal(err)
		}
		return NewMonteCarlo(g, 7)
	}
	hi := build(0.5).AdaptivePair(0, 1, 0.2, 0.05, 0)
	lo := build(0.05).AdaptivePair(0, 1, 0.2, 0.05, 0)
	if !hi.Converged || !lo.Converged {
		t.Fatal("adaptive estimation did not converge")
	}
	ratio := float64(lo.Samples) / float64(hi.Samples)
	if ratio < 4 || ratio > 30 {
		t.Fatalf("sample ratio %v, want ~10 (adaptive cost must track 1/p)", ratio)
	}
}

func TestAdaptivePairCapsOnDisconnected(t *testing.T) {
	// Nodes in different components never connect: the stopping rule can't
	// fire, so the cap applies and Converged is false with P = 0.
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, P: 0.9}, {U: 2, V: 3, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(g, 3)
	res := mc.AdaptivePair(0, 2, 0.1, 0.01, 2000)
	if res.Converged {
		t.Fatal("converged on a disconnected pair")
	}
	if res.P != 0 || res.Samples != 2000 {
		t.Fatalf("result = %+v, want P=0 after 2000 samples", res)
	}
}

func TestAdaptivePairSelfIsImmediate(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(g, 5)
	res := mc.AdaptivePair(0, 0, 0.1, 0.01, 0)
	if !res.Converged {
		t.Fatal("self pair did not converge")
	}
	if math.Abs(res.P-1) > 0.15 {
		t.Fatalf("Pr(u ~ u) estimated as %v", res.P)
	}
}
