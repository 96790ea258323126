package gio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ucgraph/internal/graph"
)

func TestReadGraphBasic(t *testing.T) {
	in := `# comment
0 1 0.5

1 2 0.75
2 3 1
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges, want 4, 3", g.NumNodes(), g.NumEdges())
	}
	if p, ok := g.HasEdge(1, 2); !ok || p != 0.75 {
		t.Fatalf("edge {1,2} = %v,%v", p, ok)
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := map[string]string{
		"missing field":   "0 1\n",
		"extra field":     "0 1 0.5 9\n",
		"bad node":        "x 1 0.5\n",
		"bad node 2":      "0 y 0.5\n",
		"bad probability": "0 1 zz\n",
		"p out of range":  "0 1 1.5\n",
		"self loop":       "3 3 0.5\n",
	}
	for name, in := range cases {
		if _, err := ReadGraph(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error for %q", name, in)
		}
	}
}

// TestReadGraphRejectsOverflowingIDs: a node id whose node count plus one
// overflows an int32 is an error naming the id and the line, not a panic
// in the builder's allocation or a "no nodes" graph.
func TestReadGraphRejectsOverflowingIDs(t *testing.T) {
	for _, id := range []string{"2147483646", "2147483647"} {
		in := "# one edge\n0 " + id + " 0.5\n"
		_, err := ReadGraph(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), id) {
			t.Errorf("ReadGraph(%q) error %v, want one naming line 2 and id %s", in, err, id)
		}
	}
	// The largest id still accepted (the builder allocates on Build only).
	b := graph.NewBuilder(0)
	if err := b.AddEdge(0, 2147483645, 0.5); err != nil || b.NumNodes() != 2147483646 {
		t.Fatalf("AddEdge(0, 2147483645): %v, %d nodes", err, b.NumNodes())
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.25},
		{U: 3, V: 4, P: 0.123456789}, {U: 0, V: 4, P: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %d/%d -> %d/%d",
			g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}
	for _, e := range g.Edges() {
		p, ok := g2.HasEdge(e.U, e.V)
		if !ok || p != e.P {
			t.Fatalf("edge {%d,%d}: got %v,%v want %v,true", e.U, e.V, p, ok, e.P)
		}
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Fatalf("loaded %d edges, want 2", g2.NumEdges())
	}
}

func TestLoadGraphMissingFile(t *testing.T) {
	if _, err := LoadGraph(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("loading a missing file must fail")
	}
}

func TestGroundTruthRoundTrip(t *testing.T) {
	complexes := [][]graph.NodeID{
		{3, 1, 2},
		{7},
		{10, 11, 12, 13},
	}
	var buf bytes.Buffer
	if err := WriteGroundTruth(&buf, complexes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGroundTruth(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("round trip produced %d complexes, want 3", len(got))
	}
	// Writer sorts members.
	want := [][]graph.NodeID{{1, 2, 3}, {7}, {10, 11, 12, 13}}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("complex %d: %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("complex %d: %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestGroundTruthComments(t *testing.T) {
	in := "# complexes\n1 2 3\n\n# another\n4 5\n"
	got, err := ReadGroundTruth(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 2 {
		t.Fatalf("parsed %v", got)
	}
}

func TestGroundTruthBadID(t *testing.T) {
	if _, err := ReadGroundTruth(strings.NewReader("1 two 3\n")); err == nil {
		t.Fatal("bad member id accepted")
	}
}

func TestGroundTruthFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gt.txt")
	if err := SaveGroundTruth(path, [][]graph.NodeID{{1, 2}, {3}}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGroundTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d complexes, want 2", len(got))
	}
}
