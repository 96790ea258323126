package gio

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The fuzz targets below parse arbitrary bytes. No input may panic, and
// whatever parses must survive a write and a re-read unchanged. Their
// checked-in corpora (testdata/fuzz) replay in every plain `go test`;
// `make fuzz` runs them past it.

// FuzzReadGraph: a parsed graph survives WriteGraph -> ReadGraph with the
// same node count and the same edges. An input naming an id in
// (2^16, MaxInt32-2] is skipped: the id is valid, and the builder
// allocates memory in proportion to it. Ids of MaxInt32-1 and above still
// run, because the parser must reject them.
func FuzzReadGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tok := range strings.Fields(string(data)) {
			if id, err := strconv.ParseInt(tok, 10, 32); err == nil && id > 1<<16 && id <= math.MaxInt32-2 {
				t.Skip("names an id the harness does not allocate for")
			}
		}
		g, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadGraph(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the written graph: %v\n%s", err, buf.Bytes())
		}
		if back.NumNodes() != g.NumNodes() || !slices.Equal(back.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: %d nodes %v, was %d nodes %v",
				back.NumNodes(), back.Edges(), g.NumNodes(), g.Edges())
		}
	})
}

// FuzzReadClusters: a clustering parsed for a graph of n nodes survives
// WriteClusters -> ReadClusters with the same centers and assignment.
func FuzzReadClusters(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		cl, err := ReadClusters(bytes.NewReader(data), int(n))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteClusters(&buf, cl); err != nil {
			t.Fatal(err)
		}
		back, err := ReadClusters(bytes.NewReader(buf.Bytes()), int(n))
		if err != nil {
			t.Fatalf("re-reading the written clustering: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(back.Centers, cl.Centers) || !slices.Equal(back.Assign, cl.Assign) {
			t.Fatalf("round trip changed the clustering: centers %v assign %v, was %v %v",
				back.Centers, back.Assign, cl.Centers, cl.Assign)
		}
	})
}

// FuzzReadGroundTruth: parsed complexes survive WriteGroundTruth ->
// ReadGroundTruth, each with its members sorted.
func FuzzReadGroundTruth(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		complexes, err := ReadGroundTruth(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteGroundTruth(&buf, complexes); err != nil {
			t.Fatal(err)
		}
		back, err := ReadGroundTruth(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the written complexes: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(complexes) {
			t.Fatalf("round trip read %d complexes, wrote %d", len(back), len(complexes))
		}
		for i, c := range complexes {
			if want := slices.Sorted(slices.Values(c)); !slices.Equal(back[i], want) {
				t.Fatalf("complex %d: read %v, want %v", i, back[i], want)
			}
		}
	})
}
