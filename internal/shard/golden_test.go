package shard

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestWireFramesGolden pins the wire bytes: the REQ frame of every fuzz
// seed request and one RESP frame per payload shape (SHARD_PROTOCOL §6)
// must encode exactly as recorded in testdata/wire_frames.golden. Rerun
// with -update-golden only for a deliberate, versioned protocol change.
func TestWireFramesGolden(t *testing.T) {
	var got bytes.Buffer
	line := func(label string, frame []byte) { fmt.Fprintf(&got, "%s %x\n", label, frame) }
	for i, req := range fuzzSeedRequests() {
		frame, err := encodeRequestFrame(uint64(100+i), req)
		if err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("REQ/%02d/%s", i, req.Kind), frame)
	}
	line("RESP/counts", encodeResponseFrame(3, KindWithin, true, &TallyResponse{
		Worlds: 64, Counts: [][]int32{{64, 2, 3}, {4, 64, 6}},
	}))
	line("RESP/scalar", encodeResponseFrame(4, KindPair, false, &TallyResponse{Worlds: 100, Count: 77}))
	line("RESP/totals", encodeResponseFrame(5, KindMarginal, false, &TallyResponse{Worlds: 16, Totals: []int64{40, 0, 1 << 40}}))
	line("RESP/histograms", encodeResponseFrame(6, KindDistances, false, &TallyResponse{
		Worlds:      4,
		Hist:        [][]DistCount{{{D: 0, N: 4}}, {{D: 1, N: 3}, {D: 2, N: 1}}, nil},
		Unreachable: []int64{0, 0, 4},
	}))
	path := filepath.Join("testdata", "wire_frames.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("wire bytes changed — a protocol change needs a new version (SHARD_PROTOCOL §11).\ngolden:\n%s\ngot:\n%s", want, got.Bytes())
	}
}

// TestWorkedExampleBytes checks the §12 worked example of
// docs/SHARD_PROTOCOL.md against the codec: the hex dumps of the REQ,
// RESP, ERR and CANCEL frames there must be exactly what the encoders
// produce for the exchange the section describes.
func TestWorkedExampleBytes(t *testing.T) {
	dumps := workedExampleDumps(t)
	req, err := encodeRequestFrame(7, &TallyRequest{
		Graph: "collins", Kind: KindConnected, Centers: []int32{4, 17}, Ranges: []Range{{Lo: 0, Hi: 256}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{
		req,
		encodeResponseFrame(7, KindConnected, false, &TallyResponse{
			Worlds: 256, Counts: [][]int32{{256, 231, 198}, {256, 244, 210}},
		}),
		encodeErrorFrame(9, errCodeUnknownGraph, `unknown graph "collins"`),
		encodeCancelFrame(7),
	}
	if len(dumps) != len(want) {
		t.Fatalf("§12 has %d hex dumps, want %d (REQ, RESP, ERR, CANCEL)", len(dumps), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(dumps[i], w) {
			t.Errorf("§12 dump %d:\ndoc:   %x\ncodec: %x", i, dumps[i], w)
		}
	}
}

// workedExampleDumps parses the hex-dump code blocks of §12 of
// docs/SHARD_PROTOCOL.md ("0000  47 00 ..." lines), one byte slice per
// block, in document order.
func workedExampleDumps(t *testing.T) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "docs", "SHARD_PROTOCOL.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		dumps         [][]byte
		inSection, in bool
		cur           []byte
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, "## 12.")
			continue
		}
		if !inSection {
			continue
		}
		if strings.HasPrefix(line, "```") {
			if in && len(cur) > 0 {
				dumps = append(dumps, cur)
			}
			in, cur = !in, nil
			continue
		}
		if !in {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields[0]) != 4 {
			continue
		}
		for _, h := range fields[1:] {
			b, err := hex.DecodeString(h)
			if err != nil || len(b) != 1 {
				t.Fatalf("§12: bad hex byte %q in %q", h, line)
			}
			cur = append(cur, b[0])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return dumps
}
