package shard

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedRequests covers every kind plus the optional-field corners, so
// the checked-in corpus exercises each decoder branch from the start.
func fuzzSeedRequests() []*TallyRequest {
	return []*TallyRequest{
		{Graph: "g", Kind: KindConnected, Centers: []int32{0, 3, 9}, Ranges: []Range{{Lo: 0, Hi: 64}}},
		{Graph: "g", Kind: KindWithin, Depth: 2, Centers: []int32{1}, Ranges: []Range{{Lo: 64, Hi: 128}, {Lo: 256, Hi: 320}}},
		{Graph: "ring", Kind: KindPair, U: 4, V: 17, Ranges: []Range{{Lo: 0, Hi: 100}}},
		{Graph: "g", Kind: KindDistances, Source: 7, Ranges: []Range{{Lo: 0, Hi: 32}}},
		{Graph: "g", Kind: KindSpread, Seeds: []int32{2, 5}, Ranges: []Range{{Lo: 0, Hi: 16}}},
		{Graph: "g", Kind: KindMarginal, Seeds: []int32{2}, Candidates: []int32{3, 4}, Ranges: []Range{{Lo: 0, Hi: 16}}},
		{Graph: "g", Kind: KindMarginal, Seeds: []int32{2}, Ranges: []Range{{Lo: 0, Hi: 16}}},
		{Graph: "g", Kind: KindReliability, Seeds: []int32{0, 1, 2}, Ranges: []Range{{Lo: 0, Hi: 8}}},
		{Graph: "g", Kind: KindReliability, Ranges: []Range{{Lo: 0, Hi: 8}}},
		{Graph: "g", Kind: KindComponents, Ranges: []Range{{Lo: 0, Hi: 8}}},
		{Graph: "g", Kind: KindLargest, Ranges: []Range{{Lo: 8, Hi: 24}}},
	}
}

// FuzzWireRequest checks the request codec round-trip: any body the
// decoder accepts must re-encode to a body that decodes to the same
// request. (Byte-equality of the re-encoding is NOT required — the decoder
// tolerates nonzero reserved bytes, which the canonical encoder zeroes.)
func FuzzWireRequest(f *testing.F) {
	for _, req := range fuzzSeedRequests() {
		body, err := encodeRequestBody(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeRequestBody(b)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		re, err := encodeRequestBody(nil, req)
		if err != nil {
			t.Fatalf("decoded request failed to re-encode: %v", err)
		}
		req2, err := decodeRequestBody(re)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Fatalf("round-trip mismatch:\n  first:  %+v\n  second: %+v", req, req2)
		}
	})
}

// FuzzWireFrame feeds arbitrary bytes through the frame reader and the
// per-type body decoders: no input may panic or over-allocate, and any
// accepted response body must survive a re-encode round-trip.
func FuzzWireFrame(f *testing.F) {
	for _, req := range fuzzSeedRequests() {
		frame, err := encodeRequestFrame(7, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// The reserved flag bit 0, as a worker that kept a tally cache sets it.
	f.Add(setFlag(encodeResponseFrame(3, KindConnected, &TallyResponse{
		Worlds: 64, Counts: [][]int32{{1, 2, 3}, {4, 5, 6}},
	}), legacyCachedFlag))
	f.Add(encodeResponseFrame(4, KindPair, &TallyResponse{Worlds: 10, Count: 9}))
	f.Add(encodeResponseFrame(5, KindSpread, &TallyResponse{Worlds: 8, Totals: []int64{40}}))
	f.Add(encodeResponseFrame(6, KindDistances, &TallyResponse{
		Worlds:      4,
		Hist:        [][]DistCount{{{D: 1, N: 3}, {D: 2, N: 1}}},
		Unreachable: []int64{0},
	}))
	f.Add(encodeErrorFrame(9, errCodeUnknownGraph, "no such graph"))
	f.Add(encodeCancelFrame(11))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, body, err := readFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		switch h.ftype {
		case frameReq:
			if _, err := decodeRequestBody(body); err != nil {
				return
			}
		case frameResp:
			kind, resp, err := decodeResponseBody(body)
			if err != nil {
				return
			}
			re := encodeResponseFrame(h.id, kind, resp)
			h2, body2, err := readFrame(bytes.NewReader(re))
			if err != nil {
				t.Fatalf("re-encoded response frame unreadable: %v", err)
			}
			kind2, resp2, err := decodeResponseBody(body2)
			if err != nil {
				t.Fatalf("re-encoded response body undecodable: %v", err)
			}
			if kind2 != kind || h2.id != h.id {
				t.Fatalf("round-trip changed identity: kind %q->%q id %d->%d", kind, kind2, h.id, h2.id)
			}
			if !reflect.DeepEqual(resp, resp2) {
				t.Fatalf("response round-trip mismatch:\n  first:  %+v\n  second: %+v", resp, resp2)
			}
		case frameErr:
			decodeErrorBody(body)
		}
	})
}
