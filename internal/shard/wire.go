// Package shard turns the single-process world store into the backend of a
// multi-machine deployment: shard workers own a worldstore.Store each and
// serve raw integer tallies over assigned world-index ranges, and a
// coordinator implements the estimator surface (the conn.ContextOracle the
// clustering drivers consume, plus the k-NN distance, influence-spread and
// network-reliability tallies) by scattering disjoint block-aligned range
// requests to N workers, gathering the per-range integer tallies and
// summing them.
//
// The whole design leans on one property of the world stream: every world
// is a pure function of (seed, index), and every estimator in this
// repository reduces to integer tallies summed over independently sampled
// worlds. Integer addition is associative and commutative, so any disjoint
// cover of a world range — one worker, four workers, a retried re-scatter
// after a worker died, a hedged duplicate suppressed by the range-ownership
// bookkeeping — merges to exactly the same totals, and therefore to
// bit-identical estimates. The coordinator never approximates: a failed
// worker's ranges are re-scattered and counted exactly once, a cancelled
// query returns an error and no estimate, and with no workers configured
// every query falls back to the in-process estimator over the same
// (graph, seed) stream.
//
// Tallies travel over the v2 stream (see docs/SHARD_PROTOCOL.md for the
// spec): length-prefixed little-endian binary frames multiplexed over one
// long-lived connection per worker, established by upgrading POST
// /shard/v2/stream. A scatter round is one frame write + one frame read
// per worker; tallies travel as flat int32/int64 payloads with no
// per-round connection or header cost. GET /shard/v1/ping (JSON) is the
// identity/health probe.
//
// Workers are stateless with respect to the partitioning — any worker can
// serve any range of the stream it owns a store for — which is what makes
// retry-by-re-scatter, hedging and elastic membership safe, and deployment
// trivial (every worker process is started the same way, with the same
// graphs and seed).
package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Wire paths of the worker protocol.
const (
	PathPing   = "/shard/v1/ping"
	PathStream = "/shard/v2/stream"
)

// StreamProtocol is the value of the Upgrade header that switches a
// POST /shard/v2/stream request into the binary frame protocol.
const StreamProtocol = "ucgraph-shard/2"

// Range is a half-open interval [Lo, Hi) of world indices of the seeded
// stream.
type Range struct {
	Lo int
	Hi int
}

// Worlds returns the number of worlds the range covers.
func (r Range) Worlds() int { return r.Hi - r.Lo }

// TallyRequest is one tally computation: one Kind of integer tally for
// graph Graph over every world in Ranges. Which other fields apply depends
// on Kind (see the Kind constants). It is the payload of a v2 REQ frame.
type TallyRequest struct {
	Graph      string
	Kind       string
	Ranges     []Range
	Centers    []int32 // connected, within
	Depth      int     // within
	U          int32   // pair
	V          int32   // pair
	Source     int32   // distances
	Seeds      []int32 // spread, marginal, reliability
	Candidates []int32 // marginal; empty = all nodes
}

// DistCount is one histogram bucket of a distance tally: N worlds at hop
// distance D.
type DistCount struct {
	D int32
	N int64
}

// TallyResponse carries the raw integer tallies of one request. All
// payloads are plain counts over the requested worlds, so responses from
// disjoint ranges merge by field-wise addition, in any order.
type TallyResponse struct {
	// Worlds is the total number of worlds tallied (the sum of the
	// request's range sizes) — the coordinator cross-checks it against
	// what it asked for.
	Worlds int
	// Counts is the per-center, per-node world counts of KindConnected
	// and KindWithin: Counts[j][u] counts worlds where node u is
	// (depth-)connected to Centers[j].
	Counts [][]int32
	// Count is the scalar tally of KindPair.
	Count int64
	// Totals is the per-candidate tally of KindMarginal (aligned with
	// Candidates) and the single-element tally of KindSpread,
	// KindReliability, KindComponents and KindLargest.
	Totals []int64
	// Hist and Unreachable are the per-node distance histograms and
	// unreachable-world counts of KindDistances. Hist[u] buckets are
	// sorted by distance.
	Hist        [][]DistCount
	Unreachable []int64
}

// PingGraph describes one graph a worker serves, so the coordinator can
// verify both sides talk about the same world stream before trusting the
// worker's tallies.
type PingGraph struct {
	Name        string `json:"name"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Seed        uint64 `json:"seed"`
	BlockWorlds int    `json:"block_worlds"`
	Worlds      int    `json:"worlds"`
}

// PingResponse is the body of GET /shard/v1/ping.
type PingResponse struct {
	Graphs []PingGraph `json:"graphs"`
}

// errorResponse is the JSON error body of a failed worker HTTP request.
type errorResponse struct {
	Error string `json:"error"`
}

// ---- v2 binary frame codec ----------------------------------------------
//
// Everything below implements the frame layout specified (with byte
// offsets and a worked hex example) in docs/SHARD_PROTOCOL.md. All
// multi-byte integers are little-endian. A frame is
//
//	u32 length | u8 version | u8 type | u16 flags | u64 id | body
//
// where length counts every byte after the length field itself (so a
// frame occupies 4+length bytes and the body length-12).

// wireVersion is the protocol version byte of every v2 frame.
const wireVersion = 2

// Frame types.
const (
	frameReq    = 1 // coordinator -> worker: a TallyRequest
	frameResp   = 2 // worker -> coordinator: the TallyResponse
	frameErr    = 3 // worker -> coordinator: the request failed
	frameCancel = 4 // coordinator -> worker: abandon the request id
)

// Frame flags.
const (
	// flagCached marks a RESP frame whose every range was served from the
	// worker's tally cache (no world was recomputed).
	flagCached = 1 << 0
	// flagChecksum marks a frame carrying a CRC32-C (Castagnoli) trailer:
	// the last 4 bytes of the body are the little-endian checksum of every
	// body byte before them. Flag-gated for version compat — the worker
	// advertises support in its 101 upgrade response and each side seals
	// frames only for peers that negotiated it, so old and new binaries
	// interoperate mid-rollout.
	flagChecksum = 1 << 1
	// flagTrace marks a frame carrying trace sections, negotiated exactly
	// like flagChecksum (the worker advertises X-Ucgraph-Trace on its 101
	// upgrade response) so mixed fleets interoperate. On a REQ the body
	// ends with a 16-byte trace ref (trace ID + parent span ID); on a RESP
	// it ends with a fixed worker-annotation section (timing, cache and
	// world-store tier attribution). Both sections sit BEFORE the checksum
	// trailer (sealFrame runs last, so the CRC covers them) and AFTER the
	// canonical body — the canonical request bytes double as worker cache
	// keys and must stay byte-identical whether or not a query is traced:
	// tracing observes, never alters.
	flagTrace = 1 << 2
)

// Error frame codes.
const (
	errCodeBadRequest   = 1 // malformed or out-of-range request
	errCodeUnknownGraph = 2 // worker does not serve the named graph
	errCodeCanceled     = 3 // the request's context was cancelled
	errCodeInternal     = 4 // anything else
	errCodeIntegrity    = 5 // frame failed its CRC32-C check
)

// ChecksumAlgorithm is the value of the checksum-negotiation header
// (X-Ucgraph-Checksum) the worker sends on its 101 upgrade response; a
// coordinator seeing it seals REQ frames, and the worker mirrors the seal
// on each response.
const ChecksumAlgorithm = "crc32c"

// TraceVersion is the value of the trace-negotiation header
// (X-Ucgraph-Trace) the worker sends on its 101 upgrade response. A
// coordinator seeing it may set flagTrace on REQ frames of traced
// queries; the worker mirrors the flag on each such response, attaching
// its annotation section.
const TraceVersion = "1"

// wireCRC is the Castagnoli table — the same polynomial the world store's
// disk tier uses, closing the one unprotected hop (the network) between
// checksummed storage and the merge step.
var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// Wire limits. Decoders reject frames past these bounds before allocating,
// so a corrupt or adversarial peer cannot make either side allocate
// unbounded memory.
const (
	maxFrameLen  = 1 << 28 // 256 MiB: > any tally payload this repo can produce
	maxWireName  = 1 << 10 // graph names
	maxWireNodes = 1 << 26 // node-ID lists (centers/seeds/candidates)
	maxWireItems = 1 << 26 // ranges, histogram buckets, count rows
)

// frameHeader is the fixed 12-byte header following the length prefix.
type frameHeader struct {
	ftype byte
	flags uint16
	id    uint64
}

// appendHeader reserves the length prefix and writes the fixed header;
// finishFrame back-fills the length.
func appendHeader(buf []byte, ftype byte, flags uint16, id uint64) []byte {
	buf = append(buf, 0, 0, 0, 0) // length, filled by finishFrame
	buf = append(buf, wireVersion, ftype)
	buf = binary.LittleEndian.AppendUint16(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return buf
}

// finishFrame back-fills the length prefix of the frame starting at off.
func finishFrame(buf []byte, off int) []byte {
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(buf)-off-4))
	return buf
}

func appendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func appendI32(buf []byte, v int32) []byte  { return binary.LittleEndian.AppendUint32(buf, uint32(v)) }
func appendI64(buf []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(buf, uint64(v)) }
func appendNodes(buf []byte, vs []int32) []byte {
	buf = appendU32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = appendI32(buf, v)
	}
	return buf
}

// encodeRequestBody encodes req in the canonical v2 layout (without the
// frame header). The canonical bytes double as the worker-side tally-cache
// key, which is why the layout is fixed rather than field-tagged.
func encodeRequestBody(buf []byte, req *TallyRequest) ([]byte, error) {
	k := kindNamed(req.Kind)
	if k == nil {
		return nil, fmt.Errorf("shard: unknown tally kind %q", req.Kind)
	}
	if len(req.Graph) > maxWireName {
		return nil, fmt.Errorf("shard: graph name longer than %d bytes", maxWireName)
	}
	buf = append(buf, k.code, 0)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Graph)))
	buf = append(buf, req.Graph...)
	buf = appendI32(buf, int32(req.Depth))
	buf = appendI32(buf, req.U)
	buf = appendI32(buf, req.V)
	buf = appendI32(buf, req.Source)
	buf = appendNodes(buf, req.Centers)
	buf = appendNodes(buf, req.Seeds)
	buf = appendNodes(buf, req.Candidates)
	buf = appendU32(buf, uint32(len(req.Ranges)))
	for _, rg := range req.Ranges {
		if rg.Lo < 0 || rg.Hi < 0 || rg.Lo > math.MaxUint32 || rg.Hi > math.MaxUint32 {
			return nil, fmt.Errorf("shard: range [%d, %d) not encodable", rg.Lo, rg.Hi)
		}
		buf = appendU32(buf, uint32(rg.Lo))
		buf = appendU32(buf, uint32(rg.Hi))
	}
	return buf, nil
}

// encodeRequestFrame encodes a full REQ frame.
func encodeRequestFrame(id uint64, req *TallyRequest) ([]byte, error) {
	buf := appendHeader(nil, frameReq, 0, id)
	buf, err := encodeRequestBody(buf, req)
	if err != nil {
		return nil, err
	}
	return finishFrame(buf, 0), nil
}

// encodeResponseFrame encodes a RESP frame for a request of the given
// (registered) kind. cached sets flagCached.
func encodeResponseFrame(id uint64, kind string, cached bool, resp *TallyResponse) []byte {
	var flags uint16
	if cached {
		flags |= flagCached
	}
	k := kindNamed(kind)
	buf := appendHeader(nil, frameResp, flags, id)
	buf = append(buf, k.code, 0, 0, 0)
	buf = appendU32(buf, uint32(resp.Worlds))
	return finishFrame(k.shape.appendPayload(buf, resp), 0)
}

// encodeErrorFrame encodes an ERR frame.
func encodeErrorFrame(id uint64, code uint16, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	buf := appendHeader(nil, frameErr, 0, id)
	buf = binary.LittleEndian.AppendUint16(buf, code)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	return finishFrame(buf, 0)
}

// encodeCancelFrame encodes a CANCEL frame (empty body).
func encodeCancelFrame(id uint64) []byte {
	return finishFrame(appendHeader(nil, frameCancel, 0, id), 0)
}

// sealFrame appends a CRC32-C trailer to a finished frame and sets
// flagChecksum, when sum is true; otherwise it returns the frame
// untouched. Sealing happens after encoding so every encoder keeps its
// checksum-free signature (and the canonical request bytes used as cache
// keys stay trailer-free on both sides).
func sealFrame(frame []byte, sum bool) []byte {
	if !sum {
		return frame
	}
	frame = appendU32(frame, crc32.Checksum(frame[16:], wireCRC))
	flags := binary.LittleEndian.Uint16(frame[6:8])
	binary.LittleEndian.PutUint16(frame[6:8], flags|flagChecksum)
	return finishFrame(frame, 0)
}

// verifyBody checks and strips the CRC32-C trailer of a frame body when
// the header carries flagChecksum; bodies without the flag pass through
// (the peer did not negotiate checksums). A mismatch is the wire-level
// bit-rot signal: the caller must reject the frame — never decode, never
// merge.
func verifyBody(h frameHeader, body []byte) ([]byte, error) {
	if h.flags&flagChecksum == 0 {
		return body, nil
	}
	if len(body) < 4 {
		return nil, fmt.Errorf("shard: checksummed frame body too short (%d bytes)", len(body))
	}
	payload, trailer := body[:len(body)-4], body[len(body)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(payload, wireCRC); got != want {
		return nil, fmt.Errorf("shard: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// readFrame reads one length-prefixed frame from r, returning the header
// and body. It validates the version and length bound before allocating
// the body.
func readFrame(r io.Reader) (frameHeader, []byte, error) {
	var fixed [16]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return frameHeader{}, nil, err
	}
	length := binary.LittleEndian.Uint32(fixed[0:4])
	if length < 12 || length > maxFrameLen {
		return frameHeader{}, nil, fmt.Errorf("shard: frame length %d out of bounds", length)
	}
	if fixed[4] != wireVersion {
		return frameHeader{}, nil, fmt.Errorf("shard: unsupported wire version %d (want %d)", fixed[4], wireVersion)
	}
	h := frameHeader{
		ftype: fixed[5],
		flags: binary.LittleEndian.Uint16(fixed[6:8]),
		id:    binary.LittleEndian.Uint64(fixed[8:16]),
	}
	body := make([]byte, length-12)
	if _, err := io.ReadFull(r, body); err != nil {
		return frameHeader{}, nil, err
	}
	return h, body, nil
}

// wireReader is a bounds-checked cursor over a frame body.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail("shard: truncated frame body (want %d bytes at offset %d of %d)", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) i32() int32 { return int32(r.u32()) }

func (r *wireReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// count reads a u32 item count and bounds-checks it against both max and
// the bytes remaining (at least per bytes each), so a corrupt count cannot
// trigger a huge allocation.
func (r *wireReader) count(max, per int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n > max || n*per > len(r.buf)-r.off {
		r.fail("shard: frame item count %d out of bounds", n)
		return 0
	}
	return n
}

func (r *wireReader) nodes() []int32 {
	n := r.count(maxWireNodes, 4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.i32()
	}
	return out
}

func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("shard: %d trailing bytes after frame body", len(r.buf)-r.off)
	}
	return nil
}

// decodeRequestBody parses a canonical v2 request body.
func decodeRequestBody(body []byte) (*TallyRequest, error) {
	r := &wireReader{buf: body}
	code := r.u8()
	r.u8() // reserved
	k := kindCoded(code)
	if k == nil {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("shard: unknown wire kind code %d", code)
	}
	nameLen := int(r.u16())
	if nameLen > maxWireName {
		return nil, fmt.Errorf("shard: graph name length %d out of bounds", nameLen)
	}
	name := string(r.take(nameLen))
	req := &TallyRequest{Graph: name, Kind: k.name}
	req.Depth = int(r.i32())
	req.U = r.i32()
	req.V = r.i32()
	req.Source = r.i32()
	req.Centers = r.nodes()
	req.Seeds = r.nodes()
	req.Candidates = r.nodes()
	nr := r.count(maxWireItems, 8)
	for i := 0; i < nr; i++ {
		lo, hi := r.u32(), r.u32()
		req.Ranges = append(req.Ranges, Range{Lo: int(lo), Hi: int(hi)})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeResponseBody parses a v2 response body. The kind is read from the
// body itself (and cross-checked by the caller against the request).
func decodeResponseBody(body []byte) (kind string, resp *TallyResponse, err error) {
	r := &wireReader{buf: body}
	code := r.u8()
	r.take(3) // reserved
	k := kindCoded(code)
	if k == nil {
		if r.err != nil {
			return "", nil, r.err
		}
		return "", nil, fmt.Errorf("shard: unknown wire kind code %d in response", code)
	}
	resp = &TallyResponse{Worlds: int(r.u32())}
	k.shape.readPayload(r, resp)
	if err := r.done(); err != nil {
		return "", nil, err
	}
	return k.name, resp, nil
}

// ---- flagTrace sections --------------------------------------------------

// traceRefLen is the size of the REQ trace ref: u64 trace ID, u64 parent
// span ID.
const traceRefLen = 16

// workerAnnotLen is the size of the RESP worker-annotation section; see
// workerAnnot for the field layout.
const workerAnnotLen = 56

// traceRef identifies, on the wire, which coordinator trace (and which
// span within it) a REQ belongs to, so worker-side logs correlate with
// coordinator traces without any clock agreement.
type traceRef struct {
	TraceID uint64
	SpanID  uint64
}

// workerAnnot is the worker's self-reported execution annotation for one
// traced request: wall time, worlds tallied, per-request tally-cache
// hits/misses, and the world-store tier activity observed while serving
// it (a Stats snapshot diff — approximate under concurrent requests on
// the same store, and documented as such; the numbers inform operators,
// never estimates). All fields are little-endian on the wire, in
// declaration order.
type workerAnnot struct {
	ElapsedNS        uint64 // worker-side wall time for the request
	Worlds           uint64 // worlds tallied (resp.Worlds)
	CacheHits        uint32 // ranges served from the worker tally cache
	CacheMiss        uint32 // ranges recomputed
	StoreHits        uint64 // RAM-resident world-store block hits
	DiskHits         uint64 // disk-tier block loads
	Recomputes       uint64 // evicted blocks rebuilt from the stream
	Materializations uint64 // first-time block materializations
}

// appendTraceRef appends the 16-byte REQ trace ref.
func appendTraceRef(buf []byte, ref traceRef) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ref.TraceID)
	return binary.LittleEndian.AppendUint64(buf, ref.SpanID)
}

// appendWorkerAnnot appends the fixed RESP annotation section.
func appendWorkerAnnot(buf []byte, a workerAnnot) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, a.ElapsedNS)
	buf = binary.LittleEndian.AppendUint64(buf, a.Worlds)
	buf = binary.LittleEndian.AppendUint32(buf, a.CacheHits)
	buf = binary.LittleEndian.AppendUint32(buf, a.CacheMiss)
	buf = binary.LittleEndian.AppendUint64(buf, a.StoreHits)
	buf = binary.LittleEndian.AppendUint64(buf, a.DiskHits)
	buf = binary.LittleEndian.AppendUint64(buf, a.Recomputes)
	return binary.LittleEndian.AppendUint64(buf, a.Materializations)
}

// splitTrailer cuts the last n bytes off a (checksum-stripped) body,
// returning the canonical prefix and the trailer.
func splitTrailer(body []byte, n int, what string) (payload, trailer []byte, err error) {
	if len(body) < n {
		return nil, nil, fmt.Errorf("shard: traced frame body too short for %s (%d < %d bytes)", what, len(body), n)
	}
	return body[:len(body)-n], body[len(body)-n:], nil
}

// splitTraceRef strips and decodes the REQ trace ref when h carries
// flagTrace; untraced requests pass through with a zero ref.
func splitTraceRef(h frameHeader, body []byte) ([]byte, traceRef, error) {
	if h.flags&flagTrace == 0 {
		return body, traceRef{}, nil
	}
	payload, tr, err := splitTrailer(body, traceRefLen, "trace ref")
	if err != nil {
		return nil, traceRef{}, err
	}
	return payload, traceRef{
		TraceID: binary.LittleEndian.Uint64(tr[0:8]),
		SpanID:  binary.LittleEndian.Uint64(tr[8:16]),
	}, nil
}

// splitWorkerAnnot strips and decodes the RESP annotation section when h
// carries flagTrace; untraced responses pass through with a nil annot.
func splitWorkerAnnot(h frameHeader, body []byte) ([]byte, *workerAnnot, error) {
	if h.flags&flagTrace == 0 {
		return body, nil, nil
	}
	payload, tr, err := splitTrailer(body, workerAnnotLen, "worker annotation")
	if err != nil {
		return nil, nil, err
	}
	return payload, &workerAnnot{
		ElapsedNS:        binary.LittleEndian.Uint64(tr[0:8]),
		Worlds:           binary.LittleEndian.Uint64(tr[8:16]),
		CacheHits:        binary.LittleEndian.Uint32(tr[16:20]),
		CacheMiss:        binary.LittleEndian.Uint32(tr[20:24]),
		StoreHits:        binary.LittleEndian.Uint64(tr[24:32]),
		DiskHits:         binary.LittleEndian.Uint64(tr[32:40]),
		Recomputes:       binary.LittleEndian.Uint64(tr[40:48]),
		Materializations: binary.LittleEndian.Uint64(tr[48:56]),
	}, nil
}

// setFlag sets a flag bit in a finished frame's header and re-finishes
// the length (a no-op for the length, kept for symmetry with sealFrame).
func setFlag(frame []byte, flag uint16) []byte {
	flags := binary.LittleEndian.Uint16(frame[6:8])
	binary.LittleEndian.PutUint16(frame[6:8], flags|flag)
	return finishFrame(frame, 0)
}

// decodeErrorBody parses an ERR frame body.
func decodeErrorBody(body []byte) (code uint16, msg string, err error) {
	r := &wireReader{buf: body}
	code = r.u16()
	msgLen := int(r.u16())
	msg = string(r.take(msgLen))
	if err := r.done(); err != nil {
		return 0, "", err
	}
	return code, msg, nil
}
