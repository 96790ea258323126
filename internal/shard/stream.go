package shard

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the v2 stream transport on both sides of the wire:
// a coordinator-side client that multiplexes tally requests over one
// long-lived connection per worker, and the worker-side connection loop.
// The stream is established by upgrading POST /shard/v2/stream (an HTTP/1.1
// 101 switch, so it routes through the same mux, port and load balancers
// as the JSON endpoints) and then carries nothing but the length-prefixed
// binary frames of wire.go in both directions. See docs/SHARD_PROTOCOL.md.

// streamDialTimeout bounds the TCP + upgrade handshake of one dial.
const streamDialTimeout = 10 * time.Second

// errStreamClosed reports a request abandoned because its underlying
// stream died (worker restart, network cut). It is retriable: the next
// attempt re-dials.
var errStreamClosed = errors.New("shard: stream closed")

// errIntegrity reports a frame rejected by its CRC32-C check: bits
// changed between the worker's encoder and our decoder. The payload is
// never decoded, never merged — the attempt fails and the range is
// re-scattered.
var errIntegrity = errors.New("shard: frame failed integrity check")

// checksumHeader is the negotiation header of the stream upgrade: the
// worker advertises it on the 101 response, and a coordinator that sees
// the expected algorithm seals its REQ frames (the worker then mirrors
// the seal on each response). Old peers simply never set the flag.
const checksumHeader = "X-Ucgraph-Checksum"

// traceHeader is the trace-negotiation header of the stream upgrade,
// advertised exactly like checksumHeader: a coordinator that sees it may
// set flagTrace on REQ frames of traced queries, and the worker mirrors
// the flag (with its annotation section) on each such response. Old
// peers on either side simply never set the flag — mixed fleets
// interoperate, untraced.
const traceHeader = "X-Ucgraph-Trace"

// streamResult is the outcome of one multiplexed request.
type streamResult struct {
	resp  *TallyResponse
	kind  string
	annot *workerAnnot // non-nil only on flagTrace responses
	err   error
}

// streamConn is one live upgraded connection with its demultiplexer.
type streamConn struct {
	nc net.Conn
	bw *bufio.Writer

	// sum records the checksum negotiation outcome of this connection's
	// handshake: when set, outgoing frames are sealed with a CRC32-C
	// trailer and incoming checksummed frames are verified.
	sum bool
	// trace records the trace negotiation outcome: when set, REQ frames
	// of traced queries carry a trace ref and flagTrace.
	trace bool

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	pending map[uint64]chan streamResult
	closed  bool
	err     error
}

// streamClient manages the (re)dialed stream of one worker. Safe for
// concurrent use; concurrent requests share one connection.
type streamClient struct {
	scheme string // "http" or "https"
	host   string // host:port

	nextID atomic.Uint64

	mu   sync.Mutex
	conn *streamConn
}

// newStreamClient prepares a client for the worker at base (a normalized
// URL, as produced by newWorkerClient).
func newStreamClient(base string) (*streamClient, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("shard: worker address %q: %w", base, err)
	}
	host := u.Host
	if u.Port() == "" {
		switch u.Scheme {
		case "https":
			host = net.JoinHostPort(u.Hostname(), "443")
		default:
			host = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	return &streamClient{scheme: u.Scheme, host: host}, nil
}

// get returns the live connection, dialing if needed.
func (sc *streamClient) get(ctx context.Context) (*streamConn, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.conn != nil && !sc.conn.dead() {
		return sc.conn, nil
	}
	conn, err := sc.dial(ctx)
	if err != nil {
		return nil, err
	}
	sc.conn = conn
	return conn, nil
}

// dial opens a TCP (or TLS) connection and performs the upgrade handshake.
func (sc *streamClient) dial(ctx context.Context) (*streamConn, error) {
	dctx, cancel := context.WithTimeout(ctx, streamDialTimeout)
	defer cancel()
	var (
		nc  net.Conn
		err error
	)
	d := &net.Dialer{}
	if sc.scheme == "https" {
		td := &tls.Dialer{NetDialer: d}
		nc, err = td.DialContext(dctx, "tcp", sc.host)
	} else {
		nc, err = d.DialContext(dctx, "tcp", sc.host)
	}
	if err != nil {
		return nil, err
	}
	deadline, _ := dctx.Deadline()
	_ = nc.SetDeadline(deadline) // handshake only; cleared below

	fmt.Fprintf(nc, "POST %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		PathStream, sc.host, StreamProtocol)
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodPost})
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("shard: stream handshake: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		nc.Close()
		return nil, fmt.Errorf("shard: stream upgrade refused: %s %s", resp.Status, body)
	}
	_ = nc.SetDeadline(time.Time{})

	conn := &streamConn{
		nc:      nc,
		bw:      bufio.NewWriter(nc),
		sum:     resp.Header.Get(checksumHeader) == ChecksumAlgorithm,
		trace:   resp.Header.Get(traceHeader) == TraceVersion,
		pending: make(map[uint64]chan streamResult),
	}
	// The demultiplexer: one goroutine per connection reads frames and
	// routes them to their waiting request by id. Any read error fails
	// every pending request (they retry on a fresh connection) and
	// retires the connection.
	go func() {
		// br may hold bytes buffered past the 101 response; keep using it.
		for {
			h, body, err := readFrame(br)
			if err != nil {
				conn.fail(fmt.Errorf("%w: %v", errStreamClosed, err))
				return
			}
			if body, err = verifyBody(h, body); err != nil {
				// A corrupt body fails only its own request: the frame
				// header delimited the stream correctly, so later frames
				// are still in sync. The waiter's attempt errors and the
				// coordinator re-scatters the range — the payload is
				// never decoded, let alone merged.
				conn.deliver(h.id, streamResult{err: fmt.Errorf("%w: %v", errIntegrity, err)})
				continue
			}
			var res streamResult
			switch h.ftype {
			case frameResp:
				// The worker-annotation section (if negotiated and the
				// request was traced) sits between the canonical body and
				// the checksum trailer; verifyBody already stripped the
				// trailer, so strip the annotation next, then decode the
				// canonical bytes.
				body, annot, aerr := splitWorkerAnnot(h, body)
				if aerr != nil {
					res = streamResult{err: aerr}
					break
				}
				kind, resp, err := decodeResponseBody(body)
				res = streamResult{resp: resp, kind: kind, annot: annot, err: err}
			case frameErr:
				code, msg, err := decodeErrorBody(body)
				if err != nil {
					res = streamResult{err: err}
				} else if code == errCodeIntegrity {
					res = streamResult{err: fmt.Errorf("%w: worker rejected request: %s", errIntegrity, msg)}
				} else {
					res = streamResult{err: fmt.Errorf("shard: worker error %d: %s", code, msg)}
				}
			default:
				// Unknown frame types are ignored for forward compat (a
				// future worker may push frames an old coordinator does
				// not know); they carry an id no one waits on.
				continue
			}
			conn.deliver(h.id, res)
		}
	}()
	return conn, nil
}

func (c *streamConn) dead() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.closed
}

// fail closes the connection and errors out every pending request.
func (c *streamConn) fail(err error) {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pending := c.pending
	c.pending = nil
	c.pmu.Unlock()
	c.nc.Close()
	for _, ch := range pending {
		ch <- streamResult{err: err}
	}
}

// deliver routes one decoded result to its waiter, if still registered.
func (c *streamConn) deliver(id uint64, res streamResult) {
	c.pmu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.pmu.Unlock()
	if ok {
		ch <- res
	}
}

// register adds a waiter for id; the returned channel has capacity 1 so
// deliver never blocks.
func (c *streamConn) register(id uint64) (chan streamResult, error) {
	ch := make(chan streamResult, 1)
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.closed {
		return nil, c.err
	}
	c.pending[id] = ch
	return ch, nil
}

// deregister abandons a waiter (cancellation); reports whether it was
// still registered.
func (c *streamConn) deregister(id uint64) bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if _, ok := c.pending[id]; ok {
		delete(c.pending, id)
		return true
	}
	return false
}

// writeFrame writes one encoded frame, serialized against concurrent
// writers, and flushes it.
func (c *streamConn) writeFrame(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// call performs one multiplexed tally request: encode, write one frame,
// wait for the matching response frame. ref, when non-nil and the worker
// negotiated tracing, rides as a flagTrace trailer on the REQ; the
// matching response then carries the worker's annotation (returned
// alongside the tallies, nil for untraced or old-peer responses). On ctx
// expiry it sends a best-effort CANCEL so the worker can stop computing,
// and returns ctx's error. Transport failures surface as
// errStreamClosed-wrapped errors; the next call re-dials.
func (sc *streamClient) call(ctx context.Context, req *TallyRequest, ref *traceRef) (*TallyResponse, *workerAnnot, error) {
	conn, err := sc.get(ctx)
	if err != nil {
		return nil, nil, err
	}
	id := sc.nextID.Add(1)
	frame, err := encodeRequestFrame(id, req)
	if err != nil {
		return nil, nil, err
	}
	if ref != nil && conn.trace {
		// The trace ref is appended AFTER the canonical request bytes
		// (which stay byte-identical for traced and untraced queries)
		// and BEFORE the checksum trailer (sealFrame runs last, so the
		// CRC covers it).
		frame = appendTraceRef(frame, *ref)
		frame = setFlag(frame, flagTrace)
	}
	frame = sealFrame(frame, conn.sum)
	ch, err := conn.register(id)
	if err != nil {
		return nil, nil, err
	}
	if err := conn.writeFrame(frame); err != nil {
		conn.fail(fmt.Errorf("%w: %v", errStreamClosed, err))
		<-ch // fail delivered an error (or deliver raced; either way drain)
		return nil, nil, err
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, nil, res.err
		}
		if res.kind != req.Kind {
			return nil, nil, fmt.Errorf("shard: response kind %q for a %q request", res.kind, req.Kind)
		}
		return res.resp, res.annot, nil
	case <-ctx.Done():
		if conn.deregister(id) {
			// Best effort: tell the worker to stop computing. A write
			// failure just means the stream is already dead.
			_ = conn.writeFrame(encodeCancelFrame(id))
		}
		return nil, nil, ctx.Err()
	}
}

// close tears down the current connection, if any.
func (sc *streamClient) close() {
	sc.mu.Lock()
	conn := sc.conn
	sc.conn = nil
	sc.mu.Unlock()
	if conn != nil {
		conn.fail(errStreamClosed)
	}
}

// ---- worker side ---------------------------------------------------------

// handleStream upgrades POST /shard/v2/stream and serves the binary frame
// protocol until the peer disconnects. Requests on one stream are served
// concurrently (the coordinator multiplexes a whole scatter round onto the
// stream); response frames are serialized by the write mutex. A CANCEL
// frame aborts the named request's context; a closed connection aborts
// them all.
func (w *Worker) handleStream(rw http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != StreamProtocol {
		w.fail(rw, http.StatusBadRequest, fmt.Sprintf("stream endpoint requires Upgrade: %s", StreamProtocol))
		return
	}
	if w.draining.Load() {
		w.fail(rw, http.StatusServiceUnavailable, "worker draining")
		return
	}
	hj, ok := rw.(http.Hijacker)
	if !ok {
		w.fail(rw, http.StatusInternalServerError, "server does not support connection upgrades")
		return
	}
	nc, buf, err := hj.Hijack()
	if err != nil {
		w.fail(rw, http.StatusInternalServerError, "hijack: "+err.Error())
		return
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Time{}) // the hijacked conn may carry server deadlines
	fmt.Fprintf(buf, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n%s: %s\r\n%s: %s\r\n\r\n",
		StreamProtocol, checksumHeader, ChecksumAlgorithm, traceHeader, TraceVersion)
	if err := buf.Flush(); err != nil {
		return
	}

	conn := &streamConn{nc: nc, bw: buf.Writer}
	// Register the hijacked stream so Drain can find and close it after
	// in-flight requests complete — http.Server.Shutdown never sees
	// hijacked connections.
	w.trackStream(conn)
	defer w.untrackStream(conn)
	// Per-connection context: closing the stream cancels every in-flight
	// request spawned from it.
	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	var (
		cmu     sync.Mutex
		cancels = make(map[uint64]context.CancelFunc)
		wg      sync.WaitGroup
	)
	defer wg.Wait()
	for {
		h, body, err := readFrame(buf.Reader)
		if err != nil {
			return // peer gone (or garbage); per-request contexts die via cancelAll
		}
		switch h.ftype {
		case frameReq:
			// sum: mirror the request's checksum choice on every frame we
			// send back for it — per-request, so one stream can serve
			// peers rolled out before and after the negotiation change.
			sum := h.flags&flagChecksum != 0
			body, verr := verifyBody(h, body)
			if verr != nil {
				w.integrityRejects.Add(1)
				_ = conn.writeFrame(sealFrame(encodeErrorFrame(h.id, errCodeIntegrity, verr.Error()), sum))
				continue
			}
			// traced/ref: mirror the request's trace choice like the
			// checksum choice — per-request, negotiated per-connection.
			// The trace ref trailer must come off before decode (the
			// decoder enforces exact consumption of the canonical bytes).
			body, ref, err := splitTraceRef(h, body)
			var req *TallyRequest
			if err == nil {
				req, err = decodeRequestBody(body)
			}
			if err != nil {
				// A request that does not decode still counts as a failed
				// one, like a decodable one that fails validation.
				w.requests.Add(1)
				w.failures.Add(1)
				_ = conn.writeFrame(sealFrame(encodeErrorFrame(h.id, errCodeBadRequest, err.Error()), sum))
				continue
			}
			traced := h.flags&flagTrace != 0
			// Track in-flight work BEFORE the drain check: once counted, a
			// request is guaranteed to finish (and flush its response)
			// before Drain severs the stream.
			w.inflight.Add(1)
			if w.draining.Load() {
				w.inflight.Add(-1)
				_ = conn.writeFrame(sealFrame(encodeErrorFrame(h.id, errCodeInternal, "worker draining"), sum))
				continue
			}
			rctx, cancel := context.WithCancel(ctx)
			cmu.Lock()
			cancels[h.id] = cancel
			cmu.Unlock()
			wg.Add(1)
			go func(id uint64, req *TallyRequest, sum, traced bool, ref traceRef) {
				defer wg.Done()
				defer w.inflight.Add(-1)
				defer func() {
					cmu.Lock()
					delete(cancels, id)
					cmu.Unlock()
					cancel()
				}()
				start := time.Now()
				resp, annot, err := w.serveTallyAnnot(rctx, req, traced)
				w.noteSlowTally(req, ref, time.Since(start), err)
				var frame []byte
				if err != nil {
					frame = encodeErrorFrame(id, errCode(err), err.Error())
				} else {
					frame = encodeResponseFrame(id, req.Kind, resp)
					if traced {
						// Annotation after the canonical body, before the
						// seal — the mirror of the REQ layout.
						frame = appendWorkerAnnot(frame, annot)
						frame = setFlag(frame, flagTrace)
					}
				}
				if err := conn.writeFrame(sealFrame(frame, sum)); err != nil {
					cancelAll() // writer broken: stop everything on this stream
				}
			}(h.id, req, sum, traced, ref)
		case frameCancel:
			cmu.Lock()
			if cancel, ok := cancels[h.id]; ok {
				cancel()
			}
			cmu.Unlock()
		default:
			// Ignore unknown frame types for forward compatibility.
		}
	}
}

// errCode maps a serveTallyAnnot error onto its wire error code.
func errCode(err error) uint16 {
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		return errCodeBadRequest
	case errors.Is(err, errUnknownGraph):
		return errCodeUnknownGraph
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return errCodeCanceled
	default:
		return errCodeInternal
	}
}
