package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/graph"
	"ucgraph/internal/obs"
)

// Progressive mode: /v1/conn and /v1/cluster requests that carry a
// confidence target ("eps"/"delta") run adaptively — worlds are consumed
// in block-aligned doubling rounds and the request stops as soon as the
// empirical-Bernstein/Hoeffding interval closes to eps (see
// conn.AdaptiveFromCenters; on a sharded daemon each round's extension
// scatters only the not-yet-consumed world range). With "stream": true the
// response is Server-Sent Events: one `data:` frame per refinement round,
// coarse to converged, each carrying the current estimate, half-width and
// worlds consumed; the last frame has "final": true. Without streaming the
// response is plain JSON for the final round only.

// adaptiveSpec is a request's parsed confidence target.
type adaptiveSpec struct {
	params conn.AdaptiveParams
	stream bool
}

// defaultEpsDelta is applied when "stream": true is requested without an
// explicit target: streaming is inherently adaptive, so it needs one.
const defaultEpsDelta = 0.05

// adaptiveSpec parses eps/delta/stream from a request. A request with
// neither eps, delta nor stream returns nil — the fixed-budget path.
// delta defaults to eps's companion value when only eps is given; eps is
// required whenever delta is. The request's sample budget becomes the
// adaptive world cap: adaptive mode never consumes more than the fixed
// path would, it only stops earlier.
func parseAdaptive(eps, delta float64, stream bool, budget int) (*adaptiveSpec, *apiError) {
	if eps == 0 && delta == 0 && !stream {
		return nil, nil
	}
	if eps == 0 && delta != 0 {
		return nil, badRequest("\"delta\" without \"eps\": a confidence target needs both (or just \"eps\")")
	}
	if eps == 0 {
		eps = defaultEpsDelta
	}
	if delta == 0 {
		delta = defaultEpsDelta
	}
	p := conn.AdaptiveParams{Eps: eps, Delta: delta, MaxWorlds: budget}
	if err := p.Validate(); err != nil {
		return nil, badRequest(err.Error())
	}
	return &adaptiveSpec{params: p, stream: stream}, nil
}

// noteAdaptive records a finished confidence-target run in the /statsz
// counters.
func (s *Server) noteAdaptive(st conn.AdaptiveStats) {
	s.adaptiveQueries.Add(1)
	if st.Budget > st.Worlds {
		s.worldsSaved.Add(uint64(st.Budget - st.Worlds))
	}
}

// sse wraps a streaming Server-Sent-Events response.
type sse struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// startSSE switches the response to text/event-stream. It fails with 501
// only when the ResponseWriter cannot flush (no streaming transport).
func startSSE(w http.ResponseWriter) (*sse, *apiError) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, &apiError{http.StatusNotImplemented, "streaming unsupported by this transport"}
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell reverse proxies not to buffer
	w.WriteHeader(http.StatusOK)
	return &sse{w: w, fl: fl}, nil
}

// frame writes one data frame and flushes it to the client.
func (e *sse) frame(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(e.w, "data: %s\n\n", data); err != nil {
		return err
	}
	e.fl.Flush()
	return nil
}

// errorFrame reports a mid-stream failure. The HTTP status is already
// written, so errors travel as a terminal event instead.
func (e *sse) errorFrame(ae *apiError) {
	data, _ := json.Marshal(map[string]any{"error": ae.msg, "code": ae.code})
	fmt.Fprintf(e.w, "event: error\ndata: %s\n\n", data)
	e.fl.Flush()
}

// project maps full estimate vectors onto the requested targets (no-op for
// an empty target list).
func project(ests [][]float64, targets []int32) [][]float64 {
	if len(targets) == 0 {
		return ests
	}
	out := make([][]float64, len(ests))
	for i, est := range ests {
		proj := make([]float64, len(targets))
		for j, t := range targets {
			proj[j] = est[t]
		}
		out[i] = proj
	}
	return out
}

// adaptiveConn is the estimate step of every /v1/conn query carrying a
// confidence target: conn.AdaptiveFromCenters over centers, tracking
// targets (a pair is the center query {source} tracking {target}, as
// conn.AdaptivePairInterval defines it, so repeated adaptive pair queries
// extend the daemon's cached tallies instead of rescanning). answer
// renders a round's estimate vectors into the request's response shape;
// a streaming query emits one frame per round, the last with "final":
// true, and a plain one answers with the final round.
func (s *Server) adaptiveConn(h *graphHandle, reqDepth, depth int, centers, targets []graph.NodeID, ad *adaptiveSpec, answer func([][]float64) map[string]any) func(context.Context, func(any) error) (map[string]any, error) {
	frame := func(snap conn.AdaptiveSnapshot) map[string]any {
		f := answer(snap.Estimates)
		f["graph"] = h.name
		f["depth"] = reqDepth
		f["eps"] = ad.params.Eps
		f["delta"] = ad.params.Delta
		f["budget"] = ad.params.MaxWorlds
		f["half_width"] = snap.HalfWidth
		f["worlds"] = snap.Worlds
		f["converged"] = snap.Converged
		f["final"] = snap.Final
		return f
	}
	return func(ctx context.Context, emit func(any) error) (map[string]any, error) {
		var progress func(conn.AdaptiveSnapshot) error
		if emit != nil {
			progress = func(snap conn.AdaptiveSnapshot) error { return emit(frame(snap)) }
		}
		ests, st, err := conn.AdaptiveFromCenters(ctx, h.coord, centers, depth, targets, ad.params, progress)
		if err != nil {
			return nil, err
		}
		s.noteAdaptive(st)
		if emit != nil {
			return nil, nil
		}
		return frame(conn.AdaptiveSnapshot{
			Estimates: ests, HalfWidth: st.HalfWidth, Worlds: st.Worlds,
			Converged: st.Converged, Final: true,
		}), nil
	}
}

// streamCluster runs one clustering request with progress streaming: one
// SSE frame per selected center (from the core.Progress hook), then a
// final frame embedding the regular cluster response.
func (s *Server) streamCluster(ctx context.Context, w http.ResponseWriter, h *graphHandle, req clusterRequest) {
	stream, e := startSSE(w)
	if e != nil {
		s.writeError(w, e)
		return
	}
	events := make(chan core.ProgressEvent, 64)
	type outcome struct {
		res *clusterResponse
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.runCluster(ctx, h, req, func(ev core.ProgressEvent) {
			// Drop frames rather than stall the driver if the writer
			// falls behind: progress frames are advisory, the final
			// frame is the answer.
			select {
			case events <- ev:
			default:
			}
		})
		close(events)
		done <- outcome{res, err}
	}()
	for ev := range events {
		if err := stream.frame(map[string]any{
			"graph": h.name, "algo": req.Algo,
			"centers": ev.Centers, "k": ev.K,
			"covered": ev.Covered, "nodes": ev.Nodes,
			"oracle_calls": ev.OracleCalls,
			"score_worlds": ev.ScoreWorlds,
			"final":        false,
		}); err != nil {
			// Client went away; the estimator aborts through ctx when the
			// connection drops, so just stop writing.
			break
		}
	}
	o := <-done
	if o.err != nil {
		s.failures.Add(1)
		stream.errorFrame(estimationError(o.err))
		return
	}
	final := map[string]any{"final": true, "result": o.res}
	if req.Explain {
		final["trace"] = explainView(obs.SpanFromContext(ctx).Trace())
	}
	_ = stream.frame(final)
}
