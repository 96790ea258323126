package shard

import (
	"context"
	"testing"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/obs"
)

// spansNamed returns the spans of v named name, in creation order.
func spansNamed(v obs.TraceView, name string) []obs.SpanView {
	var out []obs.SpanView
	for _, sp := range v.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// spanByID indexes a trace view's spans for parent lookups.
func spanByID(v obs.TraceView) map[uint64]obs.SpanView {
	out := make(map[uint64]obs.SpanView, len(v.Spans))
	for _, sp := range v.Spans {
		out[sp.ID] = sp
	}
	return out
}

// TestTraceWorkerAnnotationsOverWire runs a traced scatter over two live
// workers and checks the coordinator's trace carries the full fabric
// story: a scatter span, at least one scatter_round, one worker child
// span per scatter group with the worker-side annotations (worlds
// scanned, worker time and store-tier attribution) fetched over the v2
// wire, and a merge span — while the traced answer stays bit-identical
// to an untraced local run.
func TestTraceWorkerAnnotationsOverWire(t *testing.T) {
	g := testGraph(t, 64, 33)
	const seed = 17
	workers := startWorkers(t, "tg", g, seed, 2)
	coord := NewCoordinator("tg", g, seed, workers, CoordinatorOptions{})
	local := conn.NewMonteCarlo(g, seed)

	tr := obs.NewTrace("test-query")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	centers := []graph.NodeID{2, 40}
	const worlds = 600
	got, err := coord.FromCentersCtx(ctx, centers, conn.Unlimited, worlds)
	if err != nil {
		t.Fatalf("traced query: %v", err)
	}
	want := local.FromCenters(centers, conn.Unlimited, worlds)
	for i := range want {
		sameFloats(t, "traced scatter", got[i], want[i])
	}
	tr.Finish()
	v := tr.View()

	if len(spansNamed(v, "scatter")) == 0 {
		t.Fatalf("no scatter span in trace: %+v", v.Spans)
	}
	rounds := spansNamed(v, "scatter_round")
	if len(rounds) == 0 {
		t.Fatal("no scatter_round span in trace")
	}
	if len(spansNamed(v, "merge")) == 0 {
		t.Fatal("no merge span in trace")
	}

	byID := spanByID(v)
	wspans := spansNamed(v, "worker")
	if len(wspans) == 0 {
		t.Fatal("no worker spans in trace")
	}
	roundIDs := map[uint64]bool{}
	for _, r := range rounds {
		roundIDs[r.ID] = true
	}
	var scanned int64
	seen := map[string]bool{}
	for _, ws := range wspans {
		if !roundIDs[ws.ParentID] {
			t.Fatalf("worker span %d parented under %q, want a scatter_round", ws.ID, byID[ws.ParentID].Name)
		}
		addr, _ := ws.Attrs["addr"].(string)
		if addr == "" {
			t.Fatalf("worker span missing addr attr: %+v", ws.Attrs)
		}
		seen[addr] = true
		if ws.Attrs["outcome"] != "won" {
			continue
		}
		// The wire-carried worker annotations: the attempt that won must
		// report its scan and the tier it served from.
		n, ok := ws.Attrs["worker_worlds_scanned"].(int64)
		if !ok || n <= 0 {
			t.Fatalf("won worker span missing worlds-scanned annotation: %+v", ws.Attrs)
		}
		scanned += n
		for _, key := range []string{
			"worker_elapsed_ms", "store_ram_hits", "store_disk_hits", "store_recomputes",
			"store_materializations",
		} {
			if _, ok := ws.Attrs[key]; !ok {
				t.Fatalf("won worker span missing %q annotation: %+v", key, ws.Attrs)
			}
		}
	}
	if scanned != worlds {
		t.Fatalf("won worker spans scanned %d worlds, want %d", scanned, worlds)
	}
	if len(seen) != 2 {
		t.Fatalf("worker spans cover %d distinct workers, want 2: %v", len(seen), seen)
	}
}

// TestChaosTraceMatchesInjectionCounters flips one bit in a tally
// response at the TCP layer and checks the story the trace tells matches
// what the fault injector actually did: exactly Corruptions failed
// worker attempts on the proxied address, a retry round after the first,
// and the fabric's IntegrityRejects agreeing with both.
func TestChaosTraceMatchesInjectionCounters(t *testing.T) {
	g := testGraph(t, 64, 45)
	const seed = 29
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])

	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		Retries:        3,
		RequestTimeout: 5 * time.Second,
	})
	local := conn.NewMonteCarlo(g, seed)

	// Establish the stream with a clean query so the next corrupted
	// backend->client chunk is a tally frame, not the 101 handshake.
	if _, err := coord.FromCentersCtx(context.Background(), []graph.NodeID{3}, conn.Unlimited, 200); err != nil {
		t.Fatalf("warm query: %v", err)
	}

	proxy.CorruptNext(1)
	tr := obs.NewTrace("chaos-query")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	centers := []graph.NodeID{7, 51}
	got, err := coord.FromCentersCtx(ctx, centers, conn.Unlimited, 800)
	if err != nil {
		t.Fatalf("query with a corrupted response: %v", err)
	}
	want := local.FromCenters(centers, conn.Unlimited, 800)
	for i := range want {
		sameFloats(t, "corrupted response", got[i], want[i])
	}
	tr.Finish()
	v := tr.View()

	injected := proxy.Counters().Corruptions
	if injected != 1 {
		t.Fatalf("proxy injected %d corruptions, want 1 (test setup)", injected)
	}
	var failed uint64
	for _, ws := range spansNamed(v, "worker") {
		if ws.Attrs["outcome"] == "failed" && ws.Attrs["addr"] == proxy.URL() {
			failed++
		}
	}
	if failed != injected {
		t.Fatalf("trace shows %d failed attempts on the faulted worker, injector reports %d", failed, injected)
	}
	if fs := coord.FabricStats(); fs.IntegrityRejects != injected {
		t.Fatalf("IntegrityRejects = %d disagrees with injected corruptions %d", fs.IntegrityRejects, injected)
	}
	rounds := spansNamed(v, "scatter_round")
	if len(rounds) < 2 {
		t.Fatalf("trace has %d scatter rounds, want >= 2 (initial + retry)", len(rounds))
	}
	if _, ok := rounds[0].Attrs["failed_blocks"]; !ok {
		t.Fatalf("first round span does not record its failure: %+v", rounds[0].Attrs)
	}
}

// TestTraceHedgeSpansMatchFabricStats delays one worker past the hedge
// deadline and checks the trace's hedged worker attempts agree with the
// fabric's Hedges counter.
func TestTraceHedgeSpansMatchFabricStats(t *testing.T) {
	g := testGraph(t, 64, 51)
	const seed = 31
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])

	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		RequestTimeout: 5 * time.Second,
		HedgeDelay:     10 * time.Millisecond,
	})
	local := conn.NewMonteCarlo(g, seed)

	// Warm the streams, then throttle the proxied worker so its groups
	// straggle past the hedge deadline.
	if _, err := coord.FromCentersCtx(context.Background(), []graph.NodeID{5}, conn.Unlimited, 200); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	proxy.SetDelay(200 * time.Millisecond)
	// The warm-up may itself have hedged (a cold store under the race
	// detector can straggle past 10 ms), so the trace is compared with the
	// counter's change across the traced query, not its total.
	before := coord.FabricStats().Hedges

	tr := obs.NewTrace("hedged-query")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	centers := []graph.NodeID{9, 33}
	got, err := coord.FromCentersCtx(ctx, centers, conn.Unlimited, 800)
	if err != nil {
		t.Fatalf("hedged query: %v", err)
	}
	want := local.FromCenters(centers, conn.Unlimited, 800)
	for i := range want {
		sameFloats(t, "hedged", got[i], want[i])
	}
	tr.Finish()

	var hedged uint64
	for _, ws := range spansNamed(tr.View(), "worker") {
		if ws.Attrs["hedged"] == true {
			hedged++
		}
	}
	fired := coord.FabricStats().Hedges - before
	if fired == 0 {
		t.Fatal("no hedges fired (test setup: delay or hedge deadline wrong)")
	}
	if hedged != fired {
		t.Fatalf("trace shows %d hedged attempts, fabric counted %d", hedged, fired)
	}
}
