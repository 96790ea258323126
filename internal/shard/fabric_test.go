package shard

import (
	"bufio"
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/faultinject"
	"ucgraph/internal/graph"
	"ucgraph/internal/metrics"
	"ucgraph/internal/worldstore"
)

// newChaosProxy puts a faultinject.Proxy between the coordinator and one
// worker: the v2 transport is a persistent byte stream, so faults are
// injected at the connection layer — the layer real worker deaths and
// stragglers live at — instead of wrapping HTTP handlers.
func newChaosProxy(t testing.TB, backend string) *faultinject.Proxy {
	t.Helper()
	p, err := faultinject.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// ---- hedging -------------------------------------------------------------

// TestHedgedDuplicateNotAFailure is the regression test for the /statsz
// double-count bug: a hedged answer that loses the race is a suppressed
// duplicate — it must increment the Duplicates counters, never Failures.
func TestHedgedDuplicateNotAFailure(t *testing.T) {
	g := testGraph(t, 32, 2)
	const seed = 9
	coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, 1), CoordinatorOptions{})

	grp := &scatterGroup{worlds: 64}
	grp.won.Store(true) // the hedged twin already answered
	m := coord.fleet.member(0)
	res := coord.attemptWorker(context.Background(), grp, m, &TallyRequest{
		Graph: "tg", Kind: KindPair, Ranges: []Range{{Lo: 0, Hi: 64}}, U: 0, V: 1,
	}, true)
	if !errors.Is(res.err, errDuplicate) {
		t.Fatalf("result = %+v, want errDuplicate", res)
	}
	st := coord.WorkerStats()[0]
	if st.Failures != 0 {
		t.Fatalf("hedged duplicate counted as %d worker failure(s)", st.Failures)
	}
	if st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}
	if fs := coord.FabricStats(); fs.Duplicates != 1 {
		t.Fatalf("fabric Duplicates = %d, want 1", fs.Duplicates)
	}
}

// TestCoordinatorHedgedRoundsBitIdentical makes one worker a straggler:
// hedges fire, the fast worker wins every race, the estimates stay
// bit-identical, and no failure is recorded for the slow-but-healthy
// worker.
func TestCoordinatorHedgedRoundsBitIdentical(t *testing.T) {
	g := testGraph(t, 64, 15)
	const seed = 21
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])
	proxy.SetDelay(300 * time.Millisecond)

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		HedgeDelay:     25 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
	})

	centers := []graph.NodeID{1, 9, 33}
	want := local.FromCenters(centers, conn.Unlimited, 700)
	got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 700)
	if err != nil {
		t.Fatalf("hedged query: %v", err)
	}
	for i := range want {
		sameFloats(t, "hedged query", got[i], want[i])
	}
	if fs := coord.FabricStats(); fs.Hedges == 0 {
		t.Fatal("expected hedges against the straggler")
	}
	var failures uint64
	for _, st := range coord.WorkerStats() {
		failures += st.Failures
	}
	if failures != 0 {
		t.Fatalf("straggler mitigation recorded %d failures; hedged losers must not count", failures)
	}
}

// ---- elastic membership --------------------------------------------------

// TestMembershipJoinAndLeave drives a progressive query schedule through
// membership changes: a worker joins between extensions (serving only
// fresh blocks), another leaves (its blocks re-stripe), and every estimate
// stays bit-identical to local — each world merged exactly once.
func TestMembershipJoinAndLeave(t *testing.T) {
	g := testGraph(t, 72, 19)
	const seed = 5
	workers := startWorkers(t, "tg", g, seed, 3)
	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, workers[:2], CoordinatorOptions{})

	centers := []graph.NodeID{3, 40, 68}
	got := coord.FromCenters(centers, conn.Unlimited, 300)
	want := local.FromCenters(centers, conn.Unlimited, 300)
	for i := range want {
		sameFloats(t, "before join", got[i], want[i])
	}

	// Join: the third worker picks up only unowned (new) blocks.
	coord.AddWorker(workers[2])
	if len(coord.Workers()) != 3 {
		t.Fatalf("workers = %v", coord.Workers())
	}
	got = coord.FromCenters(centers, conn.Unlimited, 1200)
	want = local.FromCenters(centers, conn.Unlimited, 1200)
	for i := range want {
		sameFloats(t, "after join", got[i], want[i])
	}
	var joinedServed uint64
	for _, st := range coord.WorkerStats() {
		if st.Addr == workers[2] {
			joinedServed = st.WorldsServed
		}
	}
	if joinedServed == 0 {
		t.Fatal("joined worker served nothing")
	}

	// Leave: the first worker's blocks re-stripe onto the survivors.
	if !coord.RemoveWorker(workers[0]) {
		t.Fatal("remove failed")
	}
	if len(coord.Workers()) != 2 {
		t.Fatalf("workers after remove = %v", coord.Workers())
	}
	got = coord.FromCenters(centers, conn.Unlimited, 2000)
	want = local.FromCenters(centers, conn.Unlimited, 2000)
	for i := range want {
		sameFloats(t, "after leave", got[i], want[i])
	}
	// Re-adding revives the same slot.
	coord.AddWorker(workers[0])
	got = coord.FromCenters(centers, 2, 500)
	want = local.FromCenters(centers, 2, 500)
	for i := range want {
		sameFloats(t, "after rejoin", got[i], want[i])
	}
}

// TestMembershipLeaveMidQuery removes a (slow) worker while a query is in
// flight: its in-flight groups fail over to the survivor via the retry
// rounds and the result is still bit-identical.
func TestMembershipLeaveMidQuery(t *testing.T) {
	g := testGraph(t, 64, 23)
	const seed = 31
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])
	proxy.SetDelay(150 * time.Millisecond)

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		Retries:        3,
		RequestTimeout: 10 * time.Second,
	})
	centers := []graph.NodeID{7, 50}
	want := local.FromCenters(centers, conn.Unlimited, 900)

	done := make(chan error, 1)
	var got [][]float64
	go func() {
		var err error
		got, err = coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 900)
		done <- err
	}()
	time.Sleep(40 * time.Millisecond) // let the scatter take flight
	coord.RemoveWorker(proxy.URL())   // the slow worker leaves mid-query
	proxy.SetDown(true)               // and its process dies
	if err := <-done; err != nil {
		t.Fatalf("query with mid-flight leave: %v", err)
	}
	for i := range want {
		sameFloats(t, "mid-query leave", got[i], want[i])
	}
}

// TestMembershipFlappyPings flaps a worker through down/up ping cycles:
// queries keep answering bit-identically throughout (served by whoever is
// live), and the membership state tracks the flaps.
func TestMembershipFlappyPings(t *testing.T) {
	g := testGraph(t, 48, 27)
	const seed = 13
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		Retries:        2,
		RequestTimeout: 5 * time.Second,
	})
	centers := []graph.NodeID{0, 25}
	stateOf := func(addr string) string {
		for _, st := range coord.WorkerStats() {
			if st.Addr == addr {
				return st.State
			}
		}
		return "?"
	}

	r := 0
	for flap := 0; flap < 3; flap++ {
		// Down: the refresher marks the worker down; scatters avoid it.
		proxy.SetDown(true)
		if err := coord.Ping(context.Background()); err == nil {
			t.Fatal("expected a refresh error while down")
		}
		if got := stateOf(proxy.URL()); got != "down" {
			t.Fatalf("flap %d: state = %q, want down", flap, got)
		}
		r += 300
		got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, r)
		if err != nil {
			t.Fatalf("flap %d (down): %v", flap, err)
		}
		want := local.FromCenters(centers, conn.Unlimited, r)
		for i := range want {
			sameFloats(t, "flap down", got[i], want[i])
		}

		// Up: the refresher revives it; it serves fresh blocks again.
		proxy.SetDown(false)
		if err := coord.Ping(context.Background()); err != nil {
			t.Fatalf("flap %d: refresh after revive: %v", flap, err)
		}
		if got := stateOf(proxy.URL()); got != "up" {
			t.Fatalf("flap %d: state = %q, want up", flap, got)
		}
		r += 300
		got, err = coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, r)
		if err != nil {
			t.Fatalf("flap %d (up): %v", flap, err)
		}
		want = local.FromCenters(centers, conn.Unlimited, r)
		for i := range want {
			sameFloats(t, "flap up", got[i], want[i])
		}
	}
}

// TestStreamReconnects severs the persistent stream between queries: the
// next call re-dials transparently (at worst spending a retry round).
func TestStreamReconnects(t *testing.T) {
	g := testGraph(t, 40, 3)
	const seed = 17
	workers := startWorkers(t, "tg", g, seed, 1)
	proxy := newChaosProxy(t, workers[0])
	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL()}, CoordinatorOptions{
		Retries:        3,
		RequestTimeout: 5 * time.Second,
	})

	sameFloats(t, "before cut",
		coord.FromCenter(1, conn.Unlimited, 300),
		local.FromCenter(1, conn.Unlimited, 300))
	proxy.KillConns() // sever the stream, worker itself stays healthy
	sameFloats(t, "after cut",
		coord.FromCenter(2, conn.Unlimited, 300),
		local.FromCenter(2, conn.Unlimited, 300))
}

// ---- worker tally cache --------------------------------------------------

// TestWorkerTallyCache: repeated identical per-range tallies are served
// from the worker cache — same bytes, no worlds rescanned.
func TestWorkerTallyCache(t *testing.T) {
	g := testGraph(t, 32, 8)
	w, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: 2}}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := &TallyRequest{Graph: "tg", Kind: KindConnected, Centers: []int32{1, 5}, Ranges: []Range{{Lo: 0, Hi: 200}}}
	first, cached, _, err := w.serveTallyAnnot(context.Background(), req, false)
	if err != nil || cached {
		t.Fatalf("first: cached=%v err=%v", cached, err)
	}
	worlds := w.Counters().Worlds
	second, cached, _, err := w.serveTallyAnnot(context.Background(), req, false)
	if err != nil || !cached {
		t.Fatalf("second: cached=%v err=%v", cached, err)
	}
	if w.Counters().Worlds != worlds {
		t.Fatal("cache hit rescanned worlds")
	}
	if c := w.Counters(); c.CacheHits == 0 || c.CacheMiss == 0 {
		t.Fatalf("counters: %+v", c)
	}
	for j := range first.Counts {
		for u := range first.Counts[j] {
			if first.Counts[j][u] != second.Counts[j][u] {
				t.Fatal("cached tally differs")
			}
		}
	}
	// A partially-overlapping request hits only the warm range.
	req2 := &TallyRequest{Graph: "tg", Kind: KindConnected, Centers: []int32{1, 5}, Ranges: []Range{{Lo: 0, Hi: 200}, {Lo: 200, Hi: 400}}}
	_, cached, _, err = w.serveTallyAnnot(context.Background(), req2, false)
	if err != nil || cached {
		t.Fatalf("extension: cached=%v err=%v (only one range is warm)", cached, err)
	}
}

// TestWorkerTallyCacheDisabled: a negative budget turns the cache off.
func TestWorkerTallyCacheDisabled(t *testing.T) {
	g := testGraph(t, 24, 4)
	w, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: 2}}, WorkerOptions{TallyCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := &TallyRequest{Graph: "tg", Kind: KindPair, U: 0, V: 5, Ranges: []Range{{Lo: 0, Hi: 100}}}
	if _, cached, _, err := w.serveTallyAnnot(context.Background(), req, false); err != nil || cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	if _, cached, _, err := w.serveTallyAnnot(context.Background(), req, false); err != nil || cached {
		t.Fatalf("repeat with cache disabled: cached=%v err=%v", cached, err)
	}
	if c := w.Counters(); c.CacheHits != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestWorkerTallyCacheEviction: the FIFO ring respects its byte budget.
func TestWorkerTallyCacheEviction(t *testing.T) {
	g := testGraph(t, 64, 6)
	// Budget fits roughly two single-center responses (64 nodes * 4B +
	// overhead + key), so the third insert evicts the first.
	w, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: 2}}, WorkerOptions{TallyCacheBytes: 1100})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(center int32) *TallyRequest {
		return &TallyRequest{Graph: "tg", Kind: KindConnected, Centers: []int32{center}, Ranges: []Range{{Lo: 0, Hi: 128}}}
	}
	for _, ctr := range []int32{1, 2, 3} {
		if _, _, _, err := w.serveTallyAnnot(context.Background(), mk(ctr), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, cached, _, _ := w.serveTallyAnnot(context.Background(), mk(1), false); cached {
		t.Fatal("first entry should have been evicted")
	}
	if w.cache.bytes > 1100 {
		t.Fatalf("cache over budget: %d", w.cache.bytes)
	}
}

// ---- stream-level fault injection ----------------------------------------

// malformedStreamWorker speaks a correct v2 upgrade + framing but answers
// every request with a wrong-shaped (yet world-count-consistent) payload —
// the binary-era version-skew scenario.
func malformedStreamWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				br := bufio.NewReader(nc)
				if req, err := http.ReadRequest(br); err != nil {
					return
				} else if req.URL.Path != PathStream {
					// Pings go to the real JSON endpoint in these tests;
					// this fake only serves streams.
					nc.Write([]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
					return
				}
				nc.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + StreamProtocol + "\r\n\r\n"))
				for {
					h, body, err := readFrame(br)
					if err != nil {
						return
					}
					if h.ftype != frameReq {
						continue
					}
					req, err := decodeRequestBody(body)
					if err != nil {
						return
					}
					worlds := 0
					for _, rg := range req.Ranges {
						worlds += rg.Worlds()
					}
					// Right world count, wrong payload shape.
					bad := &TallyResponse{Worlds: worlds, Counts: [][]int32{{1, 2, 3}}}
					if _, err := nc.Write(encodeResponseFrame(h.id, req.Kind, false, bad)); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestCoordinatorRejectsMalformedStreamResponses: wrong-shaped binary
// tallies are a retriable failure — re-scattered to the healthy worker,
// never merged, never a panic.
func TestCoordinatorRejectsMalformedStreamResponses(t *testing.T) {
	g := testGraph(t, 48, 16)
	const seed = 8
	bad := malformedStreamWorker(t)
	good := startWorkers(t, "tg", g, seed, 1)[0]

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{bad, good}, CoordinatorOptions{Retries: 3})
	want := local.FromCenters([]graph.NodeID{0, 21}, conn.Unlimited, 900)
	got, err := coord.FromCentersCtx(context.Background(), []graph.NodeID{0, 21}, conn.Unlimited, 900)
	if err != nil {
		t.Fatalf("query with malformed worker: %v", err)
	}
	for i := range want {
		sameFloats(t, "malformed-stream query", got[i], want[i])
	}
	var sawMalformed bool
	for _, st := range coord.WorkerStats() {
		if st.Failures > 0 {
			sawMalformed = true
		}
	}
	if !sawMalformed {
		t.Fatal("malformed responses were not recorded as failures")
	}
}

// ---- reliability scattering ----------------------------------------------

// TestCoordinatorReliabilityBitIdentical: scattered reliability,
// component and largest-component estimates equal the local metrics
// package bit for bit, across worker counts.
func TestCoordinatorReliabilityBitIdentical(t *testing.T) {
	g := testGraph(t, 56, 29)
	const seed = 25
	const r = 700
	ws := worldstore.Shared(g, seed)
	set := []graph.NodeID{2, 19, 44}
	wantSet := metrics.SetReliability(ws, set, r)
	wantAll := metrics.AllTerminalReliability(ws, r)
	wantComp := metrics.ExpectedComponents(ws, r)
	wantFrac := metrics.LargestComponentFraction(ws, r)

	for _, nw := range []int{0, 1, 2, 3} {
		coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, nw), CoordinatorOptions{})
		ctx := context.Background()
		gotSet, err := coord.SetReliabilityCtx(ctx, set, r)
		if err != nil {
			t.Fatal(err)
		}
		gotAll, err := coord.AllTerminalReliabilityCtx(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		gotComp, err := coord.ExpectedComponentsCtx(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		gotFrac, err := coord.LargestComponentFractionCtx(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			label     string
			got, want float64
		}{
			{"set reliability", gotSet, wantSet},
			{"all-terminal", gotAll, wantAll},
			{"components", gotComp, wantComp},
			{"largest fraction", gotFrac, wantFrac},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("workers=%d: %s = %v, want %v", nw, c.label, c.got, c.want)
			}
		}
		// Singleton sets short-circuit to exactly 1 on both paths.
		one, err := coord.SetReliabilityCtx(ctx, set[:1], r)
		if err != nil || one != 1 {
			t.Fatalf("singleton reliability = %v, %v", one, err)
		}
	}
}
