package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/faultinject"
	"ucgraph/internal/graph"
)

// statsFor returns the WorkerStats row for addr.
func statsFor(t *testing.T, coord *Coordinator, addr string) WorkerStats {
	t.Helper()
	for _, st := range coord.WorkerStats() {
		if st.Addr == addr {
			return st
		}
	}
	t.Fatalf("no stats for worker %s", addr)
	return WorkerStats{}
}

// TestBreakerTripsAndRecovers kills one worker mid-fleet: its circuit
// breaker trips after the configured consecutive failures (visible in the
// worker and fabric stats), queries keep answering bit-identically off
// the survivor, and once the worker revives a successful ping closes the
// breaker and it serves again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	g := testGraph(t, 64, 33)
	const seed = 17
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		Retries:          3,
		RequestTimeout:   5 * time.Second,
		BreakerThreshold: 1,
		BreakerBackoff:   50 * time.Millisecond,
	})
	centers := []graph.NodeID{2, 40}

	proxy.SetDown(true)
	want := local.FromCenters(centers, conn.Unlimited, 600)
	got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 600)
	if err != nil {
		t.Fatalf("query with a dead worker: %v", err)
	}
	for i := range want {
		sameFloats(t, "dead worker", got[i], want[i])
	}
	st := statsFor(t, coord, proxy.URL())
	if st.BreakerTrips == 0 {
		t.Fatal("breaker never tripped for the dead worker")
	}
	if fs := coord.FabricStats(); fs.BreakerTrips == 0 {
		t.Fatal("fabric BreakerTrips = 0 after a trip")
	}

	// Revive: a passing ping closes the breaker and restores assignment.
	proxy.SetDown(false)
	if err := coord.Ping(context.Background()); err != nil {
		t.Fatalf("ping after revival: %v", err)
	}
	st = statsFor(t, coord, proxy.URL())
	if st.BreakerOpen {
		t.Fatal("breaker still open after a successful ping")
	}
	if st.State != "up" {
		t.Fatalf("revived worker state = %q, want up", st.State)
	}
	served := st.WorldsServed
	got, err = coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 2000)
	if err != nil {
		t.Fatalf("query after revival: %v", err)
	}
	want = local.FromCenters(centers, conn.Unlimited, 2000)
	for i := range want {
		sameFloats(t, "after revival", got[i], want[i])
	}
	if st = statsFor(t, coord, proxy.URL()); st.WorldsServed == served {
		t.Fatal("revived worker served nothing after its breaker closed")
	}
}

// TestFlapQuarantineStickyUntilOperatorReadd quarantines a flapping
// worker (trip bar 1 for the test) and checks quarantine is sticky: pings
// do not revive it, only an operator AddWorker does — after which queries
// stripe to it again, bit-identically.
func TestFlapQuarantineStickyUntilOperatorReadd(t *testing.T) {
	g := testGraph(t, 48, 39)
	const seed = 23
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		Retries:          3,
		RequestTimeout:   5 * time.Second,
		BreakerThreshold: 1,
		QuarantineTrips:  1,
		QuarantineWindow: time.Minute,
	})
	centers := []graph.NodeID{1, 30}

	proxy.SetDown(true)
	want := local.FromCenters(centers, conn.Unlimited, 500)
	got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 500)
	if err != nil {
		t.Fatalf("query during flap: %v", err)
	}
	for i := range want {
		sameFloats(t, "during flap", got[i], want[i])
	}
	if st := statsFor(t, coord, proxy.URL()); st.State != "quarantined" {
		t.Fatalf("flapping worker state = %q, want quarantined", st.State)
	}
	if fs := coord.FabricStats(); fs.Quarantines != 1 {
		t.Fatalf("fabric Quarantines = %d, want 1", fs.Quarantines)
	}

	// Quarantine is sticky against pings: the worker is healthy again, but
	// only an operator may vouch for it.
	proxy.SetDown(false)
	_ = coord.Ping(context.Background())
	if st := statsFor(t, coord, proxy.URL()); st.State != "quarantined" {
		t.Fatalf("ping revived a quarantined worker: state = %q", st.State)
	}

	coord.AddWorker(proxy.URL())
	if st := statsFor(t, coord, proxy.URL()); st.State != "up" {
		t.Fatalf("worker state after operator re-add = %q, want up", st.State)
	}
	got, err = coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 1500)
	if err != nil {
		t.Fatalf("query after re-add: %v", err)
	}
	want = local.FromCenters(centers, conn.Unlimited, 1500)
	for i := range want {
		sameFloats(t, "after re-add", got[i], want[i])
	}
}

// TestCorruptFrameDetectedAndRescattered flips one bit in a worker's
// tally response at the TCP layer: the CRC32-C trailer catches it, the
// corrupt frame is never merged, the group re-scatters exactly once, and
// the final estimates stay bit-identical to a fault-free local run.
func TestCorruptFrameDetectedAndRescattered(t *testing.T) {
	g := testGraph(t, 64, 45)
	const seed = 29
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		Retries:        3,
		RequestTimeout: 5 * time.Second,
	})

	// Establish the stream with a clean query so the next backend->client
	// chunk is a tally frame, not the 101 upgrade handshake.
	warm := []graph.NodeID{3}
	if _, err := coord.FromCentersCtx(context.Background(), warm, conn.Unlimited, 200); err != nil {
		t.Fatalf("warm query: %v", err)
	}

	proxy.CorruptNext(1)
	centers := []graph.NodeID{7, 51}
	want := local.FromCenters(centers, conn.Unlimited, 800)
	got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 800)
	if err != nil {
		t.Fatalf("query with a corrupted response: %v", err)
	}
	for i := range want {
		sameFloats(t, "corrupted response", got[i], want[i])
	}

	if n := proxy.Counters().Corruptions; n != 1 {
		t.Fatalf("proxy injected %d corruptions, want 1 (test setup)", n)
	}
	fs := coord.FabricStats()
	if fs.IntegrityRejects != 1 {
		t.Fatalf("IntegrityRejects = %d, want exactly 1", fs.IntegrityRejects)
	}
	if fs.Rescatters == 0 {
		t.Fatal("corrupt frame was not re-scattered")
	}
	if st := statsFor(t, coord, proxy.URL()); st.IntegrityRejects != 1 {
		t.Fatalf("worker IntegrityRejects = %d, want 1", st.IntegrityRejects)
	}
}

// TestAuditCleanRunNoDivergence turns sampled audits all the way up
// (fraction 1): every scatter group is re-executed on the second worker
// and compared byte-for-byte. Honest workers agree, so audits count up,
// divergences stay zero, nobody is quarantined, and the answer is
// bit-identical to local.
func TestAuditCleanRunNoDivergence(t *testing.T) {
	g := testGraph(t, 64, 51)
	const seed = 37
	workers := startWorkers(t, "tg", g, seed, 2)

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, workers, CoordinatorOptions{
		RequestTimeout: 5 * time.Second,
		AuditFraction:  1,
	})
	centers := []graph.NodeID{4, 19, 60}
	want := local.FromCenters(centers, conn.Unlimited, 700)
	got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 700)
	if err != nil {
		t.Fatalf("audited query: %v", err)
	}
	for i := range want {
		sameFloats(t, "audited query", got[i], want[i])
	}
	fs := coord.FabricStats()
	if fs.Audits == 0 {
		t.Fatal("AuditFraction=1 ran zero audits")
	}
	if fs.AuditDivergences != 0 {
		t.Fatalf("honest workers diverged %d time(s)", fs.AuditDivergences)
	}
	if fs.Quarantines != 0 {
		t.Fatalf("clean audit quarantined %d worker(s)", fs.Quarantines)
	}
	for _, st := range coord.WorkerStats() {
		if st.State != "up" {
			t.Fatalf("worker %s state = %q after clean audits", st.Addr, st.State)
		}
	}
}

// TestChaosSeededScheduleBitIdentical is the nightly chaos suite: a
// seeded schedule of connection kills, delays and bit corruption plays
// against every worker of a 3-worker fleet while a query series runs.
// The standing invariant under any fault mix: a query either fails
// loudly or returns estimates bit-identical to the fault-free local run
// — never a silently wrong answer. The "fresh" case draws a new chaos
// seed each run and logs it, so a failure replays exactly with
// CHAOS_SEED=<seed>; its subtest name stays fixed so test IDs are stable
// across runs. The fixed seeds are pinned schedules: the first three
// alone inject nothing on the fleet's three streams, the last kills,
// delays and corrupts on them.
func TestChaosSeededScheduleBitIdentical(t *testing.T) {
	fresh := faultinject.TestSeed(t.Logf)
	t.Run("fresh", func(t *testing.T) { runChaosSchedule(t, fresh) })
	for _, chaosSeed := range []uint64{
		1792197685638247078,
		1792197702593524120,
		1792197710936732357,
		1792202323819490084,
	} {
		t.Run(fmt.Sprint(chaosSeed), func(t *testing.T) { runChaosSchedule(t, chaosSeed) })
	}
}

func runChaosSchedule(t *testing.T, chaosSeed uint64) {
	g := testGraph(t, 64, 63)
	const seed = 47
	workers := startWorkers(t, "tg", g, seed, 3)
	proxies := make([]*faultinject.Proxy, len(workers))
	addrs := make([]string, len(workers))
	for i, wa := range workers {
		p := newChaosProxy(t, wa)
		p.SetSchedule(faultinject.Schedule{
			Seed:         chaosSeed + uint64(i),
			KillEvery:    41,
			CorruptEvery: 23,
			DelayEvery:   11,
			Delay:        2 * time.Millisecond,
		})
		proxies[i] = p
		addrs[i] = p.URL()
	}
	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, addrs, CoordinatorOptions{
		Retries:        6,
		RequestTimeout: 5 * time.Second,
		AuditFraction:  0.25,
		// The suite hammers every worker on purpose; flap quarantine would
		// (correctly) sideline the whole fleet and starve the later rounds.
		QuarantineTrips: -1,
	})
	centers := []graph.NodeID{2, 17, 45}
	loud := 0
	const rounds = 8
	// So that every seed proves something, one response frame is also
	// corrupted on purpose: before a round and on a proxy both chosen from
	// the seed. The proxy has already carried a stream, so the flip most
	// likely lands in a tally frame rather than in a stream handshake.
	corruptRound := 2 + int(chaosSeed%3)
	for round := 1; round <= rounds; round++ {
		if round == corruptRound {
			var carrying []*faultinject.Proxy
			for _, p := range proxies {
				if p.Counters().Conns > 0 {
					carrying = append(carrying, p)
				}
			}
			carrying[(chaosSeed>>32)%uint64(len(carrying))].CorruptNext(1)
		}
		samples := 200 * round // growing budgets extend cached tallies too
		got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, samples)
		if err != nil {
			loud++ // a loud failure is an acceptable chaos outcome
			continue
		}
		want := local.FromCenters(centers, conn.Unlimited, samples)
		for i := range want {
			sameFloats(t, fmt.Sprintf("chaos round %d", round), got[i], want[i])
		}
	}
	var injected faultinject.Counters
	for _, p := range proxies {
		c := p.Counters()
		injected.Conns += c.Conns
		injected.Kills += c.Kills
		injected.Delays += c.Delays
		injected.Corruptions += c.Corruptions
	}
	fs := coord.FabricStats()
	t.Logf("chaos: %d/%d rounds failed loudly; injected %+v; fabric %+v", loud, rounds, injected, fs)
	if loud == rounds {
		t.Fatalf("every chaos round failed (seed %d): the fabric absorbed nothing", chaosSeed)
	}
	if injected.Kills+injected.Corruptions+injected.Delays == 0 {
		t.Fatalf("schedule injected no faults (seed %d): the suite proved nothing", chaosSeed)
	}
}

// TestWorkerDrainFinishesInFlightStream drains a worker while a scattered
// tally is in flight: the open round completes (and merges into a
// bit-identical answer), then the worker's hijacked streams are severed,
// its healthz flips to 503 draining, and new queries are refused.
func TestWorkerDrainFinishesInFlightStream(t *testing.T) {
	g := testGraph(t, 64, 57)
	const seed = 41
	w, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: seed}}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{ts.URL}, CoordinatorOptions{
		RequestTimeout: 30 * time.Second,
	})
	centers := []graph.NodeID{5, 22, 48}
	const samples = 200_000 // big enough for the tally to span the drain call

	type result struct {
		got [][]float64
		err error
	}
	done := make(chan result, 1)
	go func() {
		got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, samples)
		done <- result{got, err}
	}()
	time.Sleep(30 * time.Millisecond) // let the scatter take flight

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", res.err)
	}
	want := local.FromCenters(centers, conn.Unlimited, samples)
	for i := range want {
		sameFloats(t, "drained round", res.got[i], want[i])
	}

	// Drained worker: healthz 503, tally refused, stream upgrade refused.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("drained healthz = %d %q, want 503 draining", resp.StatusCode, health.Status)
	}
	if _, err := coord.FromCentersCtx(context.Background(), []graph.NodeID{9}, conn.Unlimited, 100); err == nil {
		t.Fatal("query succeeded against a drained worker")
	} else if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("drained-worker error does not say draining: %v", err)
	}
}
