package shard

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/faultinject"
	"ucgraph/internal/graph"
	"ucgraph/internal/influence"
	"ucgraph/internal/knn"
	"ucgraph/internal/rng"
	"ucgraph/internal/worldstore"
)

// testGraph builds a deterministic ring-with-chords uncertain graph.
func testGraph(t testing.TB, n int, seed uint64) *graph.Uncertain {
	t.Helper()
	x := rng.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%n), 0.2+0.7*x.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		u, v := int32(x.Intn(n)), int32(x.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v, 0.1+0.6*x.Float64()) // duplicate edges rejected, fine
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// startWorkers spins up count in-process shard workers over g, each with
// its own private world store (modelling separate processes), and returns
// their base URLs.
func startWorkers(t testing.TB, name string, g *graph.Uncertain, seed uint64, count int) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		w, err := NewWorker([]WorkerGraph{{Name: name, Graph: g, Seed: seed}}, WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs
}

// sameFloats asserts bit-identical float slices.
func sameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v (bit difference)", label, i, got[i], want[i])
		}
	}
}

// TestPartitionCoversExactlyOnce: the fleet's block assignment, cut into
// per-worker world ranges the way scatter cuts it, covers the query range
// exactly once with block-aligned interior boundaries, and ownership is
// sticky when the stream grows.
func TestPartitionCoversExactlyOnce(t *testing.T) {
	newTestFleet := func(nw int) *fleet {
		addrs := make([]string, nw)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
		}
		return newFleet(addrs, &http.Client{})
	}
	blocks := func(lo, hi, bw int) []int {
		var bis []int
		for bi := lo / bw; bi*bw < hi; bi++ {
			bis = append(bis, bi)
		}
		return bis
	}
	for _, tc := range []struct{ lo, hi, bw, nw, rot int }{
		{0, 1000, 256, 1, 0},
		{0, 1000, 256, 3, 0},
		{0, 1000, 256, 4, 1},
		{100, 900, 256, 2, 0},
		{500, 501, 256, 4, 2},
		{0, 2048, 64, 5, 3},
	} {
		assign, err := newTestFleet(tc.nw).assign(blocks(tc.lo, tc.hi, tc.bw), nil, tc.rot)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]int, tc.hi)
		for slot, bis := range assign {
			for _, bi := range bis {
				if want := (bi + tc.rot) % tc.nw; slot != want {
					t.Fatalf("%+v: block %d on slot %d, want striped slot %d", tc, bi, slot, want)
				}
			}
			for _, rg := range blockRanges(bis, tc.lo, tc.hi, tc.bw) {
				if rg.Hi <= rg.Lo {
					t.Fatalf("%+v: empty range %+v", tc, rg)
				}
				for i := rg.Lo; i < rg.Hi; i++ {
					covered[i]++
				}
				// Interior boundaries must be block-aligned so ranges map
				// onto whole worker-side blocks.
				if rg.Lo != tc.lo && rg.Lo%tc.bw != 0 {
					t.Fatalf("%+v: unaligned range start %d", tc, rg.Lo)
				}
				if rg.Hi != tc.hi && rg.Hi%tc.bw != 0 {
					t.Fatalf("%+v: unaligned range end %d", tc, rg.Hi)
				}
			}
		}
		for i := tc.lo; i < tc.hi; i++ {
			if covered[i] != 1 {
				t.Fatalf("%+v: world %d covered %d times", tc, i, covered[i])
			}
		}
	}
	// Ownership is sticky under extension: the blocks of [0, 700) keep
	// their workers when the range grows to [0, 1500), even when a later
	// round passes a different rotation.
	f := newTestFleet(4)
	first, err := f.assign(blocks(0, 700, 256), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := f.assign(blocks(0, 1500, 256), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[int]int)
	for slot, bis := range grown {
		for _, bi := range bis {
			owner[bi] = slot
		}
	}
	for slot, bis := range first {
		for _, bi := range bis {
			if owner[bi] != slot {
				t.Fatalf("block %d moved from slot %d to %d when the range grew", bi, slot, owner[bi])
			}
		}
	}
}

// TestCoordinatorBitIdentical is the acceptance test: coordinator
// estimates over 1, 2 and 4 workers (including worker counts that split
// the block ranges unevenly) are bit-identical to the single-process
// oracle, across depths, progressive extensions and pair queries.
func TestCoordinatorBitIdentical(t *testing.T) {
	g := testGraph(t, 96, 3)
	const seed = 11
	centers := []graph.NodeID{0, 7, 7, 41, 90, 13}
	// Sample sizes chosen to split unevenly across blocks (BlockWorlds is
	// 256 for a 96-node graph): r1 covers one partial block, r2 several.
	const r1, r2 = 170, 730

	for _, nw := range []int{1, 2, 3, 4} {
		local := conn.NewMonteCarlo(g, seed)
		coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, nw), CoordinatorOptions{})
		if !coord.Sharded() {
			t.Fatal("coordinator should be sharded")
		}
		if err := coord.Ping(context.Background()); err != nil {
			t.Fatalf("ping: %v", err)
		}
		for _, depth := range []int{conn.Unlimited, 2} {
			want, err := local.FromCentersCtx(context.Background(), centers, depth, r1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.FromCentersCtx(context.Background(), centers, depth, r1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				sameFloats(t, "FromCenters", got[i], want[i])
			}
			// Progressive extension: the coordinator scatters only
			// [r1, r2) and the merged tally still matches.
			want2 := local.FromCenters(centers, depth, r2)
			got2 := coord.FromCenters(centers, depth, r2)
			for i := range want2 {
				sameFloats(t, "FromCenters extension", got2[i], want2[i])
			}
			// A fresh single center after the batch.
			wantC := local.FromCenter(55, depth, r2)
			gotC := coord.FromCenter(55, depth, r2)
			sameFloats(t, "FromCenter", gotC, wantC)
		}
		wantP := local.Pair(3, 60, r2)
		gotP := coord.Pair(3, 60, r2)
		if math.Float64bits(wantP) != math.Float64bits(gotP) {
			t.Fatalf("workers=%d: Pair = %v, want %v", nw, gotP, wantP)
		}
	}
}

// TestCoordinatorMixedProgress exercises batches whose tallies sit at
// different sample counts (distinct scatter groups per rDone level).
func TestCoordinatorMixedProgress(t *testing.T) {
	g := testGraph(t, 64, 5)
	const seed = 9
	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, 2), CoordinatorOptions{})

	// Warm center 1 to 300 worlds, center 2 to 100; then batch all three
	// (one cold) to 500.
	local.FromCenter(1, conn.Unlimited, 300)
	local.FromCenter(2, conn.Unlimited, 100)
	coord.FromCenter(1, conn.Unlimited, 300)
	coord.FromCenter(2, conn.Unlimited, 100)
	want := local.FromCenters([]graph.NodeID{1, 2, 3}, conn.Unlimited, 500)
	got := coord.FromCenters([]graph.NodeID{1, 2, 3}, conn.Unlimited, 500)
	for i := range want {
		sameFloats(t, "mixed progress", got[i], want[i])
	}
}

// TestCoordinatorRetriesWithoutDoubleCounting kills a worker (its chaos
// proxy drops every connection) for a whole query: the coordinator
// re-scatters the failed blocks onto the survivor and the merged
// estimates stay bit-identical (any double- or under-count would change
// the integer tallies). After the "restart" the worker serves again.
func TestCoordinatorRetriesWithoutDoubleCounting(t *testing.T) {
	g := testGraph(t, 80, 7)
	const seed = 4
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		Retries:        3,
		RequestTimeout: 5 * time.Second,
	})

	proxy.SetDown(true) // the worker dies before the query
	centers := []graph.NodeID{2, 17, 44}
	want := local.FromCenters(centers, conn.Unlimited, 900)
	got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 900)
	if err != nil {
		t.Fatalf("query with dead worker: %v", err)
	}
	for i := range want {
		sameFloats(t, "retried query", got[i], want[i])
	}
	// The dead worker's failures are visible in the health stats.
	var failures uint64
	for _, st := range coord.WorkerStats() {
		failures += st.Failures
	}
	if failures == 0 {
		t.Fatal("expected recorded worker failures")
	}
	// After the restart, the worker serves again: a follow-up query uses
	// both workers and still matches.
	proxy.SetDown(false)
	want2 := local.FromCenters(centers, 2, 400)
	got2 := coord.FromCenters(centers, 2, 400)
	for i := range want2 {
		sameFloats(t, "post-restart query", got2[i], want2[i])
	}
}

// TestCoordinatorAllWorkersDown asserts a clean error — not a wrong or
// partial estimate — when every worker is unreachable.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	g := testGraph(t, 32, 1)
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // dead on arrival
	coord := NewCoordinator("tg", g, 1, []string{ts.URL}, CoordinatorOptions{
		Retries:        1,
		RequestTimeout: 500 * time.Millisecond,
	})
	if _, err := coord.FromCenterCtx(context.Background(), 0, conn.Unlimited, 64); err == nil {
		t.Fatal("expected an error with all workers down")
	}
	if err := coord.Ping(context.Background()); err == nil {
		t.Fatal("expected ping to fail")
	}
}

// TestCoordinatorFailedBatchResumes: a sharded batch with mixed progress
// that fails — every worker down, or the context cancelled mid-scatter —
// withholds its answer without moving a cached tally, so once a worker is
// back the same coordinator answers bit-identically to a fresh local
// estimator.
func TestCoordinatorFailedBatchResumes(t *testing.T) {
	g := testGraph(t, 64, 14)
	const seed = 19
	const r = 1100
	centers := []graph.NodeID{1, 2, 3, 2}
	for _, mode := range []string{"all workers down", "cancelled mid-scatter"} {
		t.Run(mode, func(t *testing.T) {
			workers := startWorkers(t, "tg", g, seed, 2)
			proxies := []*faultinject.Proxy{newChaosProxy(t, workers[0]), newChaosProxy(t, workers[1])}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var armed atomic.Bool
			var answers atomic.Int32
			coord := NewCoordinator("tg", g, seed, []string{proxies[0].URL(), proxies[1].URL()}, CoordinatorOptions{
				Retries:        2,
				RequestTimeout: 5 * time.Second,
				OnWorkerRTT: func(string, time.Duration) {
					// Every group spans blocks 0-4 (256 worlds each), so
					// both workers answer it: the third answer is the
					// second group's first, after the first group
					// gathered in full.
					if armed.Load() && answers.Add(1) == 3 {
						cancel()
					}
				},
			})
			// Mixed progress: center 1 at 300 worlds, center 2 at 100,
			// center 3 cold — three scatter groups.
			coord.FromCenter(1, conn.Unlimited, 300)
			coord.FromCenter(2, conn.Unlimited, 100)

			if mode == "all workers down" {
				for _, p := range proxies {
					p.SetDown(true)
				}
			} else {
				armed.Store(true)
			}
			if _, err := coord.FromCentersCtx(ctx, centers, conn.Unlimited, r); err == nil {
				t.Fatal("failed batch returned estimates")
			}
			proxies[0].SetDown(false)

			got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, r)
			if err != nil {
				t.Fatalf("after recovery: %v", err)
			}
			want := conn.NewMonteCarlo(g, seed).FromCenters(centers, conn.Unlimited, r)
			for i := range want {
				sameFloats(t, mode, got[i], want[i])
			}
		})
	}
}

// TestCoordinatorLocalFallback: with no workers configured, every surface
// answers locally and matches the library exactly.
func TestCoordinatorLocalFallback(t *testing.T) {
	g := testGraph(t, 48, 2)
	const seed = 6
	coord := NewCoordinator("tg", g, seed, nil, CoordinatorOptions{})
	if coord.Sharded() {
		t.Fatal("no workers -> not sharded")
	}
	local := conn.NewMonteCarlo(g, seed)
	sameFloats(t, "fallback FromCenter", coord.FromCenter(5, conn.Unlimited, 200), local.FromCenter(5, conn.Unlimited, 200))
	if got, want := coord.Pair(1, 30, 200), local.Pair(1, 30, 200); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fallback Pair = %v, want %v", got, want)
	}
	dd, err := coord.DistancesCtx(context.Background(), 3, 120)
	if err != nil {
		t.Fatal(err)
	}
	want := knn.SampleStore(worldstore.Shared(g, seed), 3, 120)
	if !reflect.DeepEqual(dd, want) {
		t.Fatal("fallback distance distribution differs from local")
	}
}

// TestCoordinatorDistancesBitIdentical: the scattered k-NN distance
// distribution equals the local one exactly, for several worker counts.
func TestCoordinatorDistancesBitIdentical(t *testing.T) {
	g := testGraph(t, 72, 8)
	const seed = 13
	const r = 600
	want := knn.SampleStore(worldstore.Shared(g, seed), 2, r)
	for _, nw := range []int{0, 1, 3} {
		coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, nw), CoordinatorOptions{})
		dd, err := coord.DistancesCtx(context.Background(), 2, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dd, want) {
			t.Fatalf("workers=%d: scattered distance distribution differs from local", nw)
		}
		for _, m := range []knn.Measure{knn.MedianDistance, knn.ByReliability} {
			if !reflect.DeepEqual(dd.KNN(10, m), want.KNN(10, m)) {
				t.Fatalf("workers=%d: KNN(measure %v) differs", nw, m)
			}
		}
	}
}

// TestCoordinatorInfluenceBitIdentical: scattered spread and greedy
// maximization match the local implementations exactly.
func TestCoordinatorInfluenceBitIdentical(t *testing.T) {
	g := testGraph(t, 56, 10)
	const seed = 17
	const r = 500
	ws := worldstore.Shared(g, seed)
	seeds := []graph.NodeID{4, 31}
	wantSpread := influence.Spread(ws, seeds, r)
	wantGreedy, err := influence.Greedy(ws, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []int{0, 1, 2, 4} {
		coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, nw), CoordinatorOptions{})
		gotSpread, err := coord.SpreadCtx(context.Background(), seeds, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotSpread) != math.Float64bits(wantSpread) {
			t.Fatalf("workers=%d: spread = %v, want %v", nw, gotSpread, wantSpread)
		}
		gotGreedy, err := coord.GreedyCtx(context.Background(), 4, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotGreedy, wantGreedy) {
			t.Fatalf("workers=%d: greedy = %+v, want %+v", nw, gotGreedy, wantGreedy)
		}
	}
}

// TestCoordinatorForkIsolation: a forked coordinator shares workers but
// not tallies, so its results do not depend on what the parent warmed.
func TestCoordinatorForkIsolation(t *testing.T) {
	g := testGraph(t, 40, 12)
	const seed = 3
	coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, 2), CoordinatorOptions{})
	// Warm the parent's tally for center 0 to high precision.
	coord.FromCenter(0, conn.Unlimited, 800)
	// A fork must answer a smaller request at the requested precision,
	// exactly like a fresh estimator would.
	fresh := conn.NewMonteCarlo(g, seed)
	sameFloats(t, "forked coordinator", coord.Fork().FromCenter(0, conn.Unlimited, 100), fresh.FromCenter(0, conn.Unlimited, 100))
	// The parent itself answers at its cached precision (the documented
	// higher-precision contract).
	warm := conn.NewMonteCarlo(g, seed)
	warm.FromCenter(0, conn.Unlimited, 800)
	sameFloats(t, "warm coordinator", coord.FromCenter(0, conn.Unlimited, 100), warm.FromCenter(0, conn.Unlimited, 100))
}

// TestWorkerValidation: malformed tally requests get an error frame over
// the v2 stream, not garbage tallies, and count as failed requests.
func TestWorkerValidation(t *testing.T) {
	g := testGraph(t, 16, 1)
	w, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: 1}}, WorkerOptions{MaxWorlds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)
	sc, err := newStreamClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.close)
	ctx := context.Background()

	cases := []TallyRequest{
		{Graph: "nope", Kind: KindConnected, Ranges: []Range{{0, 10}}, Centers: []int32{0}},
		{Graph: "tg", Kind: "bogus", Ranges: []Range{{0, 10}}},
		{Graph: "tg", Kind: KindConnected, Ranges: nil, Centers: []int32{0}},
		{Graph: "tg", Kind: KindConnected, Ranges: []Range{{5, 5}}, Centers: []int32{0}},
		{Graph: "tg", Kind: KindConnected, Ranges: []Range{{0, 2000}}, Centers: []int32{0}},
		{Graph: "tg", Kind: KindConnected, Ranges: []Range{{0, 10}}, Centers: []int32{99}},
		{Graph: "tg", Kind: KindConnected, Ranges: []Range{{20, 30}, {0, 10}}, Centers: []int32{0}},
		{Graph: "tg", Kind: KindPair, Ranges: []Range{{0, 10}}, U: 0, V: 77},
		{Graph: "tg", Kind: KindSpread, Ranges: []Range{{0, 10}}},
		{Graph: "tg", Kind: KindMarginal, Ranges: []Range{{0, 10}}, Candidates: []int32{99}},
	}
	for i, req := range cases {
		if kindNamed(req.Kind) != nil {
			if _, _, _, err := sc.call(ctx, &req, nil); err == nil {
				t.Fatalf("case %d: expected an error", i)
			}
			continue
		}
		// The encoder refuses unknown kinds, so send a raw REQ frame
		// carrying an unassigned kind code.
		conn, err := sc.get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		id := sc.nextID.Add(1)
		frame, err := encodeRequestFrame(id, &TallyRequest{Graph: "tg", Kind: KindComponents, Ranges: []Range{{0, 10}}})
		if err != nil {
			t.Fatal(err)
		}
		frame[4+12] = 0xee // the body's leading kind code
		ch, err := conn.register(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.writeFrame(sealFrame(frame, conn.sum)); err != nil {
			t.Fatal(err)
		}
		if res := <-ch; res.err == nil {
			t.Fatalf("case %d: expected an error", i)
		}
	}
	if c := w.Counters(); c.Failures == 0 || c.Requests != uint64(len(cases)) {
		t.Fatalf("counters: %+v", c)
	}
}

// TestWorkerPing: the ping response carries the identity the coordinator
// verifies.
func TestWorkerPing(t *testing.T) {
	g := testGraph(t, 24, 1)
	w, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: 5}}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)
	wc := newWorkerClient(ts.URL, &http.Client{})
	var resp PingResponse
	if err := wc.do(context.Background(), PathPing, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Graphs) != 1 || resp.Graphs[0].Name != "tg" ||
		resp.Graphs[0].Nodes != g.NumNodes() || resp.Graphs[0].Seed != 5 ||
		resp.Graphs[0].BlockWorlds <= 0 {
		t.Fatalf("ping: %+v", resp)
	}
	// A coordinator over a DIFFERENT seed must refuse the worker.
	bad := NewCoordinator("tg", g, 6, []string{ts.URL}, CoordinatorOptions{})
	if err := bad.Ping(context.Background()); err == nil {
		t.Fatal("expected a seed-mismatch ping error")
	}
}
