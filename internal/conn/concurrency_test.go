package conn

import (
	"runtime"
	"sync"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// gridGraph builds a w x h grid with edge probability p: large enough that
// tally sharding actually splits work, with nontrivial connectivity.
func gridGraph(t *testing.T, w, h int, p float64) *graph.Uncertain {
	t.Helper()
	b := graph.NewBuilder(w * h)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if err := b.AddEdge(id(x, y), id(x+1, y), p); err != nil {
					t.Fatal(err)
				}
			}
			if y+1 < h {
				if err := b.AddEdge(id(x, y), id(x, y+1), p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withProcs runs fn with GOMAXPROCS, the worker budget of every fan-out,
// set to n, and restores the previous value afterwards.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestFromCenterDeterministicAcrossWorkers is the engine's core contract:
// for a fixed seed the estimates are bit-identical whether the per-world
// tallies are accumulated serially or sharded across 4 or 16 workers, for
// both unlimited-depth label scans and depth-bounded BFS, including
// incremental extensions of a cached tally.
func TestFromCenterDeterministicAcrossWorkers(t *testing.T) {
	g := gridGraph(t, 12, 10, 0.6)
	const seed = 42
	for _, depth := range []int{Unlimited, 3} {
		// Reference: serial accumulation, with an incremental extension.
		ref := NewMonteCarlo(g, seed)
		var want []float64
		withProcs(1, func() {
			ref.FromCenter(5, depth, 64)
			want = ref.FromCenter(5, depth, 777)
		})

		for _, workers := range []int{4, 16} {
			mc := NewMonteCarlo(g, seed)
			var got []float64
			withProcs(workers, func() {
				mc.FromCenter(5, depth, 64) // prime the tally, then extend
				got = mc.FromCenter(5, depth, 777)
			})
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("depth=%d workers=%d node %d: %v != serial %v",
						depth, workers, u, got[u], want[u])
				}
			}
		}
	}
}

// TestFromCenterConcurrentHammer fires many goroutines at one MonteCarlo —
// mixed centers, depths and sample sizes, so cache hits, misses and
// incremental extensions interleave — and then checks every answer against
// a fresh serial estimator. Run under -race this doubles as the engine's
// data-race probe.
func TestFromCenterConcurrentHammer(t *testing.T) {
	g := gridGraph(t, 10, 8, 0.55)
	const seed = 7
	mc := NewMonteCarlo(g, seed)

	// A fixed pool of (center, depth, r) keys; goroutines hit random keys,
	// so the same tally is created, read and extended from many goroutines
	// at once. Every query for a key uses the key's r, so the tally covers
	// exactly r worlds and the answer is comparable to a serial oracle.
	type query struct {
		c     graph.NodeID
		depth int
		r     int
	}
	x := rng.NewXoshiro256(99)
	keys := make([]query, 0, 40)
	seen := map[[2]int]bool{}
	for len(keys) < 40 {
		q := query{c: graph.NodeID(x.Intn(g.NumNodes())), depth: Unlimited, r: 32 + x.Intn(400)}
		if len(keys)%2 == 0 {
			q.depth = 1 + len(keys)%4
		}
		// Distinct (center, depth) pairs only: colliding keys would share a
		// tally, making the expected world count ambiguous.
		id := [2]int{int(q.c), q.depth}
		if seen[id] {
			continue
		}
		seen[id] = true
		keys = append(keys, q)
	}

	const goroutines = 16
	const perG = 25
	picks := make([][]int, goroutines)
	results := make([][][]float64, goroutines)
	for i := range picks {
		picks[i] = make([]int, perG)
		results[i] = make([][]float64, perG)
		for j := range picks[i] {
			picks[i][j] = x.Intn(len(keys))
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j, ki := range picks[i] {
				q := keys[ki]
				results[i][j] = mc.FromCenter(q.c, q.depth, q.r)
			}
		}(i)
	}
	wg.Wait()

	// Check every concurrent answer against a fresh serial estimator.
	want := make(map[int][]float64, len(keys))
	for ki, q := range keys {
		serial := NewMonteCarlo(g, seed)
		withProcs(1, func() { want[ki] = serial.FromCenter(q.c, q.depth, q.r) })
	}
	for i := range picks {
		for j, ki := range picks[i] {
			got := results[i][j]
			for u := range want[ki] {
				if got[u] != want[ki][u] {
					t.Fatalf("key %d (c=%d depth=%d r=%d) node %d: concurrent %v != serial %v",
						ki, keys[ki].c, keys[ki].depth, keys[ki].r, u, got[u], want[ki][u])
				}
			}
		}
	}
}

// TestStoreConcurrentGrow extends one shared world store from many
// goroutines and checks the stream is the same as a serially grown one.
func TestStoreConcurrentGrow(t *testing.T) {
	g := gridGraph(t, 8, 8, 0.5)
	mc := NewMonteCarlo(g, 3)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mc.Store().Grow(100 + 50*i)
		}(i)
	}
	wg.Wait()
	want := NewMonteCarlo(g, 3)
	a := mc.FromCenter(0, Unlimited, 450)
	var b []float64
	withProcs(1, func() { b = want.FromCenter(0, Unlimited, 450) })
	for u := range a {
		if a[u] != b[u] {
			t.Fatalf("node %d: %v != %v", u, a[u], b[u])
		}
	}
}
