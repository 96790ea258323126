package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withProcs runs fn with GOMAXPROCS set to n, restoring it afterwards.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestSplitAlone pins the share count of a Split that has the budget to
// itself: min(want, GOMAXPROCS), at least 1, and every extra handed back.
func TestSplitAlone(t *testing.T) {
	withProcs(4, func() {
		for _, c := range []struct{ want, k int }{{-1, 1}, {0, 1}, {1, 1}, {3, 3}, {4, 4}, {9, 4}} {
			got := 0
			Split(c.want, func(i, k int) {
				if i == 0 {
					got = k
				}
			})
			if got != c.k {
				t.Errorf("Split(%d): k = %d, want %d", c.want, got, c.k)
			}
			if n := extras.Load(); n != 0 {
				t.Fatalf("Split(%d) left %d extras reserved", c.want, n)
			}
		}
	})
}

// TestSplitSpentBudget checks that a Split started while other shares
// hold the budget gets fewer shares instead of waiting.
func TestSplitSpentBudget(t *testing.T) {
	withProcs(4, func() {
		release := make(chan struct{})
		nested := 0
		Split(4, func(i, k int) {
			if i > 0 {
				<-release // hold this extra until share 0 has split again
				return
			}
			// Shares 1-3 hold 3 of the 4 extras.
			Split(4, func(j, k2 int) {
				if j == 0 {
					nested = k2
				}
			})
			close(release)
		})
		if nested != 2 {
			t.Fatalf("nested Split(4) with 3 of 4 extras in use: k = %d, want 2", nested)
		}
	})
}

// TestSplitConcurrentNested calls Split from many goroutines at once, each
// share splitting again, and checks that every (call, i) runs exactly
// once, that k stays within want and GOMAXPROCS, and that the extras in
// flight never exceed GOMAXPROCS.
func TestSplitConcurrentNested(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			var running atomic.Int64 // shares i > 0 inside fn right now
			var split func(want, depth int)
			split = func(want, depth int) {
				hits := make([]atomic.Int32, max(want, 1))
				kSeen := 0
				Split(want, func(i, k int) {
					if i > 0 {
						if n := running.Add(1); n > int64(procs) {
							t.Errorf("GOMAXPROCS=%d: %d extras running at once", procs, n)
						}
						defer running.Add(-1)
					}
					if n := extras.Load(); n > int64(procs) {
						t.Errorf("GOMAXPROCS=%d: %d extras reserved", procs, n)
					}
					if k > max(want, 1) || k > procs || i >= k {
						t.Errorf("GOMAXPROCS=%d Split(%d): share %d of k = %d", procs, want, i, k)
						return
					}
					if i == 0 {
						kSeen = k
					}
					hits[i].Add(1)
					if depth > 0 {
						split(1+(i+want)%5, depth-1)
					}
					runtime.Gosched()
				})
				for i := range hits {
					runs := int32(0)
					if i < kSeen {
						runs = 1
					}
					if n := hits[i].Load(); n != runs {
						t.Errorf("GOMAXPROCS=%d Split(%d) with k = %d: share %d ran %d times", procs, want, kSeen, i, n)
					}
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for call := 0; call < 20; call++ {
						split(1+(g+call)%6, 2)
					}
				}()
			}
			wg.Wait()
			if n := extras.Load(); n != 0 {
				t.Fatalf("GOMAXPROCS=%d: %d extras still reserved", procs, n)
			}
		})
	}
}
