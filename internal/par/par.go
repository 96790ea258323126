// Package par splits CPU-bound work across goroutines drawn from one
// process-wide budget, so fan-outs that nest or run side by side share
// GOMAXPROCS workers instead of multiplying theirs.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// extras counts the goroutines Split has started that have not yet
// returned, across every caller in the process.
var extras atomic.Int64

// Split runs fn(i, k) for every i in [0, k) and returns once all have
// returned. fn(0, k) runs on the calling goroutine; fn(1, k) ... fn(k-1, k)
// run on extra goroutines taken, without waiting, from a process-wide
// budget of GOMAXPROCS extras (GOMAXPROCS is read on every call). k is at
// least 1 and at most both want and GOMAXPROCS, so a spent budget gives
// fewer, larger shares, never a wait. fn partitions its work by (i, k); a
// share may be empty.
func Split(want int, fn func(i, k int)) {
	k := 1 + reserve(want-1)
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for i := 1; i < k; i++ {
		go func() {
			defer wg.Done()
			// Return the slot before Done, so a caller that splits again
			// right after this Split finds the budget as it left it.
			defer extras.Add(-1)
			fn(i, k)
		}()
	}
	fn(0, k)
	wg.Wait()
}

// reserve takes up to n extras from the budget without waiting, and at
// most GOMAXPROCS-1 so that k stays within GOMAXPROCS, and returns how
// many it took.
func reserve(n int) int {
	limit := int64(runtime.GOMAXPROCS(0))
	n = min(n, int(limit)-1)
	for n > 0 {
		cur := extras.Load()
		take := min(int64(n), limit-cur)
		if take <= 0 {
			return 0
		}
		if extras.CompareAndSwap(cur, cur+take) {
			return int(take)
		}
	}
	return 0
}
