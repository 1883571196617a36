package sim

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) across a bounded pool of workers and waits for
// all of them. Each index is one independent job — in this repository, one
// simulation with its own Kernel and seed — so the work parallelizes
// without sharing any simulation state. Results must be written by fn into
// caller-owned per-index slots; because every index is visited exactly
// once, no locking is needed on the result side and output order is
// decided by the caller, not by scheduling.
//
// workers <= 0 runs the jobs sequentially, like workers == 1; the caller
// picks the width (core.Parallelism). If any fn returns an error,
// ForEach returns the error of the lowest failing index (deterministic
// regardless of scheduling); all indices are still visited.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential fast path: no goroutines, deterministic stack traces.
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var (
		next int64 = -1
		mu   sync.Mutex
		errI = n // lowest failing index
		errV error
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errI {
						errI, errV = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errV
}
