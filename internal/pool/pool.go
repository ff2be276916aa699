// Package pool provides the bounded worker pool used to parallelize the
// per-cell LP work of the index builders.
//
// The builders follow a compute/apply split: the embarrassingly parallel
// part (feasibility LPs, dominance tests, candidate refinement) fans out
// over ForEach with each goroutine writing only its own result slot, and
// the structural mutations (cell allocation, edge wiring) are then applied
// sequentially in input order. Results are therefore deterministic — the
// same index bytes regardless of the worker count.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default parallelism: the process's GOMAXPROCS
// at call time.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Clamp normalizes a worker-count setting: values below 1 mean "use the
// default"; the result is capped at n, the number of independent tasks.
func Clamp(workers, n int) int {
	if workers < 1 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns once all calls have completed. Work is handed out through an
// atomic counter, so uneven per-item costs balance across workers. With
// workers <= 1 (or n <= 1) everything runs inline on the caller's
// goroutine — the sequential reference path.
//
// fn must confine its writes to data owned by item i (e.g. results[i]);
// ForEach provides no other synchronization beyond the final join.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
