// Package parallel is the bounded worker pool behind the evaluation
// harness. Every embarrassingly-parallel loop in internal/experiments
// (simulation prewarming, scheme×memory sweeps, per-host sketch ingestion,
// per-flow grading) funnels through ForEach/ForEachErr, so the fan-out is
// the same everywhere: GOMAXPROCS. Width 1 degenerates to a plain
// sequential loop in the calling goroutine — callers collect results into
// index-addressed slices, so output is byte-identical at any width.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers reports the pool width used by ForEach: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n), spreading the iterations over
// min(Workers(), n) goroutines. Iterations are handed out dynamically
// (work-stealing counter), so uneven item costs balance; fn must write any
// result it produces into an index-addressed slot so that output does not
// depend on scheduling. ForEach returns once every iteration completed.
func ForEach(n int, fn func(i int)) {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
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

// ForEachErr is ForEach for fallible iterations. Every iteration runs even
// if an earlier one failed (results stay index-complete); the returned
// error is the lowest-index failure, so the caller sees the same error
// regardless of scheduling.
func ForEachErr(n int, fn func(i int) error) error {
	errs := make([]error, n)
	ForEach(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
