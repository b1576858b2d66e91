// Package workpool provides the bounded index-fan worker pool shared by
// the compiler's parallel phases: the mid-end's per-procedure passes
// (via pass.forEachProc) and the front end's deferred-body parse,
// per-function type checking, and per-function lowering. It is a leaf
// package so both ends of the pipeline can use one pool discipline
// without import cycles.
package workpool

import "sync"

// ForEachN applies fn to every index in [0, n), running up to `workers`
// indexes concurrently. Callers write results into an index-addressed
// slice and merge in order, so the aggregate is identical whatever order
// the workers finish in.
//
// fn(i) must touch only state owned by index i (plus read-only shared
// state); workers <= 1 runs serially on the calling goroutine. A panic in
// fn reaches the calling goroutine, as it would serially: the panicking
// worker leaves the indexes it has not started unrun, and once every
// worker has finished ForEachN re-panics with the first worker's value.
func ForEachN(n, workers int, fn func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	// Feed indexes through a channel so `workers` goroutines bound the
	// concurrency however many items the caller has.
	idx := make(chan int)
	panics := make([]any, workers) // what worker w recovered
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				// Drain, so the feeder below is never left blocked.
				if panics[w] = recover(); panics[w] != nil {
					for range idx {
					}
				}
			}()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
