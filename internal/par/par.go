// Package par provides the tiny bounded-worker parallel-for primitive shared
// by the parallel multistart engine, the experiment sweeps, and the placer.
//
// The contract that makes determinism easy for callers: ForEach only decides
// *which goroutine* runs each index, never the meaning of the index. Callers
// that (a) derive any randomness from the index (not from shared state) and
// (b) write results into a slot addressed by the index get output that is
// bit-identical for every worker count, including 1.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalizes a configured worker count: values <= 0 mean
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on up to `workers` goroutines
// (<= 0 meaning GOMAXPROCS) and returns when all calls have finished. fn must
// be safe for concurrent invocation. With workers == 1 — or n == 1 — fn runs
// on the calling goroutine in index order, with no goroutines spawned.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach exposing which pool slot runs each index:
// fn(worker, i) with worker in [0, EffectiveWorkers(n, workers)). Callers use
// the worker index to pin per-worker state (e.g. one FM scratch per worker
// for the whole run instead of a pool round-trip per index). The contract is
// unchanged: the worker index must only select *storage*, never influence the
// meaning or result of index i, or bit-identical-across-worker-counts breaks.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	var never context.Context // nil: ForEachWorkerCtx never cancels
	ForEachWorkerCtx(never, n, workers, fn)
}

// ForEachWorkerCtx is ForEachWorker with cooperative cancellation: once ctx
// is done, no further indices are dispatched, but every index already handed
// to a worker runs to completion (fn is never interrupted mid-call). It
// returns the number of indices dispatched — all of which have completed by
// the time it returns. Indices are dispatched in order, so the set that ran
// is exactly the prefix [0, dispatched).
//
// Determinism caveat: *how many* indices run under cancellation depends on
// timing and worker count. Callers keep the per-index determinism contract
// (index i's result never changes), but the length of the completed prefix —
// and therefore any "best of completed" reduction — is only reproducible
// when ctx never fires. A nil ctx means no cancellation, and dispatch then
// costs one channel send per index, with no select.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) int {
	workers = EffectiveWorkers(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return i
			}
			fn(0, i)
		}
		return n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				fn(w, i)
			}
		}(w)
	}
	dispatched := 0
	if ctx == nil {
		for ; dispatched < n; dispatched++ {
			idx <- dispatched
		}
	} else {
	feed:
		for ; dispatched < n; dispatched++ {
			// select picks at random among ready cases, so a done context
			// must be checked first or an idle worker could still take the
			// index.
			if ctx.Err() != nil {
				break
			}
			select {
			case idx <- dispatched:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(idx)
	wg.Wait()
	return dispatched
}

// EffectiveWorkers returns the number of pool slots ForEach/ForEachWorker
// actually use for n items and a configured worker count: Workers(workers)
// clamped to n, and at least 1 when there is work.
func EffectiveWorkers(n, workers int) int {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 && n > 0 {
		workers = 1
	}
	return workers
}
