// Package parallel is the shared intra-stage scheduling substrate for the
// library's CPU-bound hot loops. Graph metrics (internal/graph), Brandes
// betweenness (internal/centrality) and the Clauset–Shalizi–Newman bootstrap
// (internal/powerlaw) all shard their work through ChunkReduce or ChunkFold,
// so every sharded loop in the process competes for one global token pool
// instead of each spawning GOMAXPROCS goroutines and oversubscribing the
// scheduler when several pipeline stages run at once.
//
// The package enforces the library's determinism contract for data
// parallelism: work is split into fixed-width chunks whose layout depends
// only on the problem size — never on the worker count — and per-chunk
// results are returned (or folded) in chunk order so callers can reduce them
// with a deterministic (in particular, floating-point-stable) left fold.
// Scheduling is dynamic; the reduction order is not. See
// docs/ARCHITECTURE.md.
package parallel

import (
	"runtime"
	"sync"
)

// tokens caps the total number of concurrently executing chunk workers
// process-wide. Several analysis stages can shard their loops at once under
// the pipeline scheduler; the shared cap composes their demands instead of
// multiplying them.
var tokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// Workers resolves a caller-supplied worker budget: values <= 0 select
// GOMAXPROCS. This is the same convention as core.Options.Parallelism, so a
// budget can be threaded through unmodified.
func Workers(budget int) int {
	if budget <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return budget
}

// ChunkReduce splits [0, n) into fixed-width chunks, evaluates fn on each
// chunk from a bounded worker pool, and returns the per-chunk results in
// chunk order. At most Workers(workers) goroutines run fn, each holding a
// process-wide token while it works. Chunks are claimed in index order, so
// scheduling is dynamic but the output layout — and therefore any ordered
// reduction over it — is identical at every worker count.
//
// chunk is the shard width in items and must not be derived from the worker
// count, or the determinism guarantee is lost; chunk <= 0 selects a single
// chunk covering all of [0, n).
func ChunkReduce[T any](n, chunk, workers int, fn func(lo, hi int) T) []T {
	var out []T
	chunkFold(n, chunk, workers, 0, fn, func(v T) { out = append(out, v) })
	return out
}

// ChunkFold is ChunkReduce with the results consumed as they arrive: fold
// receives each chunk's result exactly once and in chunk order, as soon as
// that chunk and every earlier one are done, so a left fold over it is the
// one a serial loop would make, with the same bits at every worker budget.
// Calls to fold never overlap, and each happens after the previous one
// returns; fold may run on any of the worker goroutines.
//
// A worker claims chunk c only while c is below the next chunk to fold plus
// 2·Workers(workers), so at most that many results are computed, in flight
// or waiting at once, whatever the chunk count: a caller folding large
// per-chunk vectors keeps O(workers) of them live rather than one per chunk.
func ChunkFold[T any](n, chunk, workers int, fn func(lo, hi int) T, fold func(T)) {
	chunkFold(n, chunk, workers, 2*Workers(workers), fn, fold)
}

// chunkFold is the one scheduling loop under ChunkReduce and ChunkFold.
// window bounds how far claims may run ahead of the fold (<= 0: no bound).
func chunkFold[T any](n, chunk, workers, window int, fn func(lo, hi int) T, fold func(T)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = n
	}
	chunks := (n + chunk - 1) / chunk
	run := func(c int) T { return fn(c*chunk, min(c*chunk+chunk, n)) }
	w := Workers(workers)
	if w > chunks {
		w = chunks
	}
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			fold(run(c))
		}
		return
	}
	if window <= 0 || window > chunks {
		window = chunks
	}
	// Results wait in a ring indexed by chunk mod window until every
	// earlier chunk is folded. Claims stay below folded+window, so no two
	// waiting chunks share a slot.
	var (
		mu      sync.Mutex
		claimed = sync.NewCond(&mu)
		next    int // next chunk to claim
		folded  int // next chunk to fold
		folding bool
		slot    = make([]T, window)
		ready   = make([]bool, window)
		wg      sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		tokens <- struct{}{}
		defer func() { <-tokens }()
		// mu is released around fn and fold, so it is not unlocked by
		// a defer: a panic there must surface as itself.
		mu.Lock()
		for {
			for next < chunks && next >= folded+window {
				claimed.Wait()
			}
			if next >= chunks {
				mu.Unlock()
				return
			}
			c := next
			next++
			mu.Unlock()
			v := run(c)
			mu.Lock()
			slot[c%window], ready[c%window] = v, true
			// One goroutine at a time drains the run of consecutive
			// finished chunks; a chunk that finishes meanwhile is
			// picked up by the drain already under way.
			if folding {
				continue
			}
			folding = true
			for ready[folded%window] {
				i := folded % window
				v := slot[i]
				var zero T
				slot[i], ready[i] = zero, false
				mu.Unlock()
				fold(v)
				mu.Lock()
				folded++
				claimed.Broadcast()
			}
			folding = false
		}
	}
	wg.Add(w)
	for i := 0; i < w; i++ {
		go work()
	}
	wg.Wait()
}
