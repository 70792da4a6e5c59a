// Package par provides a small bounded worker pool for the repository's
// fan-out workloads: fold-model training, truth labeling, per-query interval
// production, and per-dataset experiment pipelines. It replaces hand-rolled
// `go func` fan-outs whose concurrency grew with the problem size (K fold
// models meant K goroutines) with a pool bounded by the worker count, so a
// K=50 Jackknife+ run on a 4-core box no longer oversubscribes memory and
// CPU.
//
// Determinism contract: items are distributed to workers dynamically, but
// every result is keyed by its item index, all items are always processed
// (an item error never cancels the rest), and the error returned is the one
// raised by the lowest-indexed failing item. Callers that seed per-item work
// (for example fold training with seed+fold) therefore observe output
// independent of the worker count and of scheduling order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cardpi/internal/obs"
)

// batchWorkers is the process-wide worker count for the sharded batch
// kernels (RunBlocks): 0 means "use runtime.GOMAXPROCS(0)". It is a single
// atomic so the serve layer's -workers flag can configure every batch
// kernel — model forward passes, conformal interval production, featurizer
// loops — in one place.
var batchWorkers atomic.Int64

// SetBatchWorkers sets the worker count the sharded batch kernels
// (RunBlocks) fan row blocks over. w <= 0 restores the default,
// runtime.GOMAXPROCS(0); values above GOMAXPROCS are stored as given but
// clamped at use (see RunBlocks). Results of every kernel built on
// RunBlocks are bit-identical for any worker count; this knob trades
// latency against CPU only. Safe for concurrent use (atomic store), though
// callers normally set it once at startup.
func SetBatchWorkers(w int) {
	if w < 0 {
		w = 0
	}
	batchWorkers.Store(int64(w))
}

// BatchWorkers returns the effective worker count for the sharded batch
// kernels: the value set by SetBatchWorkers, or runtime.GOMAXPROCS(0) when
// unset. Always >= 1.
func BatchWorkers() int {
	if w := int(batchWorkers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// BlockRange returns the half-open row range [lo, hi) of block b when n rows
// are partitioned into blocks contiguous, balanced blocks (sizes differ by
// at most one row, earlier blocks never smaller than later ones by more than
// one). The partition depends only on (n, blocks), never on scheduling, so
// block ownership is deterministic.
func BlockRange(n, blocks, b int) (lo, hi int) {
	return b * n / blocks, (b + 1) * n / blocks
}

// RunBlocks partitions [0, n) into contiguous row blocks and runs fn(lo, hi)
// for each block on the batch worker pool (BatchWorkers). The block count is
// min(BatchWorkers(), runtime.GOMAXPROCS(0), n/minBlock): the minBlock floor
// keeps small batches from being shredded into sub-minBlock crumbs, and the
// GOMAXPROCS clamp exists because these kernels are pure CPU — more workers
// than schedulable threads cannot reduce wall-clock, only add scheduler
// interleaving and cache pressure (measurably so on a 1-CPU box). With one
// block (or n <= minBlock) fn runs inline on the caller's goroutine with
// zero overhead. Blocks cover [0, n) exactly
// once, so kernels whose fn writes only rows [lo, hi) of a shared output are
// race-free and produce output independent of the worker count — the
// row-block-ownership contract every batch kernel in this repository builds
// on. All blocks always run; the returned error is that of the
// lowest-indexed failing block, which — because fn implementations scan
// their block in ascending row order and stop at the first failure — is the
// error of the lowest failing row, matching the sequential contract. A
// panic in fn reaches the caller's goroutine either way (see ForEachWorker).
func RunBlocks(n, minBlock int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if minBlock < 1 {
		minBlock = 1
	}
	w := BatchWorkers()
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	if maxBlocks := n / minBlock; w > maxBlocks {
		w = maxBlocks
	}
	if w <= 1 {
		return fn(0, n)
	}
	return NewPool(w).ForEach(w, func(b int) error {
		lo, hi := BlockRange(n, w, b)
		return fn(lo, hi)
	})
}

// Pool telemetry. The pool is process-wide, so its registry is too: par owns
// it and Metrics hands it to whatever serves /metrics. Recording is one
// atomic op per event, so the per-item cost is negligible next to the work
// items themselves (interval production, fold training, labeling).
var (
	metrics    = obs.NewRegistry()
	tasksTotal = metrics.Counter("cardpi_par_tasks_total",
		"Work items executed by the internal/par bounded worker pool.")
	queueDepth = metrics.IntGauge("cardpi_par_queue_depth",
		"Work items submitted to the pool and not yet finished (queued + running).")
	firstErrors = metrics.Counter("cardpi_par_first_errors_total",
		"Pool batches (ForEach/Map calls) that completed with at least one failing item.")
)

// Metrics returns the registry holding the cardpi_par_* pool families.
func Metrics() *obs.Registry { return metrics }

// Pool bounds the number of goroutines used by ForEach and Map. The zero
// value is not useful; construct with NewPool.
type Pool struct {
	workers int
}

// NewPool returns a pool running at most workers goroutines; workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// ForEach runs fn(i) for every i in [0, n) on at most p.Workers()
// goroutines. All items run even if some fail; the returned error is the
// error of the lowest-indexed failing item (nil if none failed).
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	return p.ForEachWorker(n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the worker index (in [0, Workers())) passed
// to fn, so callers can maintain per-worker state — scratch buffers, RNGs —
// without locking: a worker index is never active on two goroutines at once.
//
// A panicking item never unwinds a worker goroutine, where no caller could
// recover it: every other item still runs, then the panic of the lowest
// panicking index is re-raised on the calling goroutine, so a recover there
// (the Resilient chain's stage guard) sees it as if fn had run inline.
func (p *Pool) ForEachWorker(n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	queueDepth.Add(int64(n))
	var (
		next               atomic.Int64
		mu                 sync.Mutex
		firstIdx, panicIdx = -1, -1
		firstErr           error
		panicVal           any
	)
	// run is one item, with a panic recorded instead of unwinding the worker.
	run := func(wi, i int) error {
		defer func() {
			if pv := recover(); pv != nil {
				mu.Lock()
				if panicIdx < 0 || i < panicIdx {
					panicIdx, panicVal = i, pv
				}
				mu.Unlock()
			}
		}()
		return fn(wi, i)
	}
	work := func(wi int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			err := run(wi, i)
			tasksTotal.Inc()
			queueDepth.Add(-1)
			if err != nil {
				mu.Lock()
				if firstIdx < 0 || i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	if w := min(p.workers, n); w <= 1 {
		work(0) // degenerate pool: run inline, same contract
	} else {
		var wg sync.WaitGroup
		for wi := 0; wi < w; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				work(wi)
			}(wi)
		}
		wg.Wait()
	}
	if panicIdx >= 0 {
		panic(panicVal)
	}
	if firstErr != nil {
		firstErrors.Inc()
	}
	return firstErr
}

// ForEach runs fn over [0, n) on a default GOMAXPROCS-bounded pool.
func ForEach(n int, fn func(i int) error) error {
	return NewPool(0).ForEach(n, fn)
}

// Map runs fn(i) for every i in [0, n) on the pool and returns the results
// in item order. All items run even when some fail — no item is ever lost —
// and the returned error is that of the lowest-indexed failing item; its
// slot holds the zero value.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
