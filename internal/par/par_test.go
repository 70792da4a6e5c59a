package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrderAndItems(t *testing.T) {
	p := NewPool(4)
	const n = 1000
	out, err := Map(p, n, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapFirstErrorByIndexAndNoLostItems(t *testing.T) {
	p := NewPool(8)
	const n = 500
	var processed atomic.Int64
	sentinel := errors.New("boom")
	out, err := Map(p, n, func(i int) (int, error) {
		processed.Add(1)
		// Items 100, 37 and 400 fail; the reported error must be item 37's.
		if i == 100 || i == 37 || i == 400 {
			return 0, fmt.Errorf("item %d: %w", i, sentinel)
		}
		return i + 1, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, sentinel) || err.Error() != "item 37: boom" {
		t.Fatalf("expected lowest-index error (item 37), got %v", err)
	}
	if got := processed.Load(); got != n {
		t.Fatalf("processed %d items, want all %d despite errors", got, n)
	}
	for i, v := range out {
		if i == 100 || i == 37 || i == 400 {
			if v != 0 {
				t.Fatalf("failed item %d slot = %d, want zero value", i, v)
			}
			continue
		}
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestForEachBoundedConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var cur, peak atomic.Int64
	err := p.ForEach(200, func(int) error {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent items, pool bound is %d", got, workers)
	}
}

func TestForEachWorkerIndexIsExclusive(t *testing.T) {
	const workers = 5
	p := NewPool(workers)
	busy := make([]atomic.Bool, workers)
	err := p.ForEachWorker(500, func(w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker index %d out of range", w)
		}
		if !busy[w].CompareAndSwap(false, true) {
			return fmt.Errorf("worker %d active twice concurrently", w)
		}
		defer busy[w].Store(false)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSequentialDegenerateCases(t *testing.T) {
	p := NewPool(1)
	if err := p.ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0 should be a no-op, got %v", err)
	}
	var seen []int
	err := p.ForEach(4, func(i int) error {
		seen = append(seen, i)
		if i == 1 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 1" {
		t.Fatalf("want first error from item 1, got %v", err)
	}
	if len(seen) != 4 {
		t.Fatalf("sequential pool must still run all items, ran %d", len(seen))
	}
	if NewPool(0).Workers() < 1 {
		t.Fatal("default pool must have at least one worker")
	}
}

func TestBlockRangeCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000, 1024} {
		for _, blocks := range []int{1, 2, 3, 4, 7, 16} {
			if blocks > n {
				continue
			}
			next := 0
			for b := 0; b < blocks; b++ {
				lo, hi := BlockRange(n, blocks, b)
				if lo != next {
					t.Fatalf("n=%d blocks=%d block %d starts at %d, want %d", n, blocks, b, lo, next)
				}
				if hi <= lo {
					t.Fatalf("n=%d blocks=%d block %d is empty [%d,%d)", n, blocks, b, lo, hi)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d blocks=%d covered %d rows", n, blocks, next)
			}
		}
	}
}

func TestRunBlocksCoverageAndWorkerInvariance(t *testing.T) {
	// Raise GOMAXPROCS so the sweep exercises real multi-goroutine fan-out
	// even on a single-CPU box (RunBlocks clamps the block count to it).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer SetBatchWorkers(0)
	const n = 1000
	for _, w := range []int{1, 2, 3, 4, 16} {
		SetBatchWorkers(w)
		hits := make([]atomic.Int64, n)
		if err := RunBlocks(n, 8, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("W=%d: row %d visited %d times, want exactly 1", w, i, got)
			}
		}
	}
}

func TestRunBlocksMinBlockForcesInline(t *testing.T) {
	defer SetBatchWorkers(0)
	SetBatchWorkers(8)
	calls := 0
	// n < 2*minBlock ⇒ a single block, run inline on the caller.
	if err := RunBlocks(100, 64, func(lo, hi int) error {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("inline block = [%d,%d), want [0,100)", lo, hi)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("ran %d blocks, want 1", calls)
	}
	if err := RunBlocks(0, 1, func(int, int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
}

func TestRunBlocksLowestBlockError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer SetBatchWorkers(0)
	SetBatchWorkers(4)
	var ran atomic.Int64
	err := RunBlocks(400, 1, func(lo, hi int) error {
		ran.Add(int64(hi - lo))
		// Blocks starting at 100 and 200 fail; block 100's error must win.
		if lo == 100 || lo == 200 {
			return fmt.Errorf("block at %d", lo)
		}
		return nil
	})
	if err == nil || err.Error() != "block at 100" {
		t.Fatalf("want lowest-block error, got %v", err)
	}
	if got := ran.Load(); got != 400 {
		t.Fatalf("ran %d rows, want all 400 despite errors", got)
	}
}

func TestBatchWorkersDefaultAndClamp(t *testing.T) {
	defer SetBatchWorkers(0)
	SetBatchWorkers(-5)
	if got := BatchWorkers(); got < 1 {
		t.Fatalf("BatchWorkers() = %d after negative set, want >= 1", got)
	}
	SetBatchWorkers(3)
	if got := BatchWorkers(); got != 3 {
		t.Fatalf("BatchWorkers() = %d, want 3", got)
	}
	SetBatchWorkers(0)
	if got := BatchWorkers(); got < 1 {
		t.Fatalf("default BatchWorkers() = %d, want >= 1", got)
	}
}

func TestPoolMetricsDeltas(t *testing.T) {
	// The pool's metrics are process-wide counters on the default obs
	// registry, so assert deltas rather than absolute values.
	tasksBefore := tasksTotal.Value()
	errsBefore := firstErrors.Value()
	depthBefore := queueDepth.Value()

	p := NewPool(4)
	const n = 257
	err := p.ForEach(n, func(i int) error {
		if i == 100 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected error")
	}
	if got := tasksTotal.Value() - tasksBefore; got != n {
		t.Fatalf("tasksTotal delta = %d, want %d", got, n)
	}
	if got := firstErrors.Value() - errsBefore; got != 1 {
		t.Fatalf("firstErrors delta = %d, want 1", got)
	}
	if got := queueDepth.Value(); got != depthBefore {
		t.Fatalf("queueDepth = %d after completion, want %d", got, depthBefore)
	}

	// Error-free sequential batch: only tasksTotal moves.
	if err := NewPool(1).ForEach(3, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := firstErrors.Value() - errsBefore; got != 1 {
		t.Fatalf("firstErrors delta after clean batch = %d, want still 1", got)
	}
	if got := tasksTotal.Value() - tasksBefore; got != n+3 {
		t.Fatalf("tasksTotal delta = %d, want %d", got, n+3)
	}
}

// TestForEachWorkerPanicReraisedOnCaller: a panic on a worker goroutine must
// surface on the calling goroutine (where a recover can catch it) after every
// other item has run, carrying the lowest panicking index's value.
func TestForEachWorkerPanicReraisedOnCaller(t *testing.T) {
	const n = 64
	var ran atomic.Int64
	got := func() (pv any) {
		defer func() { pv = recover() }()
		_ = NewPool(4).ForEach(n, func(i int) error {
			ran.Add(1)
			if i%16 == 5 {
				panic(fmt.Sprintf("item %d", i))
			}
			return nil
		})
		return nil
	}()
	if got != "item 5" {
		t.Fatalf("recovered %v on the caller, want the lowest panicking item's value \"item 5\"", got)
	}
	if r := ran.Load(); r != n {
		t.Fatalf("%d of %d items ran; a panic must not abandon the rest", r, n)
	}
}

// TestRunBlocksPanicReraisedOnCaller: a sharded kernel whose block panics on a
// worker goroutine re-raises on the caller instead of crashing the process.
func TestRunBlocksPanicReraisedOnCaller(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	SetBatchWorkers(2)
	defer SetBatchWorkers(0)
	got := func() (pv any) {
		defer func() { pv = recover() }()
		_ = RunBlocks(100, 1, func(lo, hi int) error {
			if lo > 0 {
				panic("second block")
			}
			return nil
		})
		return nil
	}()
	if got != "second block" {
		t.Fatalf("recovered %v on the caller, want \"second block\"", got)
	}
}
