package cache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cardpi/internal/obs"
)

func k(hi, lo uint64) Key { return Key{Hi: hi, Lo: lo} }

func res(v float64) Result {
	return Result{Est: v, Lo: v / 2, Hi: v * 2, TrueRows: int64(v), HasTruth: true}
}

func TestCacheGetPut(t *testing.T) {
	c := New(Config{Entries: 64, Shards: 2})
	if _, ok := c.Get(k(1, 1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k(1, 1), c.Epoch().Load(), res(3))
	got, ok := c.Get(k(1, 1))
	if !ok || got != res(3) {
		t.Fatalf("got %+v ok=%v, want %+v", got, ok, res(3))
	}
	if _, ok := c.Get(k(1, 2)); ok {
		t.Fatal("hit for a different key")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// Same-key overwrite replaces in place.
	c.Put(k(1, 1), c.Epoch().Load(), res(5))
	if got, _ := c.Get(k(1, 1)); got != res(5) {
		t.Fatalf("overwrite not visible: %+v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after overwrite = %d, want 1", c.Len())
	}
}

func TestCacheEpochInvalidation(t *testing.T) {
	c := New(Config{Entries: 64, Shards: 1})
	e := c.Epoch().Load()
	c.Put(k(1, 1), e, res(3))
	c.Invalidate()
	if _, ok := c.Get(k(1, 1)); ok {
		t.Fatal("stale-epoch entry served after Invalidate")
	}
	// A fill tagged with the pre-bump epoch must be dropped.
	c.Put(k(2, 2), e, res(4))
	if _, ok := c.Get(k(2, 2)); ok {
		t.Fatal("pre-bump fill accepted after Invalidate")
	}
	// Fresh fills under the new epoch work.
	c.Put(k(1, 1), c.Epoch().Load(), res(7))
	if got, ok := c.Get(k(1, 1)); !ok || got != res(7) {
		t.Fatalf("post-bump fill not served: %+v ok=%v", got, ok)
	}
}

func TestCacheSharedEpochAcrossCaches(t *testing.T) {
	e := new(Epoch)
	a := New(Config{Entries: 32, Epoch: e})
	b := New(Config{Entries: 32, Epoch: e})
	a.Put(k(1, 1), e.Load(), res(1))
	b.Put(k(2, 2), e.Load(), res(2))
	a.Invalidate() // bumps the shared clock
	if _, ok := b.Get(k(2, 2)); ok {
		t.Fatal("shared-epoch bump did not invalidate the sibling cache")
	}
}

func TestCacheEvictionLRUWithinSet(t *testing.T) {
	// One shard, one set (ways entries): force set pressure and check the
	// least-recently-touched entry goes first.
	c := New(Config{Entries: ways, Shards: 1})
	if c.Cap() != ways {
		t.Fatalf("Cap = %d, want %d", c.Cap(), ways)
	}
	e := c.Epoch().Load()
	for i := 0; i < ways; i++ {
		c.Put(k(0, uint64(i)<<8), e, res(float64(i+1))) // same set (Hi=0), distinct keys
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := c.Get(k(0, 0)); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(k(0, uint64(ways)<<8), e, res(100))
	if _, ok := c.Get(k(0, 0)); !ok {
		t.Fatal("recently touched entry was evicted")
	}
	if _, ok := c.Get(k(0, 1<<8)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if got, ok := c.Get(k(0, uint64(ways)<<8)); !ok || got != res(100) {
		t.Fatal("newly filled entry missing after eviction")
	}
}

// TestCachePeekTouch: Peek reads without side effects — no counter, no
// recency stamp, no stale reclaim — and Touch later records the rows it
// answered as hits with Get's recency stamp.
func TestCachePeekTouch(t *testing.T) {
	m := NewMetrics(newTestRegistry(t))
	c := New(Config{Entries: ways, Shards: 1, Metrics: m})
	e := c.Epoch().Load()
	for i := 0; i < ways; i++ {
		c.Put(k(0, uint64(i)<<8), e, res(float64(i+1)))
	}
	if got, ok := c.Peek(k(0, 0)); !ok || got != res(1) {
		t.Fatalf("Peek(warm) = %v, %v", got, ok)
	}
	if _, ok := c.Peek(k(5, 5)); ok {
		t.Fatal("Peek found an absent key")
	}
	if m.Hits.Value() != 0 || m.Misses.Value() != 0 {
		t.Fatalf("Peek counted: hits=%d misses=%d", m.Hits.Value(), m.Misses.Value())
	}
	// Peek stamps no recency: key 0 is still the LRU victim.
	c.Put(k(0, uint64(ways)<<8), e, res(100))
	if _, ok := c.Peek(k(0, 0)); ok {
		t.Fatal("a Peek refreshed the entry's recency")
	}
	// Touch does: key 1 survives the next overflow, key 2 goes instead.
	c.Touch([]Key{k(0, 1<<8)})
	if m.Hits.Value() != 1 {
		t.Fatalf("Touch of one row counted %d hits, want 1", m.Hits.Value())
	}
	c.Put(k(0, uint64(ways+1)<<8), e, res(101))
	if _, ok := c.Peek(k(0, 1<<8)); !ok {
		t.Fatal("touched entry was evicted")
	}
	if _, ok := c.Peek(k(0, 2<<8)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	// A stale entry is a Peek miss and stays for Get to reclaim.
	size := m.Size.Value()
	c.Invalidate()
	if _, ok := c.Peek(k(0, 1<<8)); ok {
		t.Fatal("Peek answered from a stale epoch")
	}
	if m.EpochInvalidations.Value() != 0 || m.Size.Value() != size {
		t.Fatalf("Peek reclaimed a stale entry: invalidations=%d size=%d->%d",
			m.EpochInvalidations.Value(), size, m.Size.Value())
	}
}

func TestCacheMetricsAccounting(t *testing.T) {
	m := NewMetrics(newTestRegistry(t))
	c := New(Config{Entries: ways, Shards: 1, Metrics: m})
	e := c.Epoch().Load()
	c.Get(k(9, 9)) // miss
	c.Put(k(9, 9), e, res(1))
	c.Get(k(9, 9)) // hit
	if m.Hits.Value() != 1 || m.Misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", m.Hits.Value(), m.Misses.Value())
	}
	if m.Size.Value() != 1 {
		t.Fatalf("size=%d, want 1", m.Size.Value())
	}
	// Fill the single set and overflow it: one eviction.
	for i := 1; i < ways+1; i++ {
		c.Put(k(0, uint64(i)<<8|9), e, res(float64(i)))
	}
	if m.Evictions.Value() == 0 {
		t.Fatal("no eviction counted after overflowing the set")
	}
	// Epoch bump then read a stale entry (the freshest fill is guaranteed
	// to have survived the evictions): epoch invalidation + size drop.
	size := m.Size.Value()
	c.Invalidate()
	c.Get(k(0, uint64(ways)<<8|9))
	if m.EpochInvalidations.Value() != 1 {
		t.Fatalf("epoch invalidations=%d, want 1", m.EpochInvalidations.Value())
	}
	if m.Size.Value() != size-1 {
		t.Fatalf("size=%d after stale reclaim, want %d", m.Size.Value(), size-1)
	}
}

func TestCacheDoCoalesces(t *testing.T) {
	m := NewMetrics(newTestRegistry(t))
	c := New(Config{Entries: 64, Metrics: m})
	const n = 16
	var calls atomic.Int64
	inFn := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]Result, n)
	run := func(i int) {
		defer wg.Done()
		r, _, _, err := c.Do(k(1, 1), func() (Result, uint64, bool, error) {
			calls.Add(1)
			close(inFn)
			<-gate // hold the flight open while the followers pile on
			return res(42), 7, true, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[i] = r
	}
	wg.Add(1)
	go run(0)
	<-inFn // the leader is inside fn; its flight is registered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go run(i)
	}
	// Wait until every follower is provably blocked on the flight, then
	// release the leader — this makes "exactly one estimator call" a
	// deterministic assertion, not a scheduling accident.
	for c.Waiters(k(1, 1)) != n-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d estimator calls for %d concurrent misses; want exactly 1", got, n)
	}
	if m.Coalesced.Value() != n-1 {
		t.Fatalf("coalesced=%d, want %d", m.Coalesced.Value(), n-1)
	}
	for i := range results {
		if results[i] != res(42) {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
	}
	// The leader stored the result: next Get hits.
	if _, ok := c.Get(k(1, 1)); !ok {
		t.Fatal("coalesced result was not cached")
	}
}

func TestCacheDoErrorAndNoStore(t *testing.T) {
	c := New(Config{Entries: 64})
	boom := errors.New("boom")
	_, _, _, err := c.Do(k(1, 1), func() (Result, uint64, bool, error) {
		return Result{}, 0, true, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get(k(1, 1)); ok {
		t.Fatal("errored result was cached")
	}
	r, aux, _, err := c.Do(k(1, 1), func() (Result, uint64, bool, error) {
		return res(5), 3, false, nil // e.g. a degraded (depth>0) answer
	})
	if err != nil || r != res(5) || aux != 3 {
		t.Fatalf("Do = %+v aux=%d err=%v", r, aux, err)
	}
	if _, ok := c.Get(k(1, 1)); ok {
		t.Fatal("store=false result was cached")
	}
}

func TestCacheDoMidFlightInvalidation(t *testing.T) {
	c := New(Config{Entries: 64})
	inFn := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _, _ = c.Do(k(1, 1), func() (Result, uint64, bool, error) {
			close(inFn)
			<-gate
			return res(1), 0, true, nil
		})
	}()
	<-inFn
	c.Invalidate() // the chain swapped while the leader was computing
	close(gate)
	<-done
	if _, ok := c.Get(k(1, 1)); ok {
		t.Fatal("result computed under the old epoch was stored past the bump")
	}
	// And a post-bump Do must elect a fresh leader, not adopt the stale
	// flight's result.
	r, _, shared, err := c.Do(k(1, 1), func() (Result, uint64, bool, error) {
		return res(2), 0, true, nil
	})
	if err != nil || shared || r != res(2) {
		t.Fatalf("post-bump Do = %+v shared=%v err=%v", r, shared, err)
	}
}

// TestCacheClaimBatchAndDoShareFlights: a multi-key claimant (a batch) and
// Do callers coalesce through one flight table — a key claimed twice by the
// same batch is computed once, and a concurrent Do on a key the batch leads
// reuses the batch's result instead of running its own fn.
func TestCacheClaimBatchAndDoShareFlights(t *testing.T) {
	m := NewMetrics(newTestRegistry(t))
	c := New(Config{Entries: 64, Metrics: m})
	epoch := c.Epoch().Load()
	fa, leadA := c.Claim(k(1, 1), epoch)
	fb, leadB := c.Claim(k(2, 2), epoch)
	dup, leadDup := c.Claim(k(1, 1), epoch) // the batch repeats row a
	if !leadA || !leadB || leadDup || dup != fa {
		t.Fatalf("claims: leadA=%v leadB=%v leadDup=%v sameFlight=%v; want two leaders and one follower of a",
			leadA, leadB, leadDup, dup == fa)
	}
	doneDo := make(chan Result)
	go func() {
		r, _, shared, _ := c.Do(k(2, 2), func() (Result, uint64, bool, error) {
			t.Error("Do ran its own fn while the batch led the key")
			return Result{}, 0, false, nil
		})
		if !shared {
			t.Error("Do on a batch-led key not shared")
		}
		doneDo <- r
	}()
	for c.Waiters(k(2, 2)) != 1 {
		runtime.Gosched()
	}
	// Leaders finish before the batch waits on anything it follows.
	c.Finish(fa, res(1), 0, true, nil)
	c.Finish(fb, res(2), 4, false, nil)
	r, aux, err := c.Wait(dup)
	if err != nil || r != res(1) || aux != 0 {
		t.Fatalf("within-batch duplicate Wait = %+v aux=%d err=%v", r, aux, err)
	}
	if got := <-doneDo; got != res(2) {
		t.Fatalf("Do follower got %+v, want the batch leader's result", got)
	}
	if m.Coalesced.Value() != 2 {
		t.Fatalf("coalesced = %d, want 2 (the duplicate row and the Do caller)", m.Coalesced.Value())
	}
	if _, ok := c.Get(k(1, 1)); !ok {
		t.Fatal("stored flight result not cached")
	}
	if _, ok := c.Get(k(2, 2)); ok {
		t.Fatal("store=false flight result cached")
	}
	if c.Waiters(k(1, 1)) != -1 || c.Waiters(k(2, 2)) != -1 {
		t.Fatal("finished flights still registered")
	}
}

// TestCacheClaimStaleEpoch: a claim under an epoch snapshot that a bump has
// since retired still coalesces same-snapshot claimants, but its result is
// never stored, and a claim under the new epoch elects a fresh leader.
func TestCacheClaimStaleEpoch(t *testing.T) {
	c := New(Config{Entries: 64})
	old := c.Epoch().Load()
	f, leader := c.Claim(k(1, 1), old)
	c.Invalidate()
	fresh, freshLeader := c.Claim(k(1, 1), c.Epoch().Load())
	if !freshLeader || !leader {
		t.Fatal("post-bump claim adopted the pre-bump flight")
	}
	defer c.Finish(fresh, Result{}, 0, false, nil)
	c.Finish(f, res(1), 0, true, nil)
	if _, ok := c.Get(k(1, 1)); ok {
		t.Fatal("result computed under a retired epoch was stored")
	}
}

func TestCacheGetAllocs(t *testing.T) {
	c := New(Config{Entries: 256})
	key := k(3, 3)
	c.Put(key, c.Epoch().Load(), res(9))
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get(key); !ok {
			panic("lost entry")
		}
	}); n != 0 {
		t.Fatalf("Get allocates %v times per run; want 0", n)
	}
}

// TestCacheConcurrentChurn races fills, reads, and epoch bumps; run under
// -race it proves the locking discipline, and the final sweep proves no
// pre-bump result survives the last bump.
func TestCacheConcurrentChurn(t *testing.T) {
	c := New(Config{Entries: 128, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				key := k(uint64(i%32), uint64(w)<<32|uint64(i%32))
				e := c.Epoch().Load()
				// Odd rounds read the way a text-probed serve row does.
				var ok bool
				if i%2 == 0 {
					_, ok = c.Get(key)
				} else if _, ok = c.Peek(key); ok {
					c.Touch([]Key{key})
				}
				if !ok {
					c.Put(key, e, res(float64(e)))
				}
				if i%512 == 511 {
					c.Invalidate()
				}
			}
		}(w)
	}
	wg.Wait()
	c.Invalidate()
	// Every surviving entry is now stale by construction; all reads miss.
	for i := 0; i < 32; i++ {
		for w := 0; w < 4; w++ {
			if _, ok := c.Get(k(uint64(i), uint64(w)<<32|uint64(i))); ok {
				t.Fatal("stale entry survived the final bump")
			}
		}
	}
}

func newTestRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	return obs.NewRegistry()
}
