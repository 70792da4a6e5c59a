// Package cache implements the serving-layer interval cache: a sharded,
// GC-friendly, epoch-invalidated map from canonical query keys to computed
// interval results, with singleflight coalescing of concurrent misses.
//
// Design (see DESIGN.md "Serving-layer interval cache"):
//
//   - Identity is the 128-bit hash of a query's canonical text (KeyOf):
//     predicate order and equivalent range forms are normalized and the
//     result rendered before hashing, so semantically identical queries
//     share one entry. KeyOfText hashes a raw line with the same framing,
//     so a line already spelled canonically is probed (Peek) before it is
//     parsed; other spellings are parsed and probed by KeyOf.
//   - Storage is set-associative: power-of-two shards (picked from the low
//     key bits), each a flat []entry array of N-way sets (picked from the
//     high key bits) under one mutex. The entry array holds no pointers,
//     so an arbitrarily large cache adds zero GC scan work.
//   - Eviction is approximate LRU within a set: a per-shard tick stamps
//     every hit and fill, and the victim is the smallest stamp among the
//     set's ways (empty and stale-epoch ways are always preferred).
//   - Invalidation is by epoch, not by deletion: every chain or table swap
//     bumps an atomic epoch; entries record the epoch they were filled
//     under and a read requires it to match, so one atomic increment makes
//     every stale entry unreachable without touching it. Fills drop
//     results whose computation started before the bump, so a swap can
//     never be papered over by an in-flight fill.
//
// All methods are safe for concurrent use. Get, Peek and Touch are
// allocation-free; the zero-alloc serve-path guarantee is enforced by
// AllocsPerRun tests here and in cmd/cardpi.
package cache

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"cardpi/internal/obs"
)

// Epoch is the shared invalidation clock. One Epoch is typically shared by
// every cache in a server so a single bump (chain swap, table mutation,
// promote/rollback) invalidates all cached state at once; swaps are rare
// and refills are cheap, so coarse invalidation buys simple correctness.
type Epoch struct {
	v atomic.Uint64
}

// Load returns the current epoch.
func (e *Epoch) Load() uint64 { return e.v.Load() }

// Bump advances the epoch, making every entry filled under earlier epochs
// unreachable in all caches sharing this Epoch. It must be called AFTER
// the new serving state is published (chain/table store): a computation
// that snapshots the old state and the old epoch is then guaranteed to
// either land before the bump (reclaimed by it) or be dropped at fill
// time. Returns the new epoch.
func (e *Epoch) Bump() uint64 { return e.v.Add(1) }

// Result is one cached answer: everything deterministic that the serve
// path computes for a query under a fixed chain and table. Ground truth is
// included because the serving demo owns the oracle (an exact count over
// the table's per-column value orders, which a hit skips along with the
// model and the interval); live telemetry (drift flag, rolling coverage)
// is never cached.
type Result struct {
	// Est is the point estimate in normalized selectivity units; -1 is the
	// sentinel for an unavailable estimate (matching the serve path).
	Est float64
	// Lo and Hi are the prediction interval bounds in normalized
	// selectivity units.
	Lo, Hi float64
	// TrueRows is the oracle cardinality, -1 when unavailable.
	TrueRows int64
	// HasTruth reports whether TrueRows carries a real count.
	HasTruth bool
}

// Metrics bundles the cardpi_cache_* instruments one cache reports into.
// Construct with NewMetrics; a nil Config.Metrics is NewMetrics(nil), whose
// instruments record without exporting (obs.Registry's nil rule).
type Metrics struct {
	// Hits counts reads answered from a live entry.
	Hits *obs.Counter
	// Misses counts reads that found no live entry.
	Misses *obs.Counter
	// Coalesced counts singleflight followers that reused a concurrent
	// leader's computation instead of executing their own.
	Coalesced *obs.Counter
	// Evictions counts live entries overwritten to make room.
	Evictions *obs.Counter
	// EpochInvalidations counts stale-epoch entries reclaimed (on read or
	// overwrite) after an epoch bump.
	EpochInvalidations *obs.Counter
	// Size tracks the number of live entries.
	Size *obs.IntGauge
}

// NewMetrics registers the cardpi_cache_* families on reg under the given
// labels (callers add a distinguishing label, e.g. unit="tenant/table",
// when several caches share one registry). See OBSERVABILITY.md.
func NewMetrics(reg *obs.Registry, labels ...obs.Label) *Metrics {
	return &Metrics{
		Hits: reg.Counter("cardpi_cache_hits_total",
			"Interval-cache reads answered from a live entry.", labels...),
		Misses: reg.Counter("cardpi_cache_misses_total",
			"Interval-cache reads that found no live entry.", labels...),
		Coalesced: reg.Counter("cardpi_cache_coalesced_total",
			"Concurrent cache misses that reused a singleflight leader's computation.", labels...),
		Evictions: reg.Counter("cardpi_cache_evictions_total",
			"Live interval-cache entries overwritten to make room.", labels...),
		EpochInvalidations: reg.Counter("cardpi_cache_epoch_invalidations_total",
			"Stale-epoch interval-cache entries reclaimed after an invalidation bump.", labels...),
		Size: reg.IntGauge("cardpi_cache_size",
			"Live interval-cache entries.", labels...),
	}
}

// ways is the set associativity: victim search scans this many entries, a
// single cache line's worth of keys, and a hot key survives up to ways-1
// colliding neighbors before approximate LRU picks it.
const ways = 8

// entry is one cache slot. The struct is pointer-free on purpose: shards
// hold flat []entry arrays the GC never scans.
type entry struct {
	key   Key
	epoch uint64
	tick  uint64
	res   Result
	used  bool
}

// shard is one lock domain: a flat set-associative entry array plus the
// LRU tick. Padded to a cache line so neighboring shards don't false-share.
type shard struct {
	mu      sync.Mutex
	tick    uint64
	entries []entry
	_       [24]byte
}

// Config sizes a Cache.
type Config struct {
	// Entries is the total capacity; it is rounded up so each shard holds
	// a power-of-two number of 8-way sets. <= 0 takes 4096.
	Entries int
	// Shards is the lock-domain count, rounded up to a power of two;
	// <= 0 takes 8.
	Shards int
	// Epoch is the shared invalidation clock; nil gives the cache a
	// private one (then Invalidate is the only bump source).
	Epoch *Epoch
	// Metrics receives the cardpi_cache_* counters; nil records them
	// without exporting, as NewMetrics(nil) (obs.Registry's nil rule).
	Metrics *Metrics
}

// Cache is the epoch-invalidated interval cache. See the package comment
// for the design; construct with New.
type Cache struct {
	epoch     *Epoch
	m         *Metrics
	shards    []shard
	shardMask uint64
	setMask   uint64

	// The flight table: one Flight per (key, epoch) in flight, shared by
	// Claim/Finish/Wait and Do. Keying by epoch means a bump strands old
	// flights — post-swap arrivals start a fresh computation on the new
	// chain rather than adopting a pre-swap leader's result.
	fmu    sync.Mutex
	flight map[flightKey]*Flight
}

// New builds a Cache from cfg (see Config for the rounding rules).
func New(cfg Config) *Cache {
	if cfg.Entries <= 0 {
		cfg.Entries = 4096
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	nShards := 1 << bits.Len(uint(cfg.Shards-1))
	perShard := (cfg.Entries + nShards - 1) / nShards
	nSets := (perShard + ways - 1) / ways
	if nSets < 1 {
		nSets = 1
	}
	nSets = 1 << bits.Len(uint(nSets-1))
	c := &Cache{
		epoch:     cfg.Epoch,
		m:         cfg.Metrics,
		shards:    make([]shard, nShards),
		shardMask: uint64(nShards - 1),
		setMask:   uint64(nSets - 1),
		flight:    make(map[flightKey]*Flight),
	}
	if c.epoch == nil {
		c.epoch = new(Epoch)
	}
	if c.m == nil {
		c.m = NewMetrics(nil)
	}
	for i := range c.shards {
		c.shards[i].entries = make([]entry, nSets*ways)
	}
	return c
}

// Cap returns the total entry capacity after rounding.
func (c *Cache) Cap() int { return len(c.shards) * len(c.shards[0].entries) }

// Epoch returns the cache's invalidation clock (shared or private).
func (c *Cache) Epoch() *Epoch { return c.epoch }

// Invalidate bumps the epoch, making every current entry unreachable (in
// every cache sharing the clock). See Epoch.Bump for the ordering rule.
func (c *Cache) Invalidate() { c.epoch.Bump() }

// Get returns the live entry for k, if any. Allocation-free. A located
// entry whose epoch predates the current one counts as a miss, is
// reclaimed on the spot, and increments the epoch-invalidation counter.
func (c *Cache) Get(k Key) (Result, bool) {
	cur := c.epoch.Load()
	sh := &c.shards[k.Lo&c.shardMask]
	base := (k.Hi & c.setMask) * ways
	sh.mu.Lock()
	for i := base; i < base+ways; i++ {
		e := &sh.entries[i]
		if e.used && e.key == k {
			if e.epoch != cur {
				e.used = false
				sh.mu.Unlock()
				c.m.EpochInvalidations.Inc()
				c.m.Size.Add(-1)
				c.m.Misses.Inc()
				return Result{}, false
			}
			sh.tick++
			e.tick = sh.tick
			res := e.res
			sh.mu.Unlock()
			c.m.Hits.Inc()
			return res, true
		}
	}
	sh.mu.Unlock()
	c.m.Misses.Inc()
	return Result{}, false
}

// Peek returns the live entry for k, if any, without side effects: no
// counter moves, no recency stamp, and a stale-epoch entry is left for Get
// to reclaim. Allocation-free. It lets a caller probe rows of a request
// that may still be rejected; once the request is accepted, Touch records
// the rows it answered from Peek.
func (c *Cache) Peek(k Key) (Result, bool) {
	cur := c.epoch.Load()
	sh := &c.shards[k.Lo&c.shardMask]
	base := (k.Hi & c.setMask) * ways
	sh.mu.Lock()
	for i := base; i < base+ways; i++ {
		e := &sh.entries[i]
		if e.used && e.key == k && e.epoch == cur {
			res := e.res
			sh.mu.Unlock()
			return res, true
		}
	}
	sh.mu.Unlock()
	return Result{}, false
}

// Touch records rows answered from Peek as hits: it counts len(ks) hits and
// stamps the recency of every entry still holding its key, as Get would
// have. Allocation-free. An entry evicted since its Peek is not restored;
// the row was still answered from the cache, so it still counts.
func (c *Cache) Touch(ks []Key) {
	for _, k := range ks {
		sh := &c.shards[k.Lo&c.shardMask]
		base := (k.Hi & c.setMask) * ways
		sh.mu.Lock()
		for i := base; i < base+ways; i++ {
			e := &sh.entries[i]
			if e.used && e.key == k {
				sh.tick++
				e.tick = sh.tick
				break
			}
		}
		sh.mu.Unlock()
	}
	c.m.Hits.Add(uint64(len(ks)))
}

// Put stores res for k, tagged with the epoch the computation started
// under. If the epoch has moved on since, the result describes a dead
// chain or table and is dropped — the caller must snapshot Epoch().Load()
// (or use Do, which does) BEFORE resolving the serving state it computes
// against. Victim order within the set: same key > empty way > stale-epoch
// way > approximate-LRU minimum tick.
func (c *Cache) Put(k Key, epoch uint64, res Result) {
	if epoch != c.epoch.Load() {
		return
	}
	sh := &c.shards[k.Lo&c.shardMask]
	base := (k.Hi & c.setMask) * ways
	var sizeDelta int64
	var evicted, reclaimed bool
	sh.mu.Lock()
	victim, empty := -1, -1
	for i := base; i < base+ways; i++ {
		e := &sh.entries[i]
		if e.used && e.key == k {
			victim = int(i)
			break
		}
		if !e.used && empty < 0 {
			empty = int(i)
		}
	}
	if victim < 0 {
		victim = empty
	}
	if victim < 0 {
		// Full set, no same-key way: prefer a stale-epoch victim, else
		// evict the least-recently-touched live entry.
		var bestTick uint64
		for i := base; i < base+ways; i++ {
			e := &sh.entries[i]
			if e.epoch != epoch {
				victim = int(i)
				reclaimed = true
				break
			}
			if victim < 0 || e.tick < bestTick {
				victim, bestTick = int(i), e.tick
			}
		}
		if !reclaimed {
			evicted = true
		}
	}
	e := &sh.entries[victim]
	if !e.used {
		sizeDelta = 1
	}
	sh.tick++
	*e = entry{key: k, epoch: epoch, tick: sh.tick, res: res, used: true}
	sh.mu.Unlock()
	if sizeDelta != 0 {
		c.m.Size.Add(sizeDelta)
	}
	if evicted {
		c.m.Evictions.Inc()
	}
	if reclaimed {
		c.m.EpochInvalidations.Inc()
	}
}

// Len counts the live entries (any epoch); intended for tests and the
// sizing probe, not the hot path.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for j := range sh.entries {
			if sh.entries[j].used {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// flightKey keys in-flight computations by (query, epoch).
type flightKey struct {
	k     Key
	epoch uint64
}

// Flight is one claimed (key, epoch) computation: its first claimant (the
// leader) computes and Finishes it; every later claimant Waits for it.
type Flight struct {
	fk      flightKey
	wg      sync.WaitGroup
	res     Result
	aux     uint64
	err     error
	waiters int // followers so far, guarded by the cache's fmu
}

// Waiters reports how many followers have claimed the in-flight computation
// for k under the current epoch, or -1 when no such flight exists. Test
// instrumentation: the coalescing tests poll it to close scheduling races
// deterministically before releasing a gated leader.
func (c *Cache) Waiters(k Key) int {
	fk := flightKey{k: k, epoch: c.epoch.Load()}
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if f, ok := c.flight[fk]; ok {
		return f.waiters
	}
	return -1
}

// Claim joins the flight for k under epoch — the epoch the caller
// snapshotted BEFORE resolving the serving state it computes against. The
// first claimant is the leader (leader=true) and must call Finish; later
// claimants until then are followers and must call Wait. A caller holding
// several claims (a batch) must Finish every flight it leads before it Waits
// on any it follows: then no caller waits while holding an unfinished
// flight, and claimants can never wait on each other in a cycle.
func (c *Cache) Claim(k Key, epoch uint64) (f *Flight, leader bool) {
	fk := flightKey{k: k, epoch: epoch}
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if f, ok := c.flight[fk]; ok {
		f.waiters++
		return f, false
	}
	f = &Flight{fk: fk}
	f.wg.Add(1)
	c.flight[fk] = f
	return f, true
}

// Finish completes a flight the caller leads, releasing its followers with
// (res, aux, err); aux is an opaque word (the serve layer's fallback depth).
// When err is nil and store is set, res is Put under the flight's epoch, so
// a mid-flight invalidation drops it.
func (c *Cache) Finish(f *Flight, res Result, aux uint64, store bool, err error) {
	f.res, f.aux, f.err = res, aux, err
	if err == nil && store {
		c.Put(f.fk.k, f.fk.epoch, res)
	}
	c.fmu.Lock()
	delete(c.flight, f.fk)
	c.fmu.Unlock()
	f.wg.Done()
}

// Wait blocks until the leader of f Finishes it and returns the leader's
// result, aux word and error, counting the follower as coalesced. There is
// no deadline of its own: the leader computes under its caller's context,
// so the wait is bounded by that request's budget.
func (c *Cache) Wait(f *Flight) (Result, uint64, error) {
	f.wg.Wait()
	c.m.Coalesced.Inc()
	return f.res, f.aux, f.err
}

// Do is the single-key form of Claim/Finish/Wait under the current epoch:
// the leader runs fn, which returns the result, the aux word and whether to
// store it (see Finish); concurrent callers with the same key and epoch
// reuse the leader's return (shared=true), error included.
func (c *Cache) Do(k Key, fn func() (res Result, aux uint64, store bool, err error)) (res Result, aux uint64, shared bool, err error) {
	f, leader := c.Claim(k, c.epoch.Load())
	if !leader {
		res, aux, err = c.Wait(f)
		return res, aux, true, err
	}
	var store bool
	res, aux, store, err = fn()
	c.Finish(f, res, aux, store, err)
	return res, aux, false, err
}
