// Package registry is the multi-tenant model registry: a concurrent map of
// (tenant, table) → versioned .cpi artifact bundles with an LRU-bounded
// cache of loaded bundles and zero-downtime promote/rollback.
//
// Design:
//
//   - Registration is cheap metadata-only bookkeeping (stat + manifest
//     read); nothing is loaded until a version is promoted or requested.
//   - Each entry's registered versions and active/previous selection live
//     in an immutable snapshot behind an atomic.Pointer. Mutations
//     (register, promote, rollback) build a new snapshot and swap the
//     pointer, so readers never observe a half-applied change and
//     in-flight requests finish on the bundle they resolved.
//   - Promote loads the candidate through the mmap path
//     (pipeline.OpenMapped) and, when a version is already active, runs an
//     N-query bit-identity smoke check of old vs. candidate on the stored
//     calibration workload, failing closed with a typed error on any
//     divergence. Rollback is an O(1) pointer restore — no loads.
//   - Loaded bundles are built into the caller's serving value T by a
//     BuildFunc and cached per (key, version) in an LRU; eviction drops
//     the cached value (the next request reloads from disk, bit-identical)
//     without touching the active selection.
//
// Concurrency: every method on Registry is safe for concurrent use. Reads
// (Acquire, Snapshot) take only the per-entry atomic pointer and the cache
// lock; mutations serialize per entry, so promoting one tenant never blocks
// another tenant's requests.
package registry

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"cardpi/internal/obs"
	"cardpi/internal/pipeline"
)

// Typed failures, distinguishable with errors.Is. Load-time corruption
// additionally wraps the pipeline/codec typed errors (ErrBadBundle,
// ErrChecksum, ...).
var (
	// ErrUnknownKey reports a (tenant, table) pair with no registrations.
	ErrUnknownKey = errors.New("registry: unknown (tenant, table)")
	// ErrUnknownVersion reports a version number never registered for the
	// key.
	ErrUnknownVersion = errors.New("registry: unknown bundle version")
	// ErrNotPromoted reports a key that has registrations but no promoted
	// version yet — nothing is serving.
	ErrNotPromoted = errors.New("registry: no promoted version")
	// ErrNoPrevious reports a rollback with no previous version to restore.
	ErrNoPrevious = errors.New("registry: no previous version to roll back to")
	// ErrSmokeMismatch reports a promote whose bit-identity smoke check
	// found old and candidate bundles disagreeing on at least one interval.
	// The promote did not happen; the old version keeps serving.
	ErrSmokeMismatch = errors.New("registry: promote smoke check found interval mismatch")
	// ErrCandidate reports a promote whose candidate (or, for the
	// comparison, currently active) bundle failed to load or build. The
	// promote did not happen.
	ErrCandidate = errors.New("registry: bundle failed to load for promote")
	// ErrCSVArtifact reports an attempt to register an artifact built from
	// a CSV source: the registry cannot re-derive the table without the
	// original file, so CSV bundles stay on the single-bundle serve path.
	ErrCSVArtifact = errors.New("registry: artifacts built from CSV sources cannot be registered")
)

// Key identifies one serving slot: a tenant's table.
type Key struct {
	// Tenant is the owning tenant name (opaque label, non-empty).
	Tenant string
	// Table is the logical table the bundle estimates (opaque label,
	// non-empty).
	Table string
}

// String renders the key as "tenant/table" — the form used in errors,
// logs, and the routed reply's bundle field.
func (k Key) String() string { return k.Tenant + "/" + k.Table }

// BundleRef is one registered artifact version: pure metadata, no loaded
// state. Immutable after registration; safe to share across goroutines.
type BundleRef struct {
	// Key is the slot the bundle is registered under.
	Key Key
	// Version is the 1-based registration sequence number within the key.
	Version int
	// Path is the artifact file path. The file must outlive the
	// registration; the registry re-opens it on every cold load.
	Path string
	// Size is the artifact's on-disk size in bytes at registration time.
	Size int64
	// Manifest is the artifact's decoded provenance manifest.
	Manifest *pipeline.Manifest
}

// Loaded couples a built serving value with the bundle it came from. The
// value is immutable from the registry's point of view; a Loaded stays
// valid after eviction or promote (GC reclaims it when the last request
// drops it).
type Loaded[T any] struct {
	// Ref is the bundle the value was built from.
	Ref *BundleRef
	// Setup is the reassembled pipeline setup (table, model, PI,
	// calibration workload) — retained so promote can smoke-check against
	// the live value without reloading.
	Setup *pipeline.Setup
	// Value is the caller's serving value built by the BuildFunc.
	Value T
}

// BuildFunc turns a freshly loaded Setup into the caller's serving value
// (e.g. a resilient PI chain). Called at most once per cold load, under the
// entry's load lock; it must not retain the mmap windows (the Setup owns
// only heap memory, so retaining the Setup is fine).
type BuildFunc[T any] func(Key, *BundleRef, *pipeline.Setup) (T, error)

// Options configures New.
type Options struct {
	// CacheSize bounds how many loaded bundles stay resident across all
	// keys (LRU). 0 means DefaultCacheSize.
	CacheSize int
	// SmokeQueries is the default number of calibration queries a promote
	// compares when PromoteOptions.SmokeQueries is 0. 0 means
	// DefaultSmokeQueries.
	SmokeQueries int
	// Metrics receives the cardpi_registry_* families; nil records them
	// without exporting (obs.Registry's nil rule).
	Metrics *obs.Registry
	// Logf, when non-nil, receives load progress lines.
	Logf func(format string, args ...any)
}

// Defaults for Options zero values.
const (
	// DefaultCacheSize is the loaded-bundle LRU capacity when
	// Options.CacheSize is 0.
	DefaultCacheSize = 8
	// DefaultSmokeQueries is the promote smoke-check query count when
	// neither Options nor PromoteOptions override it.
	DefaultSmokeQueries = 64
)

// Registry is the concurrent multi-tenant bundle registry. Create with New;
// the zero value is not usable. All methods are safe for concurrent use.
type Registry[T any] struct {
	build BuildFunc[T]
	opts  Options
	met   *metrics

	mu      sync.RWMutex // guards the entries map structure only
	entries map[Key]*entry[T]

	cache *lruCache[T]
}

// entry is one key's slot. state holds the immutable snapshot readers
// follow; mu serializes this entry's mutations and cold loads without
// blocking other entries.
type entry[T any] struct {
	mu    sync.Mutex
	state atomic.Pointer[entryState]
}

// entryState is an immutable snapshot of one entry: the registered
// versions plus the active/previous selection. Never mutated in place —
// every change builds a new snapshot.
type entryState struct {
	versions []*BundleRef
	active   *BundleRef
	previous *BundleRef
}

// New creates a registry whose loaded bundles are built into T by build.
func New[T any](build BuildFunc[T], opts Options) *Registry[T] {
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.SmokeQueries <= 0 {
		opts.SmokeQueries = DefaultSmokeQueries
	}
	return &Registry[T]{
		build:   build,
		opts:    opts,
		met:     newMetrics(opts.Metrics),
		entries: make(map[Key]*entry[T]),
		cache:   newLRUCache[T](opts.CacheSize),
	}
}

// Register records the artifact at path as the key's next version without
// loading or activating it: the file is stat'ed and its manifest read
// (validating header, schema version, and combo), CSV-source bundles are
// rejected, and the version becomes eligible for Promote. Returns the new
// ref.
func (r *Registry[T]) Register(key Key, path string) (*BundleRef, error) {
	if key.Tenant == "" || key.Table == "" {
		return nil, fmt.Errorf("%w: tenant and table must be non-empty", ErrUnknownKey)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("registry: opening artifact: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("registry: stat artifact: %w", err)
	}
	man, err := pipeline.ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", path, err)
	}
	if man.Source == "csv" {
		return nil, fmt.Errorf("%w: %s was built from CSV table %q", ErrCSVArtifact, path, man.Dataset)
	}

	e := r.getOrCreateEntry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.state.Load()
	ref := &BundleRef{Key: key, Version: len(old.versions) + 1, Path: path, Size: st.Size(), Manifest: man}
	next := &entryState{
		versions: append(append([]*BundleRef(nil), old.versions...), ref),
		active:   old.active,
		previous: old.previous,
	}
	e.state.Store(next)
	r.met.registered.Inc()
	return ref, nil
}

// Ref returns the key's registered BundleRef for version; 0 selects the
// latest registration. The ref carries the decoded provenance manifest, so
// callers (the /admin/synth handler) can derive a workload description from
// a registration without loading any bundle bytes.
func (r *Registry[T]) Ref(key Key, version int) (*BundleRef, error) {
	e, err := r.lookupEntry(key)
	if err != nil {
		return nil, err
	}
	st := e.state.Load()
	if version == 0 {
		version = len(st.versions)
	}
	if version < 1 || version > len(st.versions) {
		return nil, fmt.Errorf("%w: %s has %d versions, asked for v%d",
			ErrUnknownVersion, key, len(st.versions), version)
	}
	return st.versions[version-1], nil
}

// getOrCreateEntry returns the key's entry, creating an empty one on first
// registration.
func (r *Registry[T]) getOrCreateEntry(key Key) *entry[T] {
	r.mu.RLock()
	e := r.entries[key]
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.entries[key]; e == nil {
		e = &entry[T]{}
		e.state.Store(&entryState{})
		r.entries[key] = e
		r.met.entries.Set(int64(len(r.entries)))
	}
	return e
}

// lookupEntry returns the key's entry or ErrUnknownKey.
func (r *Registry[T]) lookupEntry(key Key) (*entry[T], error) {
	r.mu.RLock()
	e := r.entries[key]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownKey, key)
	}
	return e, nil
}

// PromoteOptions controls one Promote call.
type PromoteOptions struct {
	// Version selects the candidate; 0 means the latest registered
	// version.
	Version int
	// SmokeQueries overrides the registry's default smoke-check query
	// count; 0 keeps the default. The check compares min(SmokeQueries,
	// len(calibration workload)) queries.
	SmokeQueries int
	// Force skips the bit-identity smoke check. Required when the
	// candidate intentionally differs from the active bundle (new model,
	// different alpha, retrained weights).
	Force bool
}

// Promote activates a registered version: the candidate is fully loaded
// (fail-closed on any corruption — a bundle that cannot load never becomes
// active) and, if another version is active and Force is unset, both must
// produce bit-identical intervals over the first N queries of the stored
// calibration workload. On success the active pointer swaps atomically;
// requests already routed keep their old bundle, new requests get the
// candidate. On any failure the registry state is unchanged.
func (r *Registry[T]) Promote(key Key, opts PromoteOptions) (*BundleRef, error) {
	e, err := r.lookupEntry(key)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	st := e.state.Load()
	version := opts.Version
	if version == 0 {
		version = len(st.versions)
	}
	if version < 1 || version > len(st.versions) {
		return nil, fmt.Errorf("%w: %s has %d registered versions, requested %d",
			ErrUnknownVersion, key, len(st.versions), version)
	}
	cand := st.versions[version-1]

	loaded, err := r.loadLocked(key, cand)
	if err != nil {
		r.met.smokeLoadFail.Inc()
		return nil, fmt.Errorf("%w: candidate %s@v%d: %w", ErrCandidate, key, cand.Version, err)
	}
	if st.active != nil && st.active != cand && !opts.Force {
		oldLoaded, err := r.loadLocked(key, st.active)
		if err != nil {
			r.met.smokeLoadFail.Inc()
			return nil, fmt.Errorf("%w: active %s@v%d cannot load for comparison (use force to skip): %w",
				ErrCandidate, key, st.active.Version, err)
		}
		n := opts.SmokeQueries
		if n <= 0 {
			n = r.opts.SmokeQueries
		}
		if err := smokeCompare(oldLoaded.Setup, loaded.Setup, n); err != nil {
			r.met.smokeMismatch.Inc()
			return nil, fmt.Errorf("%w: %s v%d vs v%d: %v",
				ErrSmokeMismatch, key, st.active.Version, cand.Version, err)
		}
	}

	next := &entryState{versions: st.versions, active: cand, previous: st.previous}
	if st.active != nil && st.active != cand {
		next.previous = st.active
	}
	e.state.Store(next)
	r.met.promotes.Inc()
	return cand, nil
}

// smokeCompare runs the bit-identity check: both setups answer the first n
// queries of the candidate's stored calibration workload, and every
// interval endpoint must match to the bit (errors must agree too). Any
// divergence fails the promote.
func smokeCompare(old, cand *pipeline.Setup, n int) error {
	queries := cand.Cal.Queries
	if len(queries) < n {
		n = len(queries)
	}
	for i := 0; i < n; i++ {
		q := queries[i].Query
		a, aErr := old.PI.Interval(q)
		b, bErr := cand.PI.Interval(q)
		if (aErr == nil) != (bErr == nil) {
			return fmt.Errorf("query %d: error mismatch (active: %v, candidate: %v)", i, aErr, bErr)
		}
		if math.Float64bits(a.Lo) != math.Float64bits(b.Lo) ||
			math.Float64bits(a.Hi) != math.Float64bits(b.Hi) {
			return fmt.Errorf("query %d: active [%v,%v] != candidate [%v,%v]", i, a.Lo, a.Hi, b.Lo, b.Hi)
		}
	}
	return nil
}

// Rollback restores the previously active version in O(1) — a pure pointer
// swap, no loads, no smoke check (the previous version already passed one
// when it was promoted). Active and previous trade places, so a second
// rollback undoes the first.
func (r *Registry[T]) Rollback(key Key) (*BundleRef, error) {
	e, err := r.lookupEntry(key)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.state.Load()
	if st.previous == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoPrevious, key)
	}
	next := &entryState{versions: st.versions, active: st.previous, previous: st.active}
	e.state.Store(next)
	r.met.rollbacks.Inc()
	return next.active, nil
}

// Acquire resolves the key's active bundle for one request: cache hit or
// mmap-backed cold load. The returned Loaded is an immutable snapshot — a
// concurrent promote, rollback, or eviction never invalidates it, so the
// request finishes on the bundle it started with. ErrUnknownKey and
// ErrNotPromoted mean "nothing registered/serving" (route to 404);
// any other error is a fault of the active bundle (missing file,
// corruption) counted in cardpi_registry_faults_total — callers degrade to
// their fallback chain.
func (r *Registry[T]) Acquire(key Key) (*Loaded[T], error) {
	e, err := r.lookupEntry(key)
	if err != nil {
		return nil, err
	}
	st := e.state.Load()
	if st.active == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotPromoted, key)
	}
	r.met.tenantRequests(key.Tenant).Inc()
	if l, ok := r.cache.get(cacheKey{key, st.active.Version}); ok {
		r.met.cacheHits.Inc()
		return l, nil
	}
	r.met.cacheMisses.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	l, err := r.loadLocked(key, st.active)
	if err != nil {
		r.met.faults.Inc()
		return nil, err
	}
	return l, nil
}

// loadLocked returns the (key, version) bundle from cache or loads it from
// disk through the mmap path and builds the serving value. Caller holds
// e.mu, so concurrent misses for one key collapse into a single load.
func (r *Registry[T]) loadLocked(key Key, ref *BundleRef) (*Loaded[T], error) {
	ck := cacheKey{key, ref.Version}
	if l, ok := r.cache.get(ck); ok {
		return l, nil
	}
	mb, err := pipeline.OpenMapped(ref.Path)
	if err != nil {
		return nil, fmt.Errorf("registry: %s@v%d: %w", key, ref.Version, err)
	}
	setup, err := mb.Load(pipeline.LoadOptions{Logf: r.opts.Logf})
	// The Setup owns only heap memory; drop the mapping before building.
	if cerr := mb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("registry: %s@v%d: %w", key, ref.Version, err)
	}
	value, err := r.build(key, ref, setup)
	if err != nil {
		return nil, fmt.Errorf("registry: building %s@v%d: %w", key, ref.Version, err)
	}
	l := &Loaded[T]{Ref: ref, Setup: setup, Value: value}
	evicted := r.cache.add(ck, l)
	r.met.loads.Inc()
	r.met.evictions.Add(uint64(evicted))
	r.met.cached.Set(int64(r.cache.len()))
	return l, nil
}

// Evict drops every cached load of the key (all versions). The active
// selection is untouched: the next request cold-loads the active bundle
// from disk, bit-identical. With forget=true the key's registrations are
// removed entirely and subsequent requests see ErrUnknownKey.
func (r *Registry[T]) Evict(key Key, forget bool) (dropped int, err error) {
	e, err := r.lookupEntry(key)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	dropped = r.cache.removeKey(key)
	e.mu.Unlock()
	r.met.evictions.Add(uint64(dropped))
	r.met.cached.Set(int64(r.cache.len()))
	if forget {
		r.mu.Lock()
		delete(r.entries, key)
		r.met.entries.Set(int64(len(r.entries)))
		r.mu.Unlock()
	}
	return dropped, nil
}

// EntrySnapshot is one key's state in a Snapshot: registered versions and
// the active/previous selection, plus which versions are currently cached.
type EntrySnapshot struct {
	// Tenant and Table identify the slot.
	Tenant string `json:"tenant"`
	// Table is the slot's logical table.
	Table string `json:"table"`
	// ActiveVersion is the serving version, 0 if none promoted.
	ActiveVersion int `json:"active_version"`
	// PreviousVersion is the rollback target, 0 if none.
	PreviousVersion int `json:"previous_version"`
	// CachedVersions lists versions currently resident in the LRU,
	// ascending.
	CachedVersions []int `json:"cached_versions,omitempty"`
	// Versions lists every registration in order.
	Versions []VersionInfo `json:"versions"`
}

// VersionInfo is one registered version in an EntrySnapshot.
type VersionInfo struct {
	// Version is the 1-based registration sequence number.
	Version int `json:"version"`
	// Path is the artifact file path.
	Path string `json:"path"`
	// SizeBytes is the artifact's on-disk size at registration.
	SizeBytes int64 `json:"size_bytes"`
	// Model and Method are the manifest's recorded combo.
	Model string `json:"model"`
	// Method is the manifest's recorded PI method.
	Method string `json:"method"`
	// Dataset is the manifest's recorded dataset.
	Dataset string `json:"dataset"`
}

// Snapshot reports every entry's current state, sorted by tenant then
// table — the GET /admin/registry payload. Consistent per entry (each
// entry's snapshot pointer is read once), not across entries.
func (r *Registry[T]) Snapshot() []EntrySnapshot {
	r.mu.RLock()
	keys := make([]Key, 0, len(r.entries))
	entries := make([]*entry[T], 0, len(r.entries))
	for k, e := range r.entries {
		keys = append(keys, k)
		entries = append(entries, e)
	}
	r.mu.RUnlock()

	out := make([]EntrySnapshot, 0, len(keys))
	for i, k := range keys {
		st := entries[i].state.Load()
		es := EntrySnapshot{Tenant: k.Tenant, Table: k.Table}
		if st.active != nil {
			es.ActiveVersion = st.active.Version
		}
		if st.previous != nil {
			es.PreviousVersion = st.previous.Version
		}
		for _, ref := range st.versions {
			es.Versions = append(es.Versions, VersionInfo{
				Version:   ref.Version,
				Path:      ref.Path,
				SizeBytes: ref.Size,
				Model:     ref.Manifest.Model,
				Method:    ref.Manifest.Method,
				Dataset:   ref.Manifest.Dataset,
			})
			if r.cache.peek(cacheKey{k, ref.Version}) {
				es.CachedVersions = append(es.CachedVersions, ref.Version)
			}
		}
		out = append(out, es)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Table < out[j].Table
	})
	return out
}
