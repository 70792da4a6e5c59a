package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cardpi/internal/cache"
	"cardpi/internal/faultinject"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// sameBits compares the numeric reply fields bit-for-bit — the cache-on vs
// cache-off identity contract. Live telemetry (drifted, rolling_coverage)
// and the cached marker are excluded by design.
func sameBits(a, b estimateResponse) bool {
	return math.Float64bits(a.EstSel) == math.Float64bits(b.EstSel) &&
		math.Float64bits(a.EstRows) == math.Float64bits(b.EstRows) &&
		math.Float64bits(a.LoSel) == math.Float64bits(b.LoSel) &&
		math.Float64bits(a.HiSel) == math.Float64bits(b.HiSel) &&
		math.Float64bits(a.LoRows) == math.Float64bits(b.LoRows) &&
		math.Float64bits(a.HiRows) == math.Float64bits(b.HiRows) &&
		a.TrueRows == b.TrueRows && a.Covered == b.Covered
}

// TestServeCacheHitBitIdentity: with -cache-entries on, a repeated query is
// served from the cache (cached=true), bit-identical to the first (cold)
// answer AND to a cache-off server's answer for the same query.
func TestServeCacheHitBitIdentity(t *testing.T) {
	setup := smallSetup(t)
	ts, _, reg := startServer(t, setup, serveOpts{cacheEntries: 1024})
	offTS, _, _ := startServer(t, smallSetup(t), serveOpts{})

	queries := []string{
		"state = 3",
		"county = 10 AND body_type = 2",
		"model_year BETWEEN 40 AND 90",
	}
	for _, q := range queries {
		st, cold, _ := getEstimate(t, ts.URL, q, "", "")
		if st != http.StatusOK {
			t.Fatalf("%q: cold status %d", q, st)
		}
		if cold.Cached {
			t.Fatalf("%q: first request claims cached", q)
		}
		st, warm, _ := getEstimate(t, ts.URL, q, "", "")
		if st != http.StatusOK {
			t.Fatalf("%q: warm status %d", q, st)
		}
		if !warm.Cached {
			t.Fatalf("%q: repeat request not served from cache", q)
		}
		if !sameBits(cold, warm) {
			t.Fatalf("%q: cached reply diverges:\ncold: %+v\nwarm: %+v", q, cold, warm)
		}
		st, off, _ := getEstimate(t, offTS.URL, q, "", "")
		if st != http.StatusOK {
			t.Fatalf("%q: cache-off status %d", q, st)
		}
		if !sameBits(warm, off) {
			t.Fatalf("%q: cache-on reply diverges from cache-off server:\non:  %+v\noff: %+v", q, warm, off)
		}
	}
	if hits := metricValue(t, reg, `cardpi_cache_hits_total{unit="default"}`); hits != float64(len(queries)) {
		t.Fatalf("cache hits = %v, want %d", hits, len(queries))
	}
	if misses := metricValue(t, reg, `cardpi_cache_misses_total{unit="default"}`); misses != float64(len(queries)) {
		t.Fatalf("cache misses = %v, want %d", misses, len(queries))
	}
	if ep := metricValue(t, reg, "cardpi_cache_epoch"); ep != 0 {
		t.Fatalf("epoch gauge = %v before any swap, want 0", ep)
	}
}

// TestServeCacheCanonicalVariants: syntactic variants of one predicate set
// share a cache entry over HTTP — the second spelling is a hit.
func TestServeCacheCanonicalVariants(t *testing.T) {
	ts, _, _ := startServer(t, smallSetup(t), serveOpts{cacheEntries: 1024})
	if st, first, _ := getEstimate(t, ts.URL, "county = 10 AND state = 3", "", ""); st != http.StatusOK || first.Cached {
		t.Fatalf("seed request: status %d cached %v", st, first.Cached)
	}
	variants := []string{
		"state = 3 AND county = 10",             // reordered
		"state BETWEEN 3 AND 3 AND county = 10", // degenerate range
	}
	for _, q := range variants {
		st, er, _ := getEstimate(t, ts.URL, q, "", "")
		if st != http.StatusOK {
			t.Fatalf("%q: status %d", q, st)
		}
		if !er.Cached {
			t.Fatalf("%q: canonical variant missed the cache", q)
		}
	}
}

// TestServeCacheBatchPerRowProbe: a batch probes the cache per row — warm
// rows come back cached and bit-identical to their single replies, cold rows
// are computed (and cached for the next batch).
func TestServeCacheBatchPerRowProbe(t *testing.T) {
	ts, _, reg := startServer(t, smallSetup(t), serveOpts{cacheEntries: 1024})
	queries := []string{
		"state = 3",
		"county = 10 AND body_type = 2",
		"model_year BETWEEN 40 AND 90",
		"fuel_type = 1 AND color = 4",
	}
	// Warm the first two through the single endpoint; keep every reply for
	// the bit-identity check.
	singles := make([]estimateResponse, len(queries))
	for i, q := range queries[:2] {
		_, singles[i], _ = getEstimate(t, ts.URL, q, "", "")
	}
	missesBefore := metricValue(t, reg, `cardpi_cache_misses_total{unit="default"}`)

	resp := postBatch(t, ts, queries)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, b)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if want := i < 2; br.Results[i].Cached != want {
			t.Fatalf("batch row %d (%q): cached = %v, want %v", i, queries[i], br.Results[i].Cached, want)
		}
		if i < 2 && !sameBits(br.Results[i], singles[i]) {
			t.Fatalf("batch row %d: cached batch element diverges from single reply:\nbatch:  %+v\nsingle: %+v",
				i, br.Results[i], singles[i])
		}
	}
	missed := metricValue(t, reg, `cardpi_cache_misses_total{unit="default"}`) - missesBefore
	if missed != 2 {
		t.Fatalf("batch recorded %v misses, want 2 (the cold rows)", missed)
	}

	// The cold rows were cached: an identical batch is now all-hit.
	resp2 := postBatch(t, ts, queries)
	defer resp2.Body.Close()
	var br2 batchResponse
	if err := json.NewDecoder(resp2.Body).Decode(&br2); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if !br2.Results[i].Cached {
			t.Fatalf("repeat batch row %d not cached", i)
		}
		if !sameBits(br.Results[i], br2.Results[i]) {
			t.Fatalf("repeat batch row %d diverges from first batch", i)
		}
	}
}

// TestServeCacheScenarioInvalidation: publishing a mutated table through
// POST /admin/scenario bumps the epoch — the very next request recomputes
// against the new table instead of replaying a stale ground truth.
func TestServeCacheScenarioInvalidation(t *testing.T) {
	setup := smallSetup(t)
	ts, srv, reg := startServer(t, setup, serveOpts{cacheEntries: 1024, scenarioAdmin: true})
	const q = "state = 3"
	getEstimate(t, ts.URL, q, "", "")
	if _, er, _ := getEstimate(t, ts.URL, q, "", ""); !er.Cached {
		t.Fatal("warm-up did not populate the cache")
	}
	st, body := adminPost(t, ts.URL, "/admin/scenario",
		map[string]any{"action": "insert", "rows": 500, "seed": 11})
	mustStatus(t, st, body, http.StatusOK, "")

	if ep := metricValue(t, reg, "cardpi_cache_epoch"); ep != 1 {
		t.Fatalf("epoch gauge = %v after scenario publish, want 1", ep)
	}
	_, er, _ := getEstimate(t, ts.URL, q, "", "")
	if er.Cached {
		t.Fatal("first post-mutation request served a pre-mutation cache entry")
	}
	// The reply's ground truth must be the NEW table's count.
	tab := srv.def.table()
	pq, err := workload.ParseQuery(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := tab.Count(pq.Preds)
	if err != nil {
		t.Fatal(err)
	}
	if er.TrueRows != truth {
		t.Fatalf("post-mutation true_rows = %d, want %d (mutated table)", er.TrueRows, truth)
	}
}

// TestServeCacheRecalHookInvalidation: committing a recalibration
// candidate on the default unit (the supervisor's swap) bumps the epoch —
// cached intervals from the pre-recalibration chain die.
func TestServeCacheRecalHookInvalidation(t *testing.T) {
	setup := smallSetup(t)
	ts, srv, reg := startServer(t, setup, serveOpts{
		cacheEntries: 1024,
		recal:        recalOpts{enabled: true, window: 64, minObserved: 32},
	})
	const q = "state = 3"
	getEstimate(t, ts.URL, q, "", "")
	if _, er, _ := getEstimate(t, ts.URL, q, "", ""); !er.Cached {
		t.Fatal("warm-up did not populate the cache")
	}
	for _, lq := range setup.Cal.Queries[:64] {
		srv.def.recal.Record(lq.Query, lq.Sel)
	}
	cand, err := srv.def.recal.BuildCandidate()
	if err != nil || cand.PI == nil {
		t.Fatalf("BuildCandidate = %+v, %v; want a calibrated candidate", cand, err)
	}
	if err := srv.def.swapChain(cand); err != nil {
		t.Fatal(err)
	}
	if ep := metricValue(t, reg, "cardpi_cache_epoch"); ep != 1 {
		t.Fatalf("epoch gauge = %v after recalibration, want 1", ep)
	}
	if _, er, _ := getEstimate(t, ts.URL, q, "", ""); er.Cached {
		t.Fatal("post-recalibration request served a pre-recalibration interval")
	}
}

// TestServeCachePromoteInvalidation: a registry promote (and rollback)
// bumps the server-wide epoch, so even the default unit's cache empties —
// the route table changed and no cache can prove its entries still match.
func TestServeCachePromoteInvalidation(t *testing.T) {
	art := trainArtifactSeed(t, 1)
	ts, _, reg := startServer(t, smallSetup(t), serveOpts{cacheEntries: 1024})
	const q = "state = 3"
	getEstimate(t, ts.URL, q, "", "")
	if _, er, _ := getEstimate(t, ts.URL, q, "", ""); !er.Cached {
		t.Fatal("warm-up did not populate the cache")
	}

	st, body := adminPost(t, ts.URL, "/admin/register",
		map[string]any{"tenant": "acme", "table": "census", "artifact": art})
	mustStatus(t, st, body, http.StatusOK, "")
	st, body = adminPost(t, ts.URL, "/admin/promote",
		map[string]any{"tenant": "acme", "table": "census"})
	mustStatus(t, st, body, http.StatusOK, "")

	if ep := metricValue(t, reg, "cardpi_cache_epoch"); ep != 1 {
		t.Fatalf("epoch gauge = %v after promote, want 1", ep)
	}
	_, er, _ := getEstimate(t, ts.URL, q, "", "")
	if er.Cached {
		t.Fatal("first post-promote request served a pre-promote cache entry")
	}
	// Routed traffic warms the tenant's own unit-labeled cache.
	getEstimate(t, ts.URL, "age = 3", "acme", "census")
	if _, routed, _ := getEstimate(t, ts.URL, "age = 3", "acme", "census"); !routed.Cached {
		t.Fatal("repeat routed request not served from the tenant unit's cache")
	}
	if hits := metricValue(t, reg, `cardpi_cache_hits_total{unit="acme/census"}`); hits != 1 {
		t.Fatalf("tenant cache hits = %v, want 1", hits)
	}

	// Rollback (register a v2 first so there is a previous version to trade
	// with) — here we only need the epoch semantics of a second bump.
	st, body = adminPost(t, ts.URL, "/admin/register",
		map[string]any{"tenant": "acme", "table": "census", "artifact": trainArtifactSeed(t, 1)})
	mustStatus(t, st, body, http.StatusOK, "")
	st, body = adminPost(t, ts.URL, "/admin/promote",
		map[string]any{"tenant": "acme", "table": "census", "version": 2})
	mustStatus(t, st, body, http.StatusOK, "")
	st, body = adminPost(t, ts.URL, "/admin/rollback",
		map[string]any{"tenant": "acme", "table": "census"})
	mustStatus(t, st, body, http.StatusOK, "")
	if ep := metricValue(t, reg, "cardpi_cache_epoch"); ep != 3 {
		t.Fatalf("epoch gauge = %v after promote+promote+rollback, want 3", ep)
	}
	if _, routed, _ := getEstimate(t, ts.URL, "age = 3", "acme", "census"); routed.Cached {
		t.Fatal("post-rollback routed request served a stale cache entry")
	}
}

// TestServeCacheSwapRace hammers a cache-on server with concurrent reads
// while the serving table is republished under it, then verifies the
// invalidation invariant after every publish: once the mutation's response
// is on the wire, no later read may return the pre-swap ground truth.
func TestServeCacheSwapRace(t *testing.T) {
	setup := smallSetup(t)
	ts, srv, _ := startServer(t, setup, serveOpts{cacheEntries: 1024, scenarioAdmin: true})
	const q = "state = 3"

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				st, _, body := getEstimate(t, ts.URL, q, "", "")
				if st != http.StatusOK {
					t.Errorf("racing read: status %d (%s)", st, body)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		st, body := adminPost(t, ts.URL, "/admin/scenario",
			map[string]any{"action": "insert", "rows": 200, "seed": 100 + i})
		mustStatus(t, st, body, http.StatusOK, "")
		// The publish+bump completed before the admin response; any read
		// issued from here on must score against the new table.
		tab := srv.def.table()
		pq, err := workload.ParseQuery(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := tab.Count(pq.Preds)
		if err != nil {
			t.Fatal(err)
		}
		_, er, _ := getEstimate(t, ts.URL, q, "", "")
		if er.TrueRows != truth {
			t.Fatalf("publish %d: read after mutation returned true_rows %d, want %d (pre-swap entry leaked)",
				i, er.TrueRows, truth)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestServeChaosCacheOnNo5xx re-runs the chaos drill with the cache on: 20%
// injected faults and repeated (cache-hitting) queries must never surface a
// 5xx, and degraded (depth > 0) results must never be cached — a cached
// reply always reports served_by=primary.
func TestServeChaosCacheOnNo5xx(t *testing.T) {
	setup := smallSetup(t)
	piPlan := faultinject.MustPlan(faultinject.Spec{
		Seed: 17, Error: 0.05, Panic: 0.05, Latency: 0.05, NaN: 0.05,
		Delay: time.Millisecond,
	})
	setup.PI = faultinject.WrapPI(setup.PI, piPlan)
	ts, _, reg := startServer(t, setup, serveOpts{timeout: time.Second, cacheEntries: 1024})

	queries := []string{
		"state = 3", "county = 10", "model_year BETWEEN 40 AND 90", "fuel_type = 1",
	}
	cachedReplies := 0
	for i := 0; i < 300; i++ {
		q := queries[i%len(queries)]
		st, er, body := getEstimate(t, ts.URL, q, "", "")
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d under faults (body %s), want 200", i, st, body)
		}
		if er.Cached {
			cachedReplies++
			if er.ServedBy != "primary" {
				t.Fatalf("request %d: cached reply served_by %q — a degraded result was cached", i, er.ServedBy)
			}
			if er.Degraded {
				t.Fatalf("request %d: cached reply marked degraded", i)
			}
		}
		if er.LoSel > er.HiSel || er.LoSel < 0 || er.HiSel > 1 {
			t.Fatalf("request %d: malformed interval [%v, %v]", i, er.LoSel, er.HiSel)
		}
	}
	if cachedReplies == 0 {
		t.Fatal("300 repeated queries never hit the cache")
	}
	if hits := metricValue(t, reg, `cardpi_cache_hits_total{unit="default"}`); hits == 0 {
		t.Fatal("cache hit counter never moved")
	}
}

// TestServeCacheLookupAllocs pins the serve-side hot path: after a warm-up
// request, a canonical-key probe against the unit's cache performs zero
// heap allocations.
func TestServeCacheLookupAllocs(t *testing.T) {
	setup := smallSetup(t)
	ts, srv, _ := startServer(t, setup, serveOpts{cacheEntries: 1024})
	const q = "state = 3 AND county = 10"
	if st, _, body := getEstimate(t, ts.URL, q, "", ""); st != http.StatusOK {
		t.Fatalf("warm-up status %d (%s)", st, body)
	}
	pq, err := workload.ParseQuery(srv.def.table(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.def.cache.Get(cache.KeyOf(pq)); !ok {
		t.Fatal("warm-up request did not populate the cache")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := srv.def.cache.Get(cache.KeyOf(pq)); !ok {
			panic("entry vanished")
		}
	})
	if allocs != 0 {
		t.Fatalf("key+lookup allocates %v times per run; want 0", allocs)
	}
}

// TestServeCacheTextProbeRejectedBatch: the text probe answers a warm row
// before later rows are validated, yet a batch that fails validation still
// touches no cache counter and no entry. Row 3 misses (and is parsed), row 4
// hits the text probe, row 5 fails to parse: the reply is a 400, the hit,
// miss and size counters are unchanged, and no entry appears. The same
// batch without its bad row then counts exactly one hit or miss per row.
func TestServeCacheTextProbeRejectedBatch(t *testing.T) {
	ts, srv, reg := startServer(t, smallSetup(t), serveOpts{cacheEntries: 1024})
	pq, err := workload.ParseQuery(srv.def.table(), "state = 3 AND county = 10")
	if err != nil {
		t.Fatal(err)
	}
	warm := workload.QueryText(workload.Canonicalize(pq))
	if st, _, body := getEstimate(t, ts.URL, warm, "", ""); st != http.StatusOK {
		t.Fatalf("warm-up status %d (%s)", st, body)
	}
	if _, ok := srv.def.cache.Peek(cache.KeyOfText(warm)); !ok {
		t.Fatalf("warm-up did not make %q a text-probe hit", warm)
	}
	counters := func() [3]float64 {
		return [3]float64{
			metricValue(t, reg, `cardpi_cache_hits_total{unit="default"}`),
			metricValue(t, reg, `cardpi_cache_misses_total{unit="default"}`),
			metricValue(t, reg, `cardpi_cache_size{unit="default"}`),
		}
	}
	before, lenBefore := counters(), srv.def.cache.Len()
	rows := []string{"state = 1", "state = 2", "county = 4", "fuel_type = 1 AND color = 4", warm, "ghost = 1"}
	resp := postBatch(t, ts, rows)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "query 5") {
		t.Fatalf("batch with a bad row 5: status %d body %s, want a 400 naming query 5", resp.StatusCode, body)
	}
	if after := counters(); after != before {
		t.Fatalf("rejected batch moved the cache counters (hits, misses, size): %v -> %v", before, after)
	}
	if n := srv.def.cache.Len(); n != lenBefore {
		t.Fatalf("rejected batch changed the cache population: %d -> %d entries", lenBefore, n)
	}

	// Accepted, the same rows count one hit (the text-probed row) and one
	// miss per cold row.
	resp = postBatch(t, ts, rows[:5])
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch: status %d body %s", resp.StatusCode, body)
	}
	after := counters()
	if hits, misses := after[0]-before[0], after[1]-before[1]; hits != 1 || misses != 4 {
		t.Fatalf("valid 5-row batch counted %v hits + %v misses, want 1 + 4", hits, misses)
	}
}

// TestServeCacheTextProbeAllocs pins the hit path that skips the parser: a
// warm canonical line's KeyOfText plus its probe, and the post-validation
// Touch, allocate nothing.
func TestServeCacheTextProbeAllocs(t *testing.T) {
	ts, srv, _ := startServer(t, smallSetup(t), serveOpts{cacheEntries: 1024})
	const line = "county = 10 AND state = 3"
	if st, _, body := getEstimate(t, ts.URL, line, "", ""); st != http.StatusOK {
		t.Fatalf("warm-up status %d (%s)", st, body)
	}
	c := srv.def.cache
	keys := make([]cache.Key, 0, 1)
	allocs := testing.AllocsPerRun(200, func() {
		k := cache.KeyOfText(line)
		if _, ok := c.Peek(k); !ok {
			panic("canonical line missed the text probe")
		}
		keys = append(keys[:0], k)
		c.Touch(keys)
	})
	if allocs != 0 {
		t.Fatalf("text key+probe allocates %v times per run; want 0", allocs)
	}
}

// metricSum totals every series of one metric family, whatever its labels.
func metricSum(t *testing.T, reg *obs.Registry, family string) float64 {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, family+" ") && !strings.HasPrefix(line, family+"{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
			t.Fatalf("parse metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestServeCacheCoalescesAcrossEndpoints: N concurrent identical cold misses,
// half sent through /estimate and half through /estimate/batch, share one
// flight — the chain runs once, the monitor observes once, and the other
// N-1 rows are coalesced followers with bit-identical replies.
func TestServeCacheCoalescesAcrossEndpoints(t *testing.T) {
	setup := smallSetup(t)
	bp := &blockingPI{inner: setup.PI, entered: make(chan struct{}, 1), release: make(chan struct{})}
	setup.PI = bp
	ts, srv, reg := startServer(t, setup, serveOpts{cacheEntries: 1024, timeout: 30 * time.Second})
	var released bool
	release := func() {
		if !released {
			released = true
			close(bp.release)
		}
	}
	defer release()
	const q, n = "state = 3 AND county = 10", 8
	pq, err := workload.ParseQuery(srv.def.table(), q)
	if err != nil {
		t.Fatal(err)
	}
	obsBefore := metricSum(t, reg, "cardpi_adaptive_observations_total")
	callsBefore := metricSum(t, reg, "cardpi_resilient_calls_total")

	replies := make([]estimateResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				st, er, body := getEstimate(t, ts.URL, q, "", "")
				if st != http.StatusOK {
					t.Errorf("single %d: status %d (%s)", i, st, body)
				}
				replies[i] = er
				return
			}
			resp := postBatch(t, ts, []string{q})
			defer resp.Body.Close()
			var br batchResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || len(br.Results) != 1 {
				t.Errorf("batch %d: status %d, decode %v", i, resp.StatusCode, err)
				return
			}
			replies[i] = br.Results[0]
		}(i)
	}
	<-bp.entered // the leader is inside the chain; its flight is claimed
	deadline := time.Now().Add(10 * time.Second)
	for srv.def.cache.Waiters(cache.KeyOf(pq)) != n-1 {
		if time.Now().After(deadline) {
			release()
			wg.Wait()
			t.Fatalf("only %d of %d requests joined the leader's flight", srv.def.cache.Waiters(cache.KeyOf(pq)), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	leaders := 0
	for i, er := range replies {
		if !er.Cached {
			leaders++
		}
		if !sameBits(er, replies[0]) {
			t.Fatalf("reply %d diverges from reply 0:\n%+v\n%+v", i, er, replies[0])
		}
	}
	if leaders != 1 {
		t.Fatalf("%d uncached replies, want exactly 1 leader", leaders)
	}
	if d := metricSum(t, reg, "cardpi_resilient_calls_total") - callsBefore; d != 1 {
		t.Fatalf("resilient chain ran %v times, want 1", d)
	}
	if d := metricSum(t, reg, "cardpi_adaptive_observations_total") - obsBefore; d != 1 {
		t.Fatalf("monitor observations rose by %v, want 1", d)
	}
	if got := metricValue(t, reg, `cardpi_cache_coalesced_total{unit="default"}`); got != n-1 {
		t.Fatalf("coalesced = %v, want %d", got, n-1)
	}
}

// TestServeCacheBatchDuplicateComputedOnce: a cold query repeated inside one
// batch is computed once; the repeat is a coalesced follower of its own
// batch's leader row, bit-identical to it.
func TestServeCacheBatchDuplicateComputedOnce(t *testing.T) {
	ts, _, reg := startServer(t, smallSetup(t), serveOpts{cacheEntries: 1024})
	obsBefore := metricSum(t, reg, "cardpi_adaptive_observations_total")
	const q = "county = 10 AND body_type = 2"
	resp := postBatch(t, ts, []string{q, "state = 3", q})
	defer resp.Body.Close()
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, decode %v", resp.StatusCode, err)
	}
	if br.Results[0].Cached || br.Results[1].Cached || !br.Results[2].Cached {
		t.Fatalf("cached markers = %v %v %v, want false false true",
			br.Results[0].Cached, br.Results[1].Cached, br.Results[2].Cached)
	}
	if !sameBits(br.Results[0], br.Results[2]) {
		t.Fatalf("duplicate row diverges:\n%+v\n%+v", br.Results[0], br.Results[2])
	}
	if d := metricSum(t, reg, "cardpi_adaptive_observations_total") - obsBefore; d != 2 {
		t.Fatalf("monitor observations rose by %v, want 2 (two distinct cold queries)", d)
	}
	if got := metricValue(t, reg, `cardpi_cache_coalesced_total{unit="default"}`); got != 1 {
		t.Fatalf("coalesced = %v, want 1", got)
	}
	if got := metricSum(t, reg, "cardpi_resilient_calls_total"); got != 2 {
		t.Fatalf("resilient calls = %v, want 2", got)
	}
}

// TestServeChaosDeadlineBothEndpoints: a primary whose every call sleeps far
// past -timeout answers with the fail-safe interval within the deadline on
// both /estimate and /estimate/batch — the batch stage sees the request
// deadline too.
func TestServeChaosDeadlineBothEndpoints(t *testing.T) {
	setup := smallSetup(t)
	plan := faultinject.MustPlan(faultinject.Spec{Seed: 9, Latency: 1, Delay: time.Minute})
	setup.PI = faultinject.WrapPI(setup.PI, plan)
	ts, _, _ := startServer(t, setup, serveOpts{timeout: 50 * time.Millisecond})

	start := time.Now()
	st, er, body := getEstimate(t, ts.URL, "state = 3", "", "")
	if st != http.StatusOK || er.ServedBy != "failsafe" || er.LoSel != 0 || er.HiSel != 1 {
		t.Fatalf("single: status %d served_by %q [%v, %v] (%s), want the fail-safe", st, er.ServedBy, er.LoSel, er.HiSel, body)
	}
	resp := postBatch(t, ts, []string{"state = 3", "county = 10", "fuel_type = 1", "model_year BETWEEN 40 AND 90"})
	defer resp.Body.Close()
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, decode %v", resp.StatusCode, err)
	}
	for i, r := range br.Results {
		if r.ServedBy != "failsafe" {
			t.Fatalf("batch row %d served_by %q, want failsafe", i, r.ServedBy)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: two requests took %s", elapsed)
	}
}
