package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cardpi"
	"cardpi/internal/cache"
	"cardpi/internal/codec"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/histogram"
	"cardpi/internal/obs"
	"cardpi/internal/par"
	"cardpi/internal/pipeline"
	"cardpi/internal/recal"
	"cardpi/internal/registry"
	"cardpi/internal/workload"
)

// maxQueryBytes bounds the q parameter: real predicates are tens of bytes,
// so anything beyond this is garbage (or abuse) and is rejected before
// parsing.
const maxQueryBytes = 4096

// maxBatchBodyBytes bounds the /estimate/batch request body: the default
// 256-query batch of tens-of-bytes predicates fits in a few KiB, so 1 MiB
// leaves generous headroom while still refusing abuse before JSON decoding.
const maxBatchBodyBytes = 1 << 20

// runServe implements `cardpi serve`: the demo pipeline (dataset → model →
// calibrated PI) behind a long-running, fault-tolerant HTTP server with
//
//	GET /estimate?q=...  point estimate + prediction interval as JSON
//	GET /metrics         Prometheus text format (see OBSERVABILITY.md)
//	GET /healthz         liveness probe
//	/debug/pprof/        the standard pprof handlers
//
// Every /estimate request runs under a deadline (-timeout) through a
// cardpi.Resilient fallback chain (learned PI → histogram split-CP →
// fail-safe [0, 1], see RELIABILITY.md), behind bounded admission control:
// at most -max-inflight requests execute concurrently, at most -max-queue
// wait for a slot, and everything beyond that is shed with 429 and a
// Retry-After header. Well-formed requests never see a 5xx — degraded
// answers widen instead of failing.
//
// Every computed /estimate row is also fed back into a cardpi.Monitor — the
// served interval's coverage and width and the served estimate's residual
// (the demo owns the ground-truth oracle, standing in for the executor's
// actual row counts) — so the drift/coverage telemetry describes what
// callers are served from the first request. With -recal (on by default) a
// drift alarm additionally closes the loop: a background supervisor
// shadow-recalibrates from the recent observations, validates the candidate
// on held-out coverage, and atomically swaps it into the serving chain —
// status and manual trigger on /admin/recal (see RELIABILITY.md). The
// server shuts down gracefully on SIGINT/SIGTERM.
//
// With -artifact the server loads a bundle written by `cardpi train` instead
// of training in-process: startup skips every training and calibration step,
// the manifest supplies dataset/alpha/seed provenance, and -model/-method
// (when given) act as expectations that must match the manifest. Flags that
// would re-derive what the artifact froze (-dataset, -rows, -queries, -seed,
// -alpha) conflict with -artifact and are rejected.
func runServe(args []string) error {
	fs := flag.NewFlagSet("cardpi serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address for /estimate, /metrics, and /debug/pprof")
		artifact = fs.String("artifact", "", "serve a model bundle written by `cardpi train -out` instead of training in-process")
		dsName   = fs.String("dataset", "dmv", "dataset: dmv | census | forest | power")
		rows     = fs.Int("rows", 20000, "dataset rows")
		model    = fs.String("model", "spn", pipeline.ModelFlagHelp()+" (with -artifact: expected family)")
		method   = fs.String("method", "s-cp", pipeline.MethodFlagHelp()+" (with -artifact: expected method)")
		alpha    = fs.Float64("alpha", 0.1, "miscoverage level (coverage = 1-alpha)")
		queries  = fs.Int("queries", 2000, "training+calibration workload size")
		seed     = fs.Int64("seed", 1, "random seed")
		csvPath  = fs.String("csv", "", "load the table from a CSV file instead of generating one (with -artifact: the CSV the artifact was trained on)")
		drain    = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")

		timeout     = fs.Duration("timeout", 2*time.Second, "per-request deadline for /estimate")
		maxInflight = fs.Int("max-inflight", 64, "maximum concurrently executing /estimate requests")
		maxQueue    = fs.Int("max-queue", 128, "maximum /estimate requests waiting for an execution slot; beyond this the server sheds with 429")
		maxBatch    = fs.Int("max-batch", 256, "maximum queries per /estimate/batch request")
		workers     = fs.Int("workers", 0, "worker count for the sharded batch kernels (row-block IntervalBatch); 0 = GOMAXPROCS")
		brFailures  = fs.Int("breaker-failures", 5, "consecutive primary-PI failures that trip the circuit breaker open")
		brOpen      = fs.Duration("breaker-open", 5*time.Second, "how long an open breaker rejects the primary before probing it again")

		regCache   = fs.Int("registry-cache", registry.DefaultCacheSize, "loaded-bundle LRU capacity of the multi-tenant registry (see OPERATIONS.md)")
		smokeCount = fs.Int("smoke-queries", registry.DefaultSmokeQueries, "calibration queries the /admin/promote bit-identity smoke check compares")

		cacheEntries = fs.Int("cache-entries", 0, "interval-cache capacity per serving unit (0 = cache off); see OPERATIONS.md for sizing")

		recalOn       = fs.Bool("recal", true, "run the closed-loop drift recalibration supervisor on the default serving unit (see RELIABILITY.md)")
		recalWindow   = fs.Int("recal-window", 1024, "labeled observations the recalibration supervisor keeps in its rolling window")
		recalMinObs   = fs.Int("recal-min-observed", 256, "window occupancy required before a recalibration candidate is built")
		recalAttempts = fs.Int("recal-max-attempts", 5, "candidate build/validate attempts per drift episode before the episode is abandoned")
		recalBackoff  = fs.Duration("recal-backoff", 500*time.Millisecond, "initial retry backoff after a rejected recalibration candidate (doubles per attempt)")
		recalWidthCap = fs.Float64("recal-width-cap", 0, "reject recalibration candidates whose held-out mean interval width exceeds this (0 = library default 0.9)")
		scenarioFlag  = fs.Bool("scenario-admin", false, "enable POST /admin/scenario dataset-mutation drills against the default unit (test/staging tooling, see OPERATIONS.md)")

		synthFlag = fs.Bool("synth-admin", false, "enable POST /admin/synth budget-aware estimator synthesis for registered tenants (see OPERATIONS.md)")
		synthDir  = fs.String("synth-dir", "", "directory where /admin/synth writes winning candidate bundles (empty = a fresh temp directory on first use)")
	)
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "usage: %s serve [flags]\n\n", os.Args[0])
		fs.PrintDefaults()
		fmt.Fprintf(out, "\n%s\n", pipeline.ComboHelp())
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (serve takes queries over HTTP, not argv)", fs.Args())
	}
	// One process-wide knob: every row-block-sharded kernel (model forward
	// passes, conformal interval production, featurisation) fans over this
	// many workers. Results are bit-identical for any value.
	par.SetBatchWorkers(*workers)

	var (
		setup  *pipeline.Setup
		src    *modelSource
		alphaV = *alpha
		seedV  = *seed
		err    error
	)
	if *artifact != "" {
		if err := artifactFlagConflicts(fs); err != nil {
			return err
		}
		// -model/-method, when explicitly given, become load-time
		// expectations: a manifest mismatch fails closed before any bytes
		// of model state are decoded.
		opts := pipeline.LoadOptions{CSVPath: *csvPath, Logf: logStderr}
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "model":
				opts.ExpectModel = *model
			case "method":
				opts.ExpectMethod = *method
			}
		})
		var man *pipeline.Manifest
		setup, man, err = loadArtifactSetup(*artifact, opts)
		if err != nil {
			return err
		}
		alphaV, seedV = man.Alpha, man.Seed
		src = &modelSource{
			origin: "artifact", model: man.Model, method: man.Method,
			artifact: *artifact, man: man,
		}
	} else {
		setup, err = pipeline.Build(pipeline.Config{
			Dataset: *dsName, CSVPath: *csvPath, Model: *model, Method: *method,
			Alpha: *alpha, Rows: *rows, Queries: *queries, Seed: *seed,
			Logf: logStderr,
		})
		if err != nil {
			return err
		}
		src = &modelSource{
			origin: "trained",
			model:  strings.ToLower(*model), method: strings.ToLower(*method),
		}
	}
	srv, err := newServer(setup, serveOpts{
		alpha: alphaV, seed: seedV,
		timeout: *timeout, maxInflight: *maxInflight, maxQueue: *maxQueue,
		maxBatch:        *maxBatch,
		breakerFailures: *brFailures, breakerOpen: *brOpen,
		registryCache: *regCache, smokeQueries: *smokeCount,
		cacheEntries: *cacheEntries,
		source:       src,
		recal: recalOpts{
			enabled: *recalOn, window: *recalWindow, minObserved: *recalMinObs,
			maxAttempts: *recalAttempts, backoff: *recalBackoff,
			widthCap: *recalWidthCap,
		},
		scenarioAdmin: *scenarioFlag,
		synthAdmin:    *synthFlag,
		synthDir:      *synthDir,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.mux()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if sup := srv.def.recal; sup != nil {
		go sup.Run(ctx)
	}

	errCh := make(chan error, 1)
	go func() {
		logStderr("model source: %s", src.describe())
		fmt.Fprintf(os.Stderr, "serving %s/%s on http://%s (endpoints: /estimate /metrics /healthz /debug/pprof/)\n",
			src.model, src.method, *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// artifactFlagConflicts rejects explicitly-set flags whose values an
// artifact already froze: silently ignoring them would let `serve -artifact
// m.cpi -rows 500` look like it honored -rows.
func artifactFlagConflicts(fs *flag.FlagSet) error {
	frozen := map[string]bool{
		"dataset": true, "rows": true, "queries": true, "seed": true, "alpha": true,
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if frozen[f.Name] {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("%s conflict with -artifact: those values come from the artifact manifest "+
			"(-model and -method act as expectations; -csv points at the table the artifact was trained on)",
			strings.Join(bad, ", "))
	}
	return nil
}

// loadArtifactSetup opens and loads a bundle written by `cardpi train`
// through the mapped loader the registry uses. The Setup owns only heap
// memory, so the mapping is dropped right after Load and the file's pages
// do not stay resident.
func loadArtifactSetup(path string, opts pipeline.LoadOptions) (*pipeline.Setup, *pipeline.Manifest, error) {
	mb, err := pipeline.OpenMapped(path)
	if err != nil {
		return nil, nil, fmt.Errorf("load artifact %s: %w", path, err)
	}
	setup, err := mb.Load(opts)
	if cerr := mb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("load artifact %s: %w", path, err)
	}
	return setup, mb.Manifest(), nil
}

// modelSource records where the serving model came from — trained in-process
// or loaded from an artifact — for startup logging, /healthz, and the
// cardpi_serve_artifact_info gauge.
type modelSource struct {
	origin   string // "trained" | "artifact"
	model    string
	method   string
	artifact string             // bundle path, artifact origin only
	man      *pipeline.Manifest // provenance, artifact origin only
}

// describe renders the one-line startup log of the model's provenance.
func (ms *modelSource) describe() string {
	if ms.origin != "artifact" {
		return "trained in-process"
	}
	m := ms.man
	return fmt.Sprintf("artifact %s (schema v%d, %s/%s, dataset %s/%s rows=%d queries=%d seed=%d alpha=%g)",
		ms.artifact, m.SchemaVersion, m.Model, m.Method, m.Dataset, m.Source, m.Rows, m.Queries, m.Seed, m.Alpha)
}

// serveOpts carries the serving knobs from flags into newServer; tests
// construct it directly with tight limits to exercise shedding and
// deadlines deterministically.
type serveOpts struct {
	alpha           float64
	seed            int64
	timeout         time.Duration
	maxInflight     int
	maxQueue        int
	maxBatch        int
	breakerFailures int
	breakerOpen     time.Duration
	// registryCache bounds the multi-tenant registry's loaded-bundle LRU;
	// 0 takes registry.DefaultCacheSize.
	registryCache int
	// smokeQueries is the default promote smoke-check depth; 0 takes
	// registry.DefaultSmokeQueries.
	smokeQueries int
	// cacheEntries sizes each serving unit's epoch-invalidated interval
	// cache (internal/cache); 0 disables caching entirely.
	cacheEntries int
	// source records the model's provenance; nil means trained in-process
	// (tests that assemble a Setup by hand take this default).
	source *modelSource
	// recal configures the closed-loop drift recalibration supervisor on the
	// default unit; the zero value leaves it disabled, keeping hand-assembled
	// test servers and registry units free of background work.
	recal recalOpts
	// scenarioAdmin enables the POST /admin/scenario dataset-mutation drills
	// (test/staging tooling, off by default).
	scenarioAdmin bool
	// synthAdmin enables POST /admin/synth estimator synthesis for
	// registered tenants (off by default); synthDir is where winning
	// candidate bundles land ("" = a fresh temp directory on first use).
	synthAdmin bool
	synthDir   string
}

// recalOpts carries the -recal* flags into the supervisor; zero-valued knobs
// take the recal package defaults (see recal.Config).
type recalOpts struct {
	enabled     bool
	window      int
	minObserved int
	maxAttempts int
	coverageTol float64
	widthCap    float64
	backoff     time.Duration
	maxBackoff  time.Duration
}

// servingChain is the swappable half of a serving unit: the point-estimate
// model and the resilient interval chain built around it. Handlers resolve
// the chain once per request with a single atomic pointer load and pass it
// through, so a concurrent recalibration swap never tears a request — each
// in-flight request finishes on the chain (and table) it resolved.
type servingChain struct {
	model     cardpi.Estimator
	resilient *cardpi.Resilient
	// method is resilient.Name(), the method field of every reply, built
	// once with the chain rather than concatenated per reply row.
	method string
	// piEstimates is set when the primary PI's batch kernel evaluates model
	// itself (resilient.EstimateModel() is model): a primary-served row then
	// takes its point estimate from the interval pass instead of running the
	// model again.
	piEstimates bool
}

func newServingChain(model cardpi.Estimator, resilient *cardpi.Resilient) *servingChain {
	return &servingChain{
		model: model, resilient: resilient, method: resilient.Name(),
		piEstimates: sameModel(resilient.EstimateModel(), model),
	}
}

// sameModel reports whether a and b are one and the same estimator.
// Comparing interfaces panics when both hold the same uncomparable type
// (estimator.Func, for one); such models are treated as different.
func sameModel(a, b cardpi.Estimator) (same bool) {
	defer func() {
		if recover() != nil {
			same = false
		}
	}()
	return a != nil && a == b
}

// servingUnit is one complete serving chain — table, estimator, resilient
// PI, drift monitor — for one bundle. The default unit (built at startup
// from -artifact or in-process training) answers unrouted requests;
// registry-routed requests each resolve their own unit. The table and the
// model/resilient chain live behind atomic pointers: the /admin/scenario
// harness publishes mutated table clones and the recal supervisor swaps
// validated recalibrated chains, both without a restart, while every other
// part of the unit is immutable after construction. The monitor is shared
// across swaps; a swap resets it.
type servingUnit struct {
	tab   atomic.Pointer[dataset.Table]
	chain atomic.Pointer[servingChain]
	// adaptive is the drift and served-coverage monitor (the
	// cardpi_adaptive_* families), fed every computed row.
	adaptive *cardpi.Monitor
	// fallback and uopts are retained so a recalibration swap can rebuild
	// the resilient chain around a new primary with the original fallback
	// stage and breaker tuning.
	fallback cardpi.PI
	uopts    unitOpts
	// recal is the closed-loop drift supervisor (RELIABILITY.md); nil unless
	// enabled, and only ever enabled on the default unit.
	recal *recal.Supervisor
	// cache memoizes depth-0 interval results keyed by canonical query hash
	// (nil = caching off). All units share one server-wide epoch, and every
	// path that changes what this unit would serve — recalibration swap,
	// scenario table mutation, registry promote/rollback — bumps it AFTER
	// publishing the new state, making every cached entry unreachable.
	cache *cache.Cache
}

// invalidate bumps the shared cache epoch (no-op when caching is off). Call
// it only after the new serving state is published — see cache.Epoch.Bump.
func (u *servingUnit) invalidate() {
	if u.cache != nil {
		u.cache.Invalidate()
	}
}

// invalidateCaches bumps the server-wide cache epoch directly — promote and
// rollback change which unit a route resolves to, which no single unit's
// cache can know about. No-op when caching is off.
func (s *server) invalidateCaches() {
	if s.epoch != nil {
		s.epoch.Bump()
	}
}

// table returns the currently published serving table.
func (u *servingUnit) table() *dataset.Table { return u.tab.Load() }

// current returns the currently published serving chain.
func (u *servingUnit) current() *servingChain { return u.chain.Load() }

// unitOpts configures newServingUnit — the per-bundle subset of serveOpts.
type unitOpts struct {
	alpha           float64
	seed            int64
	breakerFailures int
	breakerOpen     time.Duration
	metrics         *obs.Registry
	// cacheEntries > 0 attaches an interval cache; cacheEpoch is the
	// server-wide invalidation epoch every unit cache shares, and
	// cacheMetrics the unit-labeled cardpi_cache_* instruments (both built
	// by newServer so they land in the served registry even when the
	// unit's metrics are nil).
	cacheEntries int
	cacheEpoch   *cache.Epoch
	cacheMetrics *cache.Metrics
}

// newServingUnit assembles the fault-tolerant chain for one bundle:
//
//	Resilient( Instrument(primary), fallback: histogram split-CP, failsafe: [0,1] )
//
// The primary keeps its Instrumented wrapper so the cardpi_pi_* families
// stay live; the fallback is a split-CP interval around a plain histogram
// estimator calibrated at alpha/2 — cheap, allocation-light, and with no
// failure modes of its own — so a sick primary degrades to wider intervals
// rather than errors. The drift monitor's martingale is seeded with the
// model's residuals over the calibration workload — for artifact- and
// registry-loaded bundles that is the bundled calibration workload, so the
// monitor starts from the exact state the training run froze. Its coverage
// and width windows start empty: they hold served intervals only.
//
// Registry-built units pass nil metrics, so their instruments record
// without exporting: the obs families are keyed by name+labels, so two
// tenants' units exporting into one registry would collide (last GaugeFunc
// wins); per-tenant visibility comes from the cardpi_registry_* counters
// instead.
func newServingUnit(s *pipeline.Setup, o unitOpts) (*servingUnit, error) {
	mon, err := cardpi.NewMonitor(s.Model.Name(), 0, o.seed+100, o.metrics)
	if err != nil {
		return nil, err
	}
	for _, lq := range s.Cal.Queries {
		mon.ObserveScore(conformal.ResidualScore{}.Of(s.Model.EstimateSelectivity(lq.Query), lq.Sel))
	}
	fbModel := histogram.NewSingle(s.Table, histogram.Config{})
	fallback, err := cardpi.WrapSplitCP(fbModel, s.Cal, conformal.ResidualScore{}, o.alpha/2)
	if err != nil {
		return nil, err
	}
	resilient, err := cardpi.NewResilient(cardpi.Instrument(s.PI, o.metrics), cardpi.ResilientConfig{
		Fallbacks:        []cardpi.PI{fallback},
		FailureThreshold: o.breakerFailures,
		OpenFor:          o.breakerOpen,
		Metrics:          o.metrics,
	})
	if err != nil {
		return nil, err
	}
	u := &servingUnit{adaptive: mon, fallback: fallback, uopts: o}
	u.tab.Store(s.Table)
	u.chain.Store(newServingChain(s.Model, resilient))
	if o.cacheEntries > 0 {
		u.cache = cache.New(cache.Config{
			Entries: o.cacheEntries, Epoch: o.cacheEpoch, Metrics: o.cacheMetrics,
		})
	}
	return u, nil
}

// swapChain is the commit half of a validated recalibration candidate:
// rebuild the resilient chain around the corrected primary (same fallback
// stage and breaker tuning), publish it with one atomic store, reset the
// monitor, and bump the cache epoch. Building the chain is the only
// fallible step, so an error return leaves the old chain serving untouched.
func (u *servingUnit) swapChain(c *recal.Candidate) error {
	resilient, err := cardpi.NewResilient(cardpi.Instrument(c.PI, u.uopts.metrics), cardpi.ResilientConfig{
		Fallbacks:        []cardpi.PI{u.fallback},
		FailureThreshold: u.uopts.breakerFailures,
		OpenFor:          u.uopts.breakerOpen,
		Metrics:          u.uopts.metrics,
	})
	if err != nil {
		return err
	}
	u.chain.Store(newServingChain(c.Model, resilient))
	// The monitor's windows and martingale described the old chain.
	u.adaptive.Reset()
	// Publish first, then invalidate: a request racing the swap either
	// resolved the old chain (and may briefly refill old-epoch entries that
	// the Put epoch check drops) or sees the new chain with an empty cache.
	u.invalidate()
	return nil
}

// server holds the serving state: the default serving unit answering
// unrouted requests, the multi-tenant registry resolving ?tenant=&table=
// routed ones, and the admission control that bounds concurrency.
type server struct {
	def      *servingUnit
	reg      *registry.Registry[*servingUnit]
	timeout  time.Duration
	maxBatch int
	health   healthResponse

	// epoch is the server-wide interval-cache invalidation epoch shared by
	// every unit's cache (nil when -cache-entries is 0). Registry promotes
	// and rollbacks bump it directly — the routed unit changes identity, so
	// every cache that might hold the old unit's intervals must die.
	epoch *cache.Epoch

	// scenarioAdmin gates POST /admin/scenario; scenarioMu serialises its
	// clone → mutate → publish cycles so concurrent drills cannot interleave.
	scenarioAdmin bool
	scenarioMu    sync.Mutex

	// synthAdmin gates POST /admin/synth; synthMu serialises synthesis runs
	// (each is a full train/calibrate fan-out) and guards the lazy synthDir
	// creation; synthSeq numbers the candidate bundle files so repeated
	// syntheses never overwrite a registered artifact.
	synthAdmin bool
	synthDir   string
	synthMu    sync.Mutex
	synthSeq   atomic.Int64
	// metrics is the registry this server's instruments live in, built by
	// newServer and served at /metrics after the process-wide pool
	// families (par.Metrics); admin-triggered synthesis publishes its
	// cardpi_synth_* families here too.
	metrics *obs.Registry

	// Admission control: sem holds the execution slots; waiters counts
	// requests queued for a slot, bounded by maxQueue.
	sem      chan struct{}
	waiters  atomic.Int64
	maxQueue int64

	single, batch   endpointMetrics
	shed            *obs.Counter
	inflight        *obs.IntGauge
	batchSize       *obs.Histogram
	batchWireJSON   *obs.Counter
	batchWireBinary *obs.Counter
	metricsHandler  http.Handler

	// scratch recycles per-request buffer sets (body bytes, query views,
	// parsed queries, result rows, encoder output) across /estimate and
	// /estimate/batch requests, so a warm server allocates O(1) per batch
	// instead of O(batch size).
	scratch sync.Pool
}

// endpointMetrics are one estimate endpoint's request instruments.
type endpointMetrics struct {
	ok, bad, shed, fail *obs.Counter
	lat                 *obs.Histogram
}

// serveScratch is one pooled per-request buffer set. Slices are sized from
// -max-batch at construction and retain their capacity across requests.
type serveScratch struct {
	buf     []byte             // JSON reply encode buffer
	body    []byte             // raw request body (binary wire path)
	rawQ    [][]byte           // zero-copy query views into body
	lines   []string           // query texts (single-query and binary wire paths)
	qs      []workload.Query   // parsed queries
	results []estimateResponse // per-query replies
	wire    []codec.WireResult // binary response frames
	depths  []int              // per-query chain depths

	// Request-core state (see readQueries and servingUnit.estimate).
	cres    []cache.Result   // per-query cached/computed cores
	cached  []bool           // per-query: served without running the chain
	hitKeys []cache.Key      // keys of the rows the text probe answered
	flights []*cache.Flight  // per-query claimed flight (nil: hit or cache off)
	lead    []int            // rows this request computes, in batch order
	leadQs  []workload.Query // their queries, when not the whole batch
}

// batchSizeBuckets are the histogram bounds for /estimate/batch sizes:
// powers of two up to the default -max-batch cap.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// newServer assembles the serving state: the default serving unit (see
// newServingUnit for the fault-tolerant chain), the multi-tenant registry
// whose bundles are built into further units on demand, and the admission
// control plus metric instruments shared by every route.
func newServer(s *pipeline.Setup, o serveOpts) (*server, error) {
	metrics := obs.NewRegistry()
	if o.maxInflight <= 0 {
		o.maxInflight = 64
	}
	if o.timeout <= 0 {
		o.timeout = 2 * time.Second
	}
	if o.maxBatch <= 0 {
		o.maxBatch = 256
	}
	if o.source == nil {
		o.source = &modelSource{origin: "trained", model: s.Model.Name(), method: s.PI.Name()}
	}
	var epoch *cache.Epoch
	if o.cacheEntries > 0 {
		epoch = new(cache.Epoch)
	}
	// unitFor builds one unit's options. Registry-loaded bundles freeze their
	// own alpha/seed in the manifest; the per-server knobs (breaker tuning,
	// cache) apply uniformly. Unit-labeled cache instruments go to
	// the served registry (the obs families collide only on identical label
	// sets); a registry unit's other instruments get nil metrics.
	unitFor := func(alpha float64, seed int64, label string, unitMetrics *obs.Registry) unitOpts {
		uo := unitOpts{
			alpha: alpha, seed: seed,
			breakerFailures: o.breakerFailures, breakerOpen: o.breakerOpen,
			metrics: unitMetrics,
		}
		if epoch != nil {
			uo.cacheEntries, uo.cacheEpoch = o.cacheEntries, epoch
			uo.cacheMetrics = cache.NewMetrics(metrics, obs.L("unit", label))
		}
		return uo
	}
	def, err := newServingUnit(s, unitFor(o.alpha, o.seed, "default", metrics))
	if err != nil {
		return nil, err
	}
	if o.recal.enabled {
		sup, err := recal.New(recal.Config{
			Base:        s.Model,
			Alpha:       o.alpha,
			Window:      o.recal.window,
			MinObserved: o.recal.minObserved,
			MaxAttempts: o.recal.maxAttempts,
			CoverageTol: o.recal.coverageTol,
			WidthCap:    o.recal.widthCap,
			Backoff:     o.recal.backoff,
			MaxBackoff:  o.recal.maxBackoff,
			Drifted:     def.adaptive.Drifted,
			Swap:        def.swapChain,
			Metrics:     metrics,
			Logf:        logStderr,
		})
		if err != nil {
			return nil, err
		}
		def.recal = sup
	}
	reg := registry.New(func(k registry.Key, ref *registry.BundleRef, rs *pipeline.Setup) (*servingUnit, error) {
		return newServingUnit(rs, unitFor(ref.Manifest.Alpha, ref.Manifest.Seed, k.String(), nil))
	}, registry.Options{
		CacheSize:    o.registryCache,
		SmokeQueries: o.smokeQueries,
		Metrics:      metrics,
	})
	srv := &server{
		def:           def,
		reg:           reg,
		epoch:         epoch,
		timeout:       o.timeout,
		maxBatch:      o.maxBatch,
		health:        healthFor(o.source),
		sem:           make(chan struct{}, o.maxInflight),
		maxQueue:      int64(o.maxQueue),
		scenarioAdmin: o.scenarioAdmin,
		synthAdmin:    o.synthAdmin,
		synthDir:      o.synthDir,
		metrics:       metrics,
	}
	maxBatchCap := o.maxBatch
	srv.scratch.New = func() any {
		return &serveScratch{
			rawQ:    make([][]byte, 0, maxBatchCap),
			lines:   make([]string, 0, maxBatchCap),
			qs:      make([]workload.Query, 0, maxBatchCap),
			results: make([]estimateResponse, 0, maxBatchCap),
			wire:    make([]codec.WireResult, 0, maxBatchCap),
			depths:  make([]int, 0, maxBatchCap),
			cres:    make([]cache.Result, 0, maxBatchCap),
			cached:  make([]bool, 0, maxBatchCap),
			hitKeys: make([]cache.Key, 0, maxBatchCap),
			flights: make([]*cache.Flight, 0, maxBatchCap),
			lead:    make([]int, 0, maxBatchCap),
			leadQs:  make([]workload.Query, 0, maxBatchCap),
		}
	}
	if ms := o.source; ms.origin == "artifact" {
		// A constant-1 info gauge: the provenance travels in the labels, so
		// dashboards can join serving metrics against the exact artifact.
		metrics.IntGauge("cardpi_serve_artifact_info",
			"Constant 1 when serving from an artifact; labels carry the bundle's provenance.",
			obs.L("model", ms.man.Model), obs.L("method", ms.man.Method),
			obs.L("dataset", ms.man.Dataset),
			obs.L("schema_version", strconv.Itoa(ms.man.SchemaVersion)),
			obs.L("seed", strconv.FormatInt(ms.man.Seed, 10)),
		).Set(1)
	}
	// Resolve (and thereby pre-create, so /metrics shows the families at 0
	// before any traffic) the serving instruments.
	endpoint := func(requests, seconds, path string) endpointMetrics {
		help := "Completed " + path + " requests by response class."
		return endpointMetrics{
			ok:   metrics.Counter(requests, help, obs.L("class", "ok")),
			bad:  metrics.Counter(requests, help, obs.L("class", "bad_request")),
			shed: metrics.Counter(requests, help, obs.L("class", "shed")),
			fail: metrics.Counter(requests, help, obs.L("class", "error")),
			lat: metrics.Histogram(seconds,
				"End-to-end "+path+" latency in seconds, admission wait included.", obs.LatencyBuckets),
		}
	}
	srv.single = endpoint("cardpi_serve_requests_total", "cardpi_serve_request_seconds", "/estimate")
	srv.batch = endpoint("cardpi_serve_batch_requests_total", "cardpi_serve_batch_request_seconds", "/estimate/batch")
	srv.shed = metrics.Counter("cardpi_serve_shed_total",
		"Requests rejected by admission control (429 + Retry-After).")
	srv.inflight = metrics.IntGauge("cardpi_serve_inflight",
		"/estimate requests currently holding an execution slot.")
	srv.batchSize = metrics.Histogram("cardpi_serve_batch_size",
		"Queries per accepted /estimate/batch request.", batchSizeBuckets)
	srv.batchWireJSON = metrics.Counter("cardpi_serve_batch_wire_total",
		"Answered /estimate/batch requests by negotiated wire format.", obs.L("wire_format", "json"))
	srv.batchWireBinary = metrics.Counter("cardpi_serve_batch_wire_total",
		"Answered /estimate/batch requests by negotiated wire format.", obs.L("wire_format", "binary"))
	if epoch != nil {
		metrics.GaugeFunc("cardpi_cache_epoch",
			"Current interval-cache invalidation epoch (bumps on every chain swap, table mutation, promote, and rollback).",
			func() float64 { return float64(epoch.Load()) })
	}
	srv.metricsHandler = obs.Handler(par.Metrics(), metrics)
	return srv, nil
}

// healthResponse is the JSON body of /healthz: liveness plus where the
// serving model came from, so probes and smoke tests can assert the server
// really is running the artifact (or the in-process training) they expect.
type healthResponse struct {
	Status      string        `json:"status"`
	ModelSource string        `json:"model_source"` // "trained" | "artifact"
	Model       string        `json:"model"`
	Method      string        `json:"method"`
	Artifact    *artifactInfo `json:"artifact,omitempty"`
}

// artifactInfo is the manifest provenance echoed on /healthz when serving
// from a bundle.
type artifactInfo struct {
	Path             string  `json:"path"`
	SchemaVersion    int     `json:"schema_version"`
	Dataset          string  `json:"dataset"`
	Source           string  `json:"source"`
	Rows             int     `json:"rows"`
	Queries          int     `json:"queries"`
	Seed             int64   `json:"seed"`
	Alpha            float64 `json:"alpha"`
	TableFingerprint string  `json:"table_fingerprint"`
}

// healthFor freezes the /healthz payload at startup; nothing in it changes
// while the server runs.
func healthFor(ms *modelSource) healthResponse {
	h := healthResponse{Status: "ok", ModelSource: ms.origin, Model: ms.model, Method: ms.method}
	if ms.origin == "artifact" {
		m := ms.man
		h.Artifact = &artifactInfo{
			Path: ms.artifact, SchemaVersion: m.SchemaVersion,
			Dataset: m.Dataset, Source: m.Source, Rows: m.Rows, Queries: m.Queries,
			Seed: m.Seed, Alpha: m.Alpha, TableFingerprint: m.TableFingerprint,
		}
	}
	return h
}

// mux wires the endpoint groups. Body limits are path-aware: only
// /estimate/batch carries a large request body (a JSON query list, up to
// maxBatchBodyBytes); every other endpoint — including the /admin bodies,
// which are a few short strings — fits the hard maxQueryBytes cap.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /estimate", s.handleEstimate)
	mux.HandleFunc("POST /estimate/batch", s.handleEstimateBatch)
	mux.HandleFunc("POST /admin/register", s.handleAdminRegister)
	mux.HandleFunc("POST /admin/promote", s.handleAdminPromote)
	mux.HandleFunc("POST /admin/rollback", s.handleAdminRollback)
	mux.HandleFunc("POST /admin/evict", s.handleAdminEvict)
	mux.HandleFunc("GET /admin/registry", s.handleAdminRegistry)
	mux.HandleFunc("GET /admin/recal", s.handleAdminRecalStatus)
	mux.HandleFunc("POST /admin/recal/trigger", s.handleAdminRecalTrigger)
	mux.HandleFunc("POST /admin/scenario", s.handleAdminScenario)
	mux.HandleFunc("POST /admin/synth", s.handleAdminSynth)
	mux.Handle("GET /metrics", s.metricsHandler)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.health)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	small := http.MaxBytesHandler(mux, maxQueryBytes)
	big := http.MaxBytesHandler(mux, maxBatchBodyBytes)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/estimate/batch" {
			big.ServeHTTP(w, r)
			return
		}
		small.ServeHTTP(w, r)
	})
}

// admit implements load shedding: take an execution slot immediately if one
// is free; otherwise join the bounded wait queue until a slot frees or the
// request context dies. Returns a release func and true on admission, or
// (nil, false) when the request must be shed.
func (s *server) admit(ctx context.Context) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	if s.waiters.Add(1) > s.maxQueue {
		s.waiters.Add(-1)
		return nil, false
	}
	defer s.waiters.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-ctx.Done():
		return nil, false
	}
}

// estimateResponse is the JSON answer of /estimate. Selectivity fields are
// normalised to [0, 1]; row fields are cardinalities in [0, table rows].
// ServedBy names the chain stage that produced the interval ("primary",
// "fallback-N", or "failsafe"); Degraded is true whenever it was not the
// primary, or when a registry fault dropped the request onto the default
// unit. Bundle names the registry bundle that answered ("tenant/table@vN",
// or "fallback:default" after a registry fault); it is absent on unrouted
// requests.
type estimateResponse struct {
	Query    string  `json:"query"`
	Method   string  `json:"method"`
	ServedBy string  `json:"served_by"`
	Bundle   string  `json:"bundle,omitempty"`
	Degraded bool    `json:"degraded"`
	EstSel   float64 `json:"estimate_selectivity"`
	EstRows  float64 `json:"estimate_rows"`
	LoSel    float64 `json:"interval_lo_selectivity"`
	HiSel    float64 `json:"interval_hi_selectivity"`
	LoRows   float64 `json:"interval_lo_rows"`
	HiRows   float64 `json:"interval_hi_rows"`
	TrueRows int64   `json:"true_rows"`
	Covered  bool    `json:"covered"`
	Drifted  bool    `json:"drifted"`
	// RollCov is the monitor's rolling coverage. It is NaN while the
	// window holds no observation (right after a recalibration commit);
	// JSON replies carry that as -1 (see sanitizeJSON), the binary wire as
	// NaN.
	RollCov float64 `json:"rolling_coverage"`
	// Cached marks replies served without executing the estimator chain:
	// a cache hit, or a follower of a miss that another request (on either
	// endpoint) or an earlier row of the same batch is computing. Numeric
	// fields are bit-identical to an uncached reply; only the live
	// telemetry (drifted, rolling_coverage) can differ. That telemetry is
	// per request: it is read once, after the request's rows are computed,
	// so every row of a batch reports the same monitor state.
	Cached bool `json:"cached,omitempty"`
}

// route resolves which serving unit answers the request. Requests without
// ?tenant=&table= take the default unit (single-bundle mode, the only mode
// before the registry existed). Routed requests resolve their tenant's
// active bundle from the registry; an unknown or unpromoted key is the
// caller's error (404), while a fault of a known active bundle (file gone,
// corruption, eviction racing a disk loss) degrades to the default unit —
// the estimate path never turns a registry fault into a 5xx. On ok=false
// the error response has already been written; the caller only counts it.
func (s *server) route(w http.ResponseWriter, values url.Values) (u *servingUnit, bundle string, degraded, ok bool) {
	tenant, table := values.Get("tenant"), values.Get("table")
	if tenant == "" && table == "" {
		return s.def, "", false, true
	}
	if tenant == "" || table == "" {
		httpError(w, http.StatusBadRequest, "missing_tenant_table",
			"tenant and table must be given together (got tenant=%q table=%q)", tenant, table)
		return nil, "", false, false
	}
	key := registry.Key{Tenant: tenant, Table: table}
	l, err := s.reg.Acquire(key)
	if err != nil {
		if errors.Is(err, registry.ErrUnknownKey) || errors.Is(err, registry.ErrNotPromoted) {
			httpError(w, http.StatusNotFound, "unknown_bundle", "%v", err)
			return nil, "", false, false
		}
		logStderr("registry fault for %s, serving default bundle: %v", key, err)
		return s.def, "fallback:default", true, true
	}
	return l.Value, fmt.Sprintf("%s@v%d", key, l.Ref.Version), false, true
}

// handleEstimate answers GET /estimate?q=...: a batch of one through
// serveEstimate, replying with the single result object.
func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.serveEstimate(w, r, false)
}

// handleEstimateBatch answers POST /estimate/batch through serveEstimate.
// The request Content-Type negotiates the wire format: the default JSON
// body, or the compact binary frame format (codec.WireContentType) — a
// binary request gets a binary response.
func (s *server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	s.serveEstimate(w, r, true)
}

// serveEstimate is the one request path behind both estimate endpoints. A
// request — one query or a whole batch — takes one admission slot, one
// deadline and one route; its rows run through the unit's estimate core and
// each reply row is field-for-field what /estimate returns for that query.
// Any malformed query rejects the whole batch with a 400 naming its index —
// partial answers would make "which result is which" ambiguous. All
// request-sized buffers come from the server scratch pool, so a warm server
// allocates O(1) per request in either wire format.
func (s *server) serveEstimate(w http.ResponseWriter, r *http.Request, batch bool) {
	ep := &s.single
	if batch {
		ep = &s.batch
	}
	start := time.Now()
	release, ok := s.admit(r.Context())
	if !ok {
		s.shed.Inc()
		ep.shed.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "overloaded",
			"server at capacity; retry after the indicated delay")
		return
	}
	defer release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer func() { ep.lat.Observe(time.Since(start).Seconds()) }()

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()

	values := r.URL.Query()
	u, bundle, degraded, ok := s.route(w, values)
	if !ok {
		ep.bad.Inc()
		return
	}
	// The epoch snapshot precedes the one resolution of the table and chain
	// that every row is probed or parsed, computed and rendered against:
	// results stored under this epoch were computed against state resolved
	// after it, so swap-then-bump can never leave stale entries reachable
	// (DESIGN.md "Epoch invalidation").
	var epoch uint64
	if u.cache != nil {
		epoch = u.cache.Epoch().Load()
	}
	tab, ch := u.table(), u.current()
	sc := s.scratch.Get().(*serveScratch)
	defer s.scratch.Put(sc)
	lines, binary, bad := s.readQueries(r, values, sc, tab, u.cache, batch)
	if bad != nil {
		ep.bad.Inc()
		httpError(w, http.StatusBadRequest, bad.code, "%s", bad.msg)
		return
	}
	if batch {
		s.batchSize.Observe(float64(len(sc.qs)))
	}

	u.estimate(ctx, epoch, tab, ch, lines, sc, bundle, degraded)
	// A reply counts as ok only once written. A reply that cannot be
	// encoded is a counted 500, never a 200 with an empty body.
	if binary {
		sc.wire = sc.wire[:0]
		for i := range sc.results {
			sc.wire = append(sc.wire, wireResult(&sc.results[i], sc.depths[i]))
		}
		sc.body = codec.AppendWireResponse(sc.body[:0], uint64(tab.NumRows()), sc.wire)
		w.Header().Set("Content-Type", codec.WireContentType)
		if _, err := w.Write(sc.body); err != nil {
			ep.fail.Inc()
			return
		}
		s.batchWireBinary.Inc()
		ep.ok.Inc()
		return
	}
	for i := range sc.results {
		sc.results[i].RollCov = sanitizeJSON(sc.results[i].RollCov)
	}
	var err error
	if batch {
		sc.buf, err = appendBatchReply(sc.buf[:0], &batchResponse{Count: len(sc.results), Results: sc.results})
	} else {
		sc.buf, err = appendEstimateReply(sc.buf[:0], &sc.results[0])
	}
	if err != nil {
		ep.fail.Inc()
		httpError(w, http.StatusInternalServerError, "encode_failed", "encode reply: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(sc.buf); err != nil {
		ep.fail.Inc()
		return
	}
	if batch {
		s.batchWireJSON.Inc()
	}
	ep.ok.Inc()
}

// encodeJSON replaces buf's contents with v's indented JSON encoding.
func encodeJSON(buf *bytes.Buffer, v any) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeJSON writes v as a 200 JSON reply. v is encoded before the status
// line goes out, so a value encoding/json refuses (NaN, ±Inf) becomes a 500
// with a JSON error body rather than a 200 with an empty one.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := encodeJSON(&buf, v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode_failed", "encode reply: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// badRequest is a 400 reply: a machine-readable code and its message.
type badRequest struct{ code, msg string }

func reject(code, format string, args ...any) *badRequest {
	return &badRequest{code: code, msg: fmt.Sprintf(format, args...)}
}

// readQueries reads the request's query lines — /estimate's q parameter as
// a batch of one, or /estimate/batch's JSON or binary body, the latter
// decoded zero-copy into pooled buffers — then validates each row and
// either answers it from c or parses it against tab.
//
// With a cache, a row first probes c by cache.KeyOfText: a line byte-equal
// to a cached query's canonical text is a live hit, answered into sc.cres
// and sc.cached with no parse, no predicate slice and no KeyOf (its sc.qs
// slot stays the zero Query). Every other row is parsed into sc.qs, and
// servingUnit.estimate probes it by KeyOf, so other spellings still share
// one entry. The text probe counts nothing: the hits are counted (and
// their recency stamped) only once every row has validated, so a rejected
// request touches no cache counter and no entry.
func (s *server) readQueries(r *http.Request, values url.Values, sc *serveScratch, tab *dataset.Table, c *cache.Cache, batch bool) (lines []string, binary bool, bad *badRequest) {
	binary = batch && strings.HasPrefix(r.Header.Get("Content-Type"), codec.WireContentType)
	switch {
	case !batch:
		if !values.Has("q") {
			return nil, false, reject("missing_query", "missing query parameter q, e.g. /estimate?q=state+%%3D+3")
		}
		sc.lines = append(sc.lines[:0], values.Get("q"))
		lines = sc.lines
	case binary:
		var err error
		if sc.body, err = appendReadAll(sc.body[:0], r.Body); err != nil {
			return nil, false, reject("invalid_wire", "read request body: %v", err)
		}
		if sc.rawQ, err = codec.DecodeWireRequest(sc.body, sc.rawQ[:0]); err != nil {
			return nil, false, reject("invalid_wire", "decode binary batch: %v", err)
		}
		sc.lines = sc.lines[:0]
		for _, q := range sc.rawQ {
			sc.lines = append(sc.lines, string(q))
		}
		lines = sc.lines
	default:
		var req batchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, false, reject("invalid_json", "decode request body: %v (expected {\"queries\": [\"...\"]})", err)
		}
		lines = req.Queries
	}
	if len(lines) == 0 {
		return nil, false, reject("empty_batch", "queries list is empty")
	}
	if len(lines) > s.maxBatch {
		return nil, false, reject("batch_too_large", "%d queries exceed the per-request cap of %d", len(lines), s.maxBatch)
	}
	name := func(i int) string {
		if batch {
			return "query " + strconv.Itoa(i)
		}
		return "query parameter q"
	}
	sc.qs, sc.cres, sc.cached = sc.qs[:0], sc.cres[:0], sc.cached[:0]
	sc.hitKeys = sc.hitKeys[:0]
	for i, line := range lines {
		if line == "" {
			return nil, false, reject("empty_query", "%s is empty", name(i))
		}
		if len(line) > maxQueryBytes {
			return nil, false, reject("query_too_long", "%s exceeds %d bytes", name(i), maxQueryBytes)
		}
		if c != nil {
			k := cache.KeyOfText(line)
			if res, ok := c.Peek(k); ok {
				sc.qs = append(sc.qs, workload.Query{})
				sc.cres = append(sc.cres, res)
				sc.cached = append(sc.cached, true)
				sc.hitKeys = append(sc.hitKeys, k)
				continue
			}
		}
		q, err := workload.ParseQuery(tab, line)
		if err != nil {
			if batch {
				return nil, false, reject("parse_error", "%s: parse %q: %v", name(i), line, err)
			}
			return nil, false, reject("parse_error", "parse %q: %v", line, err)
		}
		sc.qs = append(sc.qs, q)
		sc.cres = append(sc.cres, cache.Result{})
		sc.cached = append(sc.cached, false)
	}
	if len(sc.hitKeys) > 0 {
		c.Touch(sc.hitKeys)
	}
	return lines, binary, nil
}

// estimate is the request core behind /estimate (a batch of one) and
// /estimate/batch. It answers the rows readQueries left unanswered into
// sc.results and sc.depths against the table and chain the caller resolved
// after snapshotting epoch:
//
//  1. Probe: every parsed row is looked up in the unit's cache by KeyOf; a
//     hit replays the stored core result. Rows the text probe already
//     answered (sc.cached set by readQueries) are skipped.
//  2. Claim: every miss claims its (key, epoch) flight. As leader, this
//     request computes the row; as follower, it reuses the leader's result —
//     whether another request or an earlier row of this batch leads it.
//  3. Compute: all leader rows run through ONE batched resilient-chain call,
//     which also yields the point estimate of every primary-served row;
//     their ground truth is counted, the monitor fed, and their flights
//     finished (depth-0 results are stored).
//  4. Wait: only then do follower rows wait. A request never waits while it
//     holds an unfinished flight, so two requests cannot deadlock; and the
//     compute step cannot panic (the chain and computeResult recover every
//     fault), so every claimed flight finishes.
//
// With the cache off every row is a leader and no flight is claimed.
func (u *servingUnit) estimate(ctx context.Context, epoch uint64, tab *dataset.Table, ch *servingChain, lines []string, sc *serveScratch, bundle string, degraded bool) {
	sc.depths, sc.flights = sc.depths[:0], sc.flights[:0]
	sc.lead = sc.lead[:0]
	for i, q := range sc.qs {
		sc.depths = append(sc.depths, 0)
		sc.flights = append(sc.flights, nil)
		if sc.cached[i] {
			continue
		}
		if u.cache == nil {
			sc.lead = append(sc.lead, i)
			continue
		}
		k := cache.KeyOf(q)
		if r, ok := u.cache.Get(k); ok {
			sc.cres[i], sc.cached[i] = r, true
			continue
		}
		f, leader := u.cache.Claim(k, epoch)
		sc.flights[i] = f
		if leader {
			sc.lead = append(sc.lead, i)
		} else {
			sc.cached[i] = true
		}
	}
	if len(sc.lead) > 0 {
		qs := sc.qs
		if len(sc.lead) < len(sc.qs) {
			sc.leadQs = sc.leadQs[:0]
			for _, i := range sc.lead {
				sc.leadQs = append(sc.leadQs, sc.qs[i])
			}
			qs = sc.leadQs
		}
		// The resilient chain never fails: a sick primary degrades through
		// the fallback stages down to the fail-safe full-domain interval.
		ivs, depths, ests := ch.resilient.IntervalBatchEstCtx(ctx, qs)
		if !ch.piEstimates {
			ests = nil
		}
		for j, i := range sc.lead {
			var est float64
			hasEst := ests != nil && depths[j] == 0
			if hasEst {
				est = ests[j]
			}
			sc.cres[i] = u.computeResult(ch, tab, sc.qs[i], ivs[j], est, hasEst)
			sc.depths[i] = depths[j]
			if f := sc.flights[i]; f != nil {
				// Only depth-0 results are stored: degraded intervals are
				// transient and must not outlive the fault that caused them.
				u.cache.Finish(f, sc.cres[i], uint64(depths[j]), depths[j] == 0, nil)
			}
		}
	}
	for i, f := range sc.flights {
		if f != nil && sc.cached[i] {
			r, aux, _ := u.cache.Wait(f) // serve leaders Finish with a nil error
			sc.cres[i], sc.depths[i] = r, int(aux)
		}
	}
	// The monitor is read once per request, after every row's observation.
	mon := monitorState{drifted: u.adaptive.Drifted(), rollCov: u.adaptive.RollingCoverage()}
	sc.results = sc.results[:0]
	for i := range sc.qs {
		sc.results = append(sc.results, render(ch, tab, lines[i], sc.cres[i], sc.depths[i], bundle, degraded, sc.cached[i], mon))
	}
}

// monitorState is the drift-monitor telemetry a request's replies carry.
type monitorState struct {
	drifted bool
	rollCov float64
}

// computeResult produces the cacheable core of a reply — the interval, the
// point estimate, and the self-scored ground truth — and feeds the monitor
// the served row. Everything in it is a pure function of (chain, table
// snapshot, canonical query), which is exactly why a cache.Result can be replayed
// bit-identically until an epoch bump retires the (chain, table) pair it
// was computed against. The demo owns the oracle, so it can score itself; a
// panicking or erroring model/oracle degrades the telemetry fields, never
// the reply. The model runs once per row: with hasEst, est is the estimate
// the interval pass computed (bit-identical to ch.model's own); otherwise
// (a fallback-served row, or a PI that reports no estimate) computeResult
// runs the model itself. Either way the monitor scores the same estimate,
// interval and coverage the reply carries.
func (u *servingUnit) computeResult(ch *servingChain, tab *dataset.Table, q workload.Query, iv cardpi.Interval, est float64, hasEst bool) cache.Result {
	pred, predOK := est, hasEst
	if !hasEst {
		pred, predOK = rawEstimate(ch.model, q)
	}
	truth, truthOK := groundTruth(tab, q)
	if truthOK && predOK {
		u.observe(ch, q, pred, iv, truth, int64(tab.NumRows()))
	}
	if !truthOK {
		truth = -1
	}
	est = pred
	if !predOK || math.IsNaN(est) || math.IsInf(est, 0) {
		est = -1
	}
	return cache.Result{
		Est: est,
		Lo:  iv.Lo, Hi: iv.Hi,
		TrueRows: truth, HasTruth: truthOK,
	}
}

// render assembles the JSON reply around a computed (or cached) core
// result. Covered is re-derived from the cached floats — the derivation is
// deterministic, so a hit renders bit-for-bit what the original miss did —
// while drifted/rolling_coverage come from mon, the monitor as this request
// read it, not as the request that filled the entry saw it.
func render(ch *servingChain, tab *dataset.Table, line string, res cache.Result, depth int, bundle string, degraded, cached bool, mon monitorState) estimateResponse {
	n := int64(tab.NumRows())
	iv := cardpi.Interval{Lo: res.Lo, Hi: res.Hi}
	cardIv := cardpi.CardinalityInterval(iv, n)
	resp := estimateResponse{
		Query:    line,
		Method:   ch.method,
		ServedBy: ch.stageName(depth),
		Bundle:   bundle,
		Degraded: depth > 0 || degraded,
		EstSel:   res.Est,
		EstRows:  res.Est * float64(n),
		LoSel:    iv.Lo,
		HiSel:    iv.Hi,
		LoRows:   cardIv.Lo,
		HiRows:   cardIv.Hi,
		TrueRows: -1,
		Drifted:  mon.drifted,
		RollCov:  mon.rollCov,
		Cached:   cached,
	}
	if res.HasTruth {
		resp.TrueRows = res.TrueRows
		resp.Covered = covers(iv, n, res.TrueRows)
	}
	return resp
}

// covers reports whether the selectivity interval iv, in rows of a table of
// n rows, contains the true row count: the covered field of a reply, and
// the coverage sample the monitor records for it.
func covers(iv cardpi.Interval, n, truth int64) bool {
	return cardpi.CardinalityInterval(iv, n).Contains(float64(truth))
}

// batchRequest is the JSON body of POST /estimate/batch: one query string
// per element, same syntax as the single endpoint's q parameter.
type batchRequest struct {
	Queries []string `json:"queries"`
}

// batchResponse is the JSON answer of /estimate/batch; Results is aligned
// with the request's Queries and each element matches what /estimate would
// have returned for that query.
type batchResponse struct {
	Count   int                `json:"count"`
	Results []estimateResponse `json:"results"`
}

// appendReadAll reads r to EOF appending into dst and returns the extended
// slice; with spare capacity in dst the read itself performs no heap
// allocations, which keeps the pooled binary-wire path garbage-free.
func appendReadAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// wireResult converts one JSON-shaped reply into its binary frame. The two
// forms carry the same numbers bit-for-bit — the smoke test diffs them
// element-wise.
func wireResult(resp *estimateResponse, depth int) codec.WireResult {
	var flags uint8
	if resp.Covered {
		flags |= codec.WireFlagCovered
	}
	if resp.Degraded {
		flags |= codec.WireFlagDegraded
	}
	if resp.Drifted {
		flags |= codec.WireFlagDrifted
	}
	if depth < 0 {
		depth = 0
	}
	if depth > 255 {
		depth = 255
	}
	return codec.WireResult{
		EstSel: resp.EstSel, EstRows: resp.EstRows,
		LoSel: resp.LoSel, HiSel: resp.HiSel,
		LoRows: resp.LoRows, HiRows: resp.HiRows,
		TrueRows: resp.TrueRows, RollCov: resp.RollCov,
		Depth: uint8(depth), Flags: flags,
	}
}

// stageName renders a fallback depth for the served_by field.
func (ch *servingChain) stageName(depth int) string {
	switch {
	case depth == 0:
		return "primary"
	case depth >= ch.resilient.FailsafeDepth():
		return "failsafe"
	default:
		return fmt.Sprintf("fallback-%d", depth)
	}
}

// groundTruth counts the true rows against the given table snapshot,
// absorbing oracle errors and panics — the reply then just omits the
// self-scoring fields.
func groundTruth(tab *dataset.Table, q workload.Query) (truth int64, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	t, err := tab.Count(q.Preds)
	if err != nil {
		return 0, false
	}
	return t, true
}

// rawEstimate is the model's point estimate with a panic absorbed (ok =
// false). A non-finite estimate is returned as is: the monitor counts it as
// a dropped observation, and the reply carries the sentinel -1 instead
// (encoding/json cannot marshal NaN/Inf, and the interval fields are what
// callers should trust anyway).
func rawEstimate(model cardpi.Estimator, q workload.Query) (est float64, ok bool) {
	defer func() { _ = recover() }()
	return model.EstimateSelectivity(q), true
}

// observe feeds the monitor one served row — the residual of the served
// estimate pred, whether the served interval iv covered the truth (exactly
// as the reply's covered field says), and iv's width — and, when the
// self-healing loop is enabled, the recal supervisor's rolling window,
// kicking the supervisor on every drifted observation. The window holds the
// frozen base model's estimates: while ch serves that model, pred is one,
// and only a swapped-in chain makes the supervisor run the base model
// itself. The kick is level-triggered on purpose: a failed or rejected
// episode re-arms for as long as the drift persists, instead of waiting for
// a second alarm edge that never comes. Panics are absorbed.
func (u *servingUnit) observe(ch *servingChain, q workload.Query, pred float64, iv cardpi.Interval, truth, n int64) {
	defer func() { _ = recover() }()
	trueSel := float64(truth) / float64(n)
	u.adaptive.Observe(conformal.ResidualScore{}.Of(pred, trueSel), covers(iv, n, truth), iv.Hi-iv.Lo)
	if u.recal != nil {
		if sameModel(ch.model, u.recal.Base()) {
			u.recal.RecordBase(pred, trueSel)
		} else {
			u.recal.Record(q, trueSel)
		}
		if u.adaptive.Drifted() {
			u.recal.Kick()
		}
	}
}

// httpError writes a structured JSON error: {"error": {"code", "message"}}.
// Machine-readable codes let clients branch without parsing prose.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	type errBody struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	_ = json.NewEncoder(w).Encode(map[string]errBody{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}
