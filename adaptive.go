package cardpi

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cardpi/internal/conformal"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// telemetryWindow is the number of recent observations the rolling
// coverage/width telemetry aggregates over (a fixed ring, so recording
// never allocates).
const telemetryWindow = 512

// ring is a fixed-size float64 ring buffer for rolling telemetry. Writes
// never allocate; snapshot copies out the live prefix for scrape-time
// aggregation.
type ring struct {
	buf [telemetryWindow]float64
	n   int // total writes ever; live count is min(n, len(buf))
}

func (r *ring) add(v float64) {
	r.buf[r.n%len(r.buf)] = v
	r.n++
}

func (r *ring) len() int {
	return min(r.n, len(r.buf))
}

func (r *ring) mean() float64 {
	k := r.len()
	if k == 0 {
		return math.NaN()
	}
	var s float64
	for i := 0; i < k; i++ {
		s += r.buf[i]
	}
	return s / float64(k)
}

// p99 returns the nearest-rank 99th percentile of the live window
// (scrape-time only: it copies and sorts).
func (r *ring) p99() float64 {
	k := r.len()
	if k == 0 {
		return math.NaN()
	}
	tmp := make([]float64, k)
	copy(tmp, r.buf[:k])
	sort.Float64s(tmp)
	idx := min((99*k+99)/100, k) - 1
	return tmp[idx]
}

// Adaptive is a production-oriented wrapper combining three mechanisms the
// paper discusses (Section IV): online calibration (every executed query's
// true selectivity is fed back, tightening intervals as the calibration set
// tracks the live workload), optional sliding-window calibration, and
// martingale-based exchangeability monitoring that flags workload drift
// before the coverage guarantee silently erodes.
//
// All inputs and outputs are in normalised selectivity units ([0, 1]); use
// CardinalityInterval to convert an interval to row counts. Unlike the
// static wrappers, Adaptive is mutable — it guards its calibration state
// with a mutex, so Interval, Observe, and every accessor are safe for
// concurrent use from multiple goroutines. The monitor's read side —
// Drifted, RollingCoverage, DriftStatistic — reads an atomically published
// snapshot instead of taking the mutex (see monitorSnapshot).
type Adaptive struct {
	mu     sync.Mutex
	model  Estimator
	online *conformal.Online
	mart   *conformal.PowerMartingale
	score  conformal.Score
	// alpha and window are kept for Recalibrate, which rebuilds the online
	// calibration state with the original configuration.
	alpha  float64
	window int
	// significance is the drift-alarm level (Ville threshold 1/significance).
	significance float64

	// Rolling telemetry: hits holds 0/1 coverage outcomes from Observe
	// (did the pre-update interval contain the truth); widths holds the
	// widths of intervals produced by Interval.
	hits    ring
	widths  ring
	alarmed bool // last drift-alarm state, for edge-triggered counting

	// snap is the monitor's read side, republished under mu after every
	// change to the martingale or the coverage ring.
	snap atomic.Pointer[monitorSnapshot]

	// onRecal, when set, fires after every committed recalibration (see
	// OnRecalibrate).
	onRecal func()

	// Optional metric instruments (nil when AdaptiveConfig.Metrics is nil).
	obsTotal     *obs.Counter
	alarmsTotal  *obs.Counter
	droppedTotal *obs.Counter
	recalTotal   *obs.Counter
	widthHist    *obs.Histogram
}

// monitorSnapshot is one consistent reading of the drift monitor. Observe
// and the recalibration commit build a fresh one while still holding the
// lock, after the martingale and the coverage ring have been updated, and
// publish it with one atomic store; readers load it without the lock. The
// store happens under the lock, so snapshots are published in the same
// order as the state changes they describe and the latest one always
// matches the state a locked read would see.
type monitorSnapshot struct {
	drifted   bool
	coverage  float64
	statistic float64
}

// publishLocked stores a fresh monitor snapshot; the caller holds a.mu (or
// owns a not yet shared Adaptive).
func (a *Adaptive) publishLocked() {
	a.snap.Store(&monitorSnapshot{
		drifted:   a.mart.Rejects(a.significance),
		coverage:  a.hits.mean(),
		statistic: a.mart.MaxLogValue(),
	})
}

// AdaptiveConfig configures NewAdaptive.
type AdaptiveConfig struct {
	// Alpha is the miscoverage level: intervals target coverage 1−Alpha.
	Alpha float64
	// Window keeps only the most recent scores (0 = unbounded growth).
	Window int
	// Significance is the drift-alarm level (default 0.001).
	Significance float64
	// Seed drives the martingale's tie-breaking.
	Seed int64
	// Metrics, when non-nil, registers the adaptive telemetry —
	// cardpi_adaptive_* gauges, counters, and the interval-width
	// histogram — on the given registry, labeled with this wrapper's
	// model name. See OBSERVABILITY.md for the full series list.
	Metrics *obs.Registry
}

// NewAdaptive builds an adaptive PI around a model, seeded with an initial
// calibration workload. With cfg.Metrics set, the drift and coverage
// telemetry is live from the first Observe (including the seeding pass over
// the initial workload).
func NewAdaptive(model Estimator, initial *workload.Workload, score conformal.Score, cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("cardpi: alpha must be in (0,1), got %v", cfg.Alpha)
	}
	if cfg.Significance <= 0 {
		cfg.Significance = 0.001
	}
	online, err := conformal.NewOnline(score, cfg.Alpha, cfg.Window)
	if err != nil {
		return nil, err
	}
	mart, err := conformal.NewPowerMartingale(0.1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	a := &Adaptive{
		model: model, online: online, mart: mart,
		score: score, alpha: cfg.Alpha, window: cfg.Window,
		significance: cfg.Significance,
	}
	a.publishLocked()
	if cfg.Metrics != nil {
		a.registerMetrics(cfg.Metrics)
	}
	if initial != nil {
		for _, lq := range initial.Queries {
			a.Observe(lq.Query, lq.Sel)
		}
	}
	if a.CalibrationSize() == 0 {
		return nil, fmt.Errorf("cardpi: adaptive PI needs a non-empty initial calibration set")
	}
	return a, nil
}

// registerMetrics publishes the adaptive telemetry on reg, labeled by model
// name. The coverage and drift-statistic gauges read the monitor snapshot;
// the width gauges and calibration size lock the wrapper's mutex. Either
// way scrapes are consistent with concurrent Observe/Interval traffic.
func (a *Adaptive) registerMetrics(reg *obs.Registry) {
	model := obs.L("model", a.model.Name())
	a.obsTotal = reg.Counter("cardpi_adaptive_observations_total",
		"True selectivities fed back via Adaptive.Observe.", model)
	a.alarmsTotal = reg.Counter("cardpi_adaptive_drift_alarms_total",
		"Drift-alarm activations: transitions of the martingale statistic across the Ville threshold.", model)
	a.droppedTotal = reg.Counter("cardpi_adaptive_dropped_observations_total",
		"Observations dropped because the prediction or truth was NaN/Inf.", model)
	a.recalTotal = reg.Counter("cardpi_adaptive_recalibrations_total",
		"Recalibrate calls: drift-alarm acknowledgements that reset the monitor.", model)
	a.widthHist = reg.Histogram("cardpi_adaptive_interval_width",
		"Widths of intervals produced by Adaptive.Interval, in normalised selectivity units.",
		obs.WidthBuckets, model)
	reg.GaugeFunc("cardpi_adaptive_coverage",
		"Rolling empirical coverage over the last observations (target is 1-alpha).",
		a.RollingCoverage, model)
	reg.GaugeFunc("cardpi_adaptive_width_mean",
		"Rolling mean interval width in normalised selectivity units.",
		func() float64 { a.mu.Lock(); defer a.mu.Unlock(); return a.widths.mean() }, model)
	reg.GaugeFunc("cardpi_adaptive_width_p99",
		"Rolling p99 interval width in normalised selectivity units.",
		func() float64 { a.mu.Lock(); defer a.mu.Unlock(); return a.widths.p99() }, model)
	reg.GaugeFunc("cardpi_adaptive_calibration_size",
		"Scores currently in the online calibration set.",
		func() float64 { return float64(a.CalibrationSize()) }, model)
	reg.GaugeFunc("cardpi_adaptive_drift_statistic",
		"Running maximum of the restarted log power martingale (drift evidence).",
		a.DriftStatistic, model)
	reg.GaugeFunc("cardpi_adaptive_drift_threshold",
		"Ville rejection threshold log(1/significance); an alarm fires when the drift statistic crosses it.",
		func() float64 { return math.Log(1 / a.significance) }, model)
}

// Name implements PI. The name tracks the current model, so it changes when
// RecalibrateModel swaps in a corrected chain. Safe for concurrent use.
func (a *Adaptive) Name() string { return "adaptive/" + a.currentModel().Name() }

// currentModel snapshots the model pointer under the lock; estimates are
// computed outside the lock against the snapshot, so a concurrent
// recalibration swap never tears a read (a racing Observe may feed one
// pre-swap estimate into the post-swap calibration set, which the next
// online update washes out).
func (a *Adaptive) currentModel() Estimator {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.model
}

// Interval implements PI against the current calibration state: a
// selectivity interval in [0, 1]. Safe for concurrent use; with metrics
// enabled the produced width also feeds the rolling width telemetry.
// Recording adds zero heap allocations per call.
func (a *Adaptive) Interval(q workload.Query) (Interval, error) {
	pred := a.currentModel().EstimateSelectivity(q)
	a.mu.Lock()
	iv, err := a.online.Interval(pred)
	if err != nil {
		a.mu.Unlock()
		return Interval{}, err
	}
	iv = clip(iv)
	a.widths.add(iv.Hi - iv.Lo)
	a.mu.Unlock()
	if a.widthHist != nil {
		a.widthHist.Observe(iv.Hi - iv.Lo)
	}
	return iv, nil
}

// Observe feeds back a query's true selectivity (in [0, 1]) after
// execution, scoring the current model's estimate for q: it is
// ObservePrediction with the prediction computed here. Safe for concurrent
// use.
func (a *Adaptive) Observe(q workload.Query, trueSel float64) {
	a.ObservePrediction(a.currentModel().EstimateSelectivity(q), trueSel)
}

// ObservePrediction feeds back a true selectivity (in [0, 1]) together with
// the model's prediction for the same query, for callers that already hold
// that prediction and need not run the model again: the calibration set,
// the drift monitor, and the rolling coverage telemetry are all updated.
// Non-finite predictions or truths (a diverged model, a corrupt oracle) are
// dropped, and counted, rather than poisoning the calibration scores. Safe
// for concurrent use.
func (a *Adaptive) ObservePrediction(pred, trueSel float64) {
	if math.IsNaN(pred) || math.IsInf(pred, 0) || math.IsNaN(trueSel) || math.IsInf(trueSel, 0) {
		if a.droppedTotal != nil {
			a.droppedTotal.Inc()
		}
		return
	}
	var alarmEdge bool
	a.mu.Lock()
	// Score the pre-update interval against the truth first: that is the
	// interval a caller would actually have been served for this query, so
	// its hit/miss is the honest rolling-coverage sample.
	if a.online.Len() > 0 {
		if iv, err := a.online.Interval(pred); err == nil {
			hit := 0.0
			if clip(iv).Contains(trueSel) {
				hit = 1.0
			}
			a.hits.add(hit)
		}
	}
	a.online.Add(pred, trueSel)
	a.mart.Observe(a.score.Of(pred, trueSel))
	if rej := a.mart.Rejects(a.significance); rej && !a.alarmed {
		a.alarmed = true
		alarmEdge = true
	}
	a.publishLocked()
	a.mu.Unlock()
	if a.obsTotal != nil {
		a.obsTotal.Inc()
	}
	if alarmEdge && a.alarmsTotal != nil {
		a.alarmsTotal.Inc()
	}
}

// Drifted reports whether the exchangeability monitor has fired: the score
// stream is no longer consistent with the calibration distribution, so the
// coverage guarantee is suspect and recalibration (or model retraining) is
// warranted. Safe for concurrent use; reads the monitor snapshot without
// locking.
func (a *Adaptive) Drifted() bool { return a.snap.Load().drifted }

// Recalibrate acknowledges a drift alarm: it resets the exchangeability
// monitor and the edge-triggered alarm latch, and — when wl is non-nil —
// replaces the calibration scores with fresh labeled queries (selectivities
// in [0, 1]) scored against the current model. With wl nil only the drift
// monitor resets and the existing calibration scores are kept.
//
// The replacement calibration state is built and validated before any
// monitor state is touched: a workload that yields an empty calibration set
// (all queries dropped as non-finite) returns an error with the alarm,
// martingale, and calibration scores exactly as they were, so a failed
// recalibration can never disarm a live alarm. On success the rolling
// coverage/width telemetry rings reset along with the monitor —
// RollingCoverage reads NaN until post-recalibration traffic refills it —
// so the telemetry never blends pre-drift samples into the recalibrated
// chain's numbers. After a successful Recalibrate the alarm can fire again
// on renewed drift (the alarm counter is edge-triggered per drift episode).
// Safe for concurrent use.
func (a *Adaptive) Recalibrate(wl *workload.Workload) error {
	return a.recalibrate(nil, wl)
}

// RecalibrateModel atomically swaps in a replacement model together with a
// fresh calibration workload scored against it — the commit half of a
// validated recalibration candidate (see internal/recal). Both arguments are
// required: swapping the model while keeping scores calibrated on the old
// one would silently void the coverage guarantee. Validation, failure
// atomicity, and telemetry-ring semantics are exactly those of Recalibrate.
// Safe for concurrent use.
func (a *Adaptive) RecalibrateModel(model Estimator, wl *workload.Workload) error {
	if model == nil {
		return fmt.Errorf("cardpi: RecalibrateModel requires a replacement model")
	}
	if wl == nil {
		return fmt.Errorf("cardpi: model swap requires a replacement calibration workload")
	}
	return a.recalibrate(model, wl)
}

// recalibrate is the shared two-phase implementation: phase 1 builds the
// replacement calibration state against the effective model without mutating
// anything; phase 2 commits model, scores, monitor reset, and telemetry-ring
// reset under one lock acquisition.
func (a *Adaptive) recalibrate(model Estimator, wl *workload.Workload) error {
	var online *conformal.Online
	if wl != nil {
		m := model
		if m == nil {
			m = a.currentModel()
		}
		var err error
		online, err = conformal.NewOnline(a.score, a.alpha, a.window)
		if err != nil {
			return err
		}
		dropped := 0
		for _, lq := range wl.Queries {
			pred := m.EstimateSelectivity(lq.Query)
			if math.IsNaN(pred) || math.IsInf(pred, 0) || math.IsNaN(lq.Sel) || math.IsInf(lq.Sel, 0) {
				dropped++
				continue
			}
			online.Add(pred, lq.Sel)
		}
		if online.Len() == 0 {
			return fmt.Errorf("cardpi: recalibration workload yields an empty calibration set (%d queries, %d dropped)",
				len(wl.Queries), dropped)
		}
	} else if a.CalibrationSize() == 0 {
		return fmt.Errorf("cardpi: recalibration left an empty calibration set")
	}

	a.mu.Lock()
	if model != nil {
		a.model = model
	}
	if online != nil {
		a.online = online
	}
	a.mart.Reset()
	a.alarmed = false
	a.hits = ring{}
	a.widths = ring{}
	a.publishLocked()
	hook := a.onRecal
	a.mu.Unlock()
	if a.recalTotal != nil {
		a.recalTotal.Inc()
	}
	if hook != nil {
		hook()
	}
	return nil
}

// OnRecalibrate registers fn to run after every successful recalibration
// commit (Recalibrate or RecalibrateModel), outside the internal lock and
// strictly after the new calibration state is visible to Interval. The
// serving layer uses it to bump the interval cache's epoch so stale cached
// intervals become unreachable the moment a recalibration lands. Only one
// hook is kept (later registrations replace earlier ones); fn must be safe
// to call from whichever goroutine triggered the recalibration.
func (a *Adaptive) OnRecalibrate(fn func()) {
	a.mu.Lock()
	a.onRecal = fn
	a.mu.Unlock()
}

// DriftStatistic exposes the running maximum of the restarted log
// martingale for dashboards/alerts; compare against log(1/significance).
// Safe for concurrent use; reads the monitor snapshot without locking.
func (a *Adaptive) DriftStatistic() float64 { return a.snap.Load().statistic }

// CalibrationSize returns the number of scores currently calibrating. Safe
// for concurrent use.
func (a *Adaptive) CalibrationSize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.online.Len()
}

// RollingCoverage returns the empirical coverage over the most recent
// observations (up to the telemetry window), or NaN before the first
// Observe. Target is 1−alpha. Safe for concurrent use; reads the monitor
// snapshot without locking.
func (a *Adaptive) RollingCoverage() float64 { return a.snap.Load().coverage }

// CardinalityInterval converts a selectivity interval into cardinality
// units (row counts) for a query whose normalisation constant (table size
// or unfiltered join size) is norm, clipping to [0, norm] as the paper
// does.
func CardinalityInterval(iv Interval, norm int64) Interval {
	n := float64(norm)
	return Interval{Lo: iv.Lo * n, Hi: iv.Hi * n}.Clip(0, n)
}
