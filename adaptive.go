package cardpi

import (
	"fmt"
	"math"
	"sync"

	"cardpi/internal/conformal"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// Adaptive is a production-oriented wrapper combining three mechanisms the
// paper discusses (Section IV): online calibration (every executed query's
// true selectivity is fed back, tightening intervals as the calibration set
// tracks the live workload), optional sliding-window calibration, and
// martingale-based exchangeability monitoring (a Monitor) that flags
// workload drift before the coverage guarantee silently erodes.
//
// All inputs and outputs are in normalised selectivity units ([0, 1]); use
// CardinalityInterval to convert an interval to row counts. Unlike the
// static wrappers, Adaptive is mutable — it guards its calibration set with
// a mutex, so Interval, Observe, and every accessor are safe for concurrent
// use from multiple goroutines. The monitor's read side — Drifted,
// RollingCoverage, DriftStatistic — reads the Monitor's atomically
// published snapshot instead of taking the mutex.
type Adaptive struct {
	model Estimator
	score conformal.Score
	// alpha and window are kept for Recalibrate, which rebuilds the online
	// calibration state with the original configuration.
	alpha  float64
	window int

	// mu guards online; Observe and Recalibrate hold it across their
	// monitor update, so the monitor sees commits in calibration order.
	mu     sync.Mutex
	online *conformal.Online
	mon    *Monitor
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
	// Metrics receives the adaptive telemetry — cardpi_adaptive_* gauges,
	// counters, and the interval-width histogram — labeled with this
	// wrapper's model name; nil records it without exporting
	// (obs.Registry's nil rule). See OBSERVABILITY.md for the series list.
	Metrics *obs.Registry
}

// NewAdaptive builds an adaptive PI around a model, seeded with an initial
// calibration workload. The drift and coverage telemetry is live from the
// first Observe (including the seeding pass over the initial workload).
func NewAdaptive(model Estimator, initial *workload.Workload, score conformal.Score, cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("cardpi: alpha must be in (0,1), got %v", cfg.Alpha)
	}
	online, err := conformal.NewOnline(score, cfg.Alpha, cfg.Window)
	if err != nil {
		return nil, err
	}
	mon, err := NewMonitor(model.Name(), cfg.Significance, cfg.Seed, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	a := &Adaptive{
		model: model, score: score, alpha: cfg.Alpha, window: cfg.Window,
		online: online, mon: mon,
	}
	cfg.Metrics.GaugeFunc("cardpi_adaptive_calibration_size",
		"Scores currently in the online calibration set.",
		func() float64 { return float64(a.CalibrationSize()) }, obs.L("model", model.Name()))
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

// Name implements PI.
func (a *Adaptive) Name() string { return "adaptive/" + a.model.Name() }

// Interval implements PI against the current calibration state: a
// selectivity interval in [0, 1]. Safe for concurrent use; the produced
// width feeds the monitor's rolling width telemetry. Recording adds zero
// heap allocations per call.
func (a *Adaptive) Interval(q workload.Query) (Interval, error) {
	pred := a.model.EstimateSelectivity(q)
	a.mu.Lock()
	iv, err := a.online.Interval(pred)
	a.mu.Unlock()
	if err != nil {
		return Interval{}, err
	}
	iv = clip(iv)
	a.mon.addWidth(iv.Hi - iv.Lo)
	return iv, nil
}

// Observe feeds back a query's true selectivity (in [0, 1]) after
// execution, scoring the model's estimate for q: the calibration set, the
// drift monitor, and the rolling coverage telemetry are all updated.
// Non-finite predictions or truths (a diverged model, a corrupt oracle) are
// dropped, and counted, rather than poisoning the calibration scores. Safe
// for concurrent use.
func (a *Adaptive) Observe(q workload.Query, trueSel float64) {
	pred := a.model.EstimateSelectivity(q)
	if math.IsNaN(pred) || math.IsInf(pred, 0) || math.IsNaN(trueSel) || math.IsInf(trueSel, 0) {
		a.mon.dropped.Inc()
		return
	}
	score := a.score.Of(pred, trueSel)
	a.mu.Lock()
	defer a.mu.Unlock()
	// Score the pre-update interval against the truth first: that is the
	// interval a caller would actually have been served for this query, so
	// its hit/miss is the honest rolling-coverage sample.
	sample, covered := false, false
	if a.online.Len() > 0 {
		if iv, err := a.online.Interval(pred); err == nil {
			sample, covered = true, clip(iv).Contains(trueSel)
		}
	}
	a.mon.record(score, sample, covered)
	a.online.Add(pred, trueSel)
}

// Drifted reports whether the exchangeability monitor has fired: the score
// stream is no longer consistent with the calibration distribution, so the
// coverage guarantee is suspect and recalibration (or model retraining) is
// warranted. Safe for concurrent use; reads the monitor snapshot without
// locking.
func (a *Adaptive) Drifted() bool { return a.mon.Drifted() }

// Recalibrate acknowledges a drift alarm: it resets the exchangeability
// monitor and the edge-triggered alarm latch, and — when wl is non-nil —
// replaces the calibration scores with fresh labeled queries (selectivities
// in [0, 1]) scored against the model. With wl nil only the drift monitor
// resets and the existing calibration scores are kept.
//
// The replacement calibration state is built and validated before any
// monitor state is touched: a workload that yields an empty calibration set
// (all queries dropped as non-finite) returns an error with the alarm,
// martingale, and calibration scores exactly as they were, so a failed
// recalibration can never disarm a live alarm. On success the rolling
// coverage/width telemetry rings reset along with the monitor —
// RollingCoverage reads NaN until post-recalibration traffic refills it —
// so the telemetry never blends pre-drift samples into the recalibrated
// numbers. After a successful Recalibrate the alarm can fire again on
// renewed drift (the alarm counter is edge-triggered per drift episode).
// Safe for concurrent use.
func (a *Adaptive) Recalibrate(wl *workload.Workload) error {
	var online *conformal.Online
	if wl != nil {
		var err error
		online, err = conformal.NewOnline(a.score, a.alpha, a.window)
		if err != nil {
			return err
		}
		dropped := 0
		for _, lq := range wl.Queries {
			pred := a.model.EstimateSelectivity(lq.Query)
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
	defer a.mu.Unlock()
	if online != nil {
		a.online = online
	}
	a.mon.Reset()
	return nil
}

// DriftStatistic exposes the running maximum of the restarted log
// martingale for dashboards/alerts; compare against log(1/significance).
// Safe for concurrent use; reads the monitor snapshot without locking.
func (a *Adaptive) DriftStatistic() float64 { return a.mon.DriftStatistic() }

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
func (a *Adaptive) RollingCoverage() float64 { return a.mon.RollingCoverage() }

// CardinalityInterval converts a selectivity interval into cardinality
// units (row counts) for a query whose normalisation constant (table size
// or unfiltered join size) is norm, clipping to [0, norm] as the paper
// does.
func CardinalityInterval(iv Interval, norm int64) Interval {
	n := float64(norm)
	return Interval{Lo: iv.Lo * n, Hi: iv.Hi * n}.Clip(0, n)
}
