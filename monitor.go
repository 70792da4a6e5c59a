package cardpi

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cardpi/internal/conformal"
	"cardpi/internal/obs"
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

// Monitor watches the intervals a caller serves. A power martingale over
// the nonconformity scores of the served point estimates flags workload
// drift before the coverage guarantee silently erodes (the paper's Section
// IV monitor), and two fixed rings hold whether each of the last
// telemetryWindow served intervals covered the truth, and how wide it was.
// The monitor owns no model and no calibration set: the caller scores each
// observation against the interval it actually served. Adaptive keeps one
// over its online split-CP band; `cardpi serve` feeds one every computed
// reply.
//
// All methods are safe for concurrent use. The read side — Drifted,
// RollingCoverage, DriftStatistic — loads an atomically published snapshot
// instead of taking the lock (see monitorSnapshot).
type Monitor struct {
	mu   sync.Mutex
	mart *conformal.PowerMartingale
	// significance is the drift-alarm level (Ville threshold 1/significance).
	significance float64
	// hits holds 0/1 coverage outcomes, widths the served widths.
	hits, widths ring
	alarmed      bool // last drift-alarm state, for edge-triggered counting

	// snap is the read side, republished under mu after every change to
	// the martingale or the coverage ring.
	snap atomic.Pointer[monitorSnapshot]

	observed, alarms, dropped, resets *obs.Counter
	widthHist                         *obs.Histogram
}

// monitorSnapshot is one consistent reading of the monitor. Every update
// builds a fresh one while still holding the lock, after the martingale
// and the coverage ring have changed, and publishes it with one atomic
// store; readers load it without the lock. The store happens under the
// lock, so snapshots are published in the same order as the state changes
// they describe and the latest one always matches the state a locked read
// would see.
type monitorSnapshot struct {
	drifted   bool
	coverage  float64
	statistic float64
}

// NewMonitor builds a monitor whose drift alarm fires at the given
// significance (0 takes the default 0.001) and whose martingale
// tie-breaking is driven by seed. Its cardpi_adaptive_* families are
// registered on reg (recorded but not exported when reg is nil, per
// obs.Registry's nil rule), labeled with model; see OBSERVABILITY.md.
func NewMonitor(model string, significance float64, seed int64, reg *obs.Registry) (*Monitor, error) {
	if significance <= 0 {
		significance = 0.001
	}
	mart, err := conformal.NewPowerMartingale(0.1, seed)
	if err != nil {
		return nil, err
	}
	m := &Monitor{mart: mart, significance: significance}
	m.publishLocked()
	m.registerMetrics(reg, obs.L("model", model))
	return m, nil
}

// registerMetrics publishes the monitor's families on reg. The coverage and
// drift-statistic gauges read the snapshot; the width gauges lock the
// monitor. Either way scrapes are consistent with concurrent traffic.
func (m *Monitor) registerMetrics(reg *obs.Registry, model obs.Label) {
	m.observed = reg.Counter("cardpi_adaptive_observations_total",
		"Nonconformity scores fed to the drift martingale, calibration seeding included.", model)
	m.alarms = reg.Counter("cardpi_adaptive_drift_alarms_total",
		"Drift-alarm activations: transitions of the martingale statistic across the Ville threshold.", model)
	m.dropped = reg.Counter("cardpi_adaptive_dropped_observations_total",
		"Observations dropped because the prediction or truth was NaN/Inf.", model)
	m.resets = reg.Counter("cardpi_adaptive_recalibrations_total",
		"Monitor resets: recalibrations and chain swaps that restart the martingale and empty the rolling windows.", model)
	m.widthHist = reg.Histogram("cardpi_adaptive_interval_width",
		"Widths of served intervals, in normalised selectivity units.",
		obs.WidthBuckets, model)
	reg.GaugeFunc("cardpi_adaptive_coverage",
		"Rolling fraction of the last served intervals that covered the truth (target is 1-alpha).",
		m.RollingCoverage, model)
	reg.GaugeFunc("cardpi_adaptive_width_mean",
		"Rolling mean served interval width in normalised selectivity units.",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return m.widths.mean() }, model)
	reg.GaugeFunc("cardpi_adaptive_width_p99",
		"Rolling p99 served interval width in normalised selectivity units.",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return m.widths.p99() }, model)
	reg.GaugeFunc("cardpi_adaptive_drift_statistic",
		"Running maximum of the restarted log power martingale (drift evidence).",
		m.DriftStatistic, model)
	reg.GaugeFunc("cardpi_adaptive_drift_threshold",
		"Ville rejection threshold log(1/significance); an alarm fires when the drift statistic crosses it.",
		func() float64 { return math.Log(1 / m.significance) }, model)
}

// publishLocked stores a fresh snapshot; the caller holds m.mu (or owns a
// not yet shared Monitor).
func (m *Monitor) publishLocked() {
	m.snap.Store(&monitorSnapshot{
		drifted:   m.mart.Rejects(m.significance),
		coverage:  m.hits.mean(),
		statistic: m.mart.MaxLogValue(),
	})
}

// Observe records one served interval: score is the nonconformity score of
// the served point estimate against the truth (the martingale's input),
// covered whether the interval contained the truth, and width its width in
// normalised selectivity units. An observation whose score is non-finite (a
// diverged model, a corrupt oracle) is dropped whole and counted.
func (m *Monitor) Observe(score float64, covered bool, width float64) {
	if m.record(score, true, covered) {
		m.addWidth(width)
	}
}

// ObserveScore feeds the martingale one score that no served interval goes
// with — a calibration residual seeding the monitor before traffic. The
// coverage and width windows do not move.
func (m *Monitor) ObserveScore(score float64) {
	m.record(score, false, false)
}

// record feeds the martingale and, with sample set, covered into the
// coverage ring, reporting whether the observation was kept.
func (m *Monitor) record(score float64, sample, covered bool) bool {
	if math.IsNaN(score) || math.IsInf(score, 0) {
		m.dropped.Inc()
		return false
	}
	var alarmEdge bool
	m.mu.Lock()
	if sample {
		hit := 0.0
		if covered {
			hit = 1.0
		}
		m.hits.add(hit)
	}
	m.mart.Observe(score)
	if m.mart.Rejects(m.significance) && !m.alarmed {
		m.alarmed = true
		alarmEdge = true
	}
	m.publishLocked()
	m.mu.Unlock()
	m.observed.Inc()
	if alarmEdge {
		m.alarms.Inc()
	}
	return true
}

// addWidth records one served interval width.
func (m *Monitor) addWidth(w float64) {
	m.mu.Lock()
	m.widths.add(w)
	m.mu.Unlock()
	m.widthHist.Observe(w)
}

// Reset acknowledges a drift alarm, or a change of what is served: the
// martingale restarts, the alarm re-arms, and the coverage and width
// windows empty, so RollingCoverage reads NaN until the next served
// observation and never blends samples of an interval no longer served.
func (m *Monitor) Reset() {
	m.mu.Lock()
	m.mart.Reset()
	m.alarmed = false
	m.hits = ring{}
	m.widths = ring{}
	m.publishLocked()
	m.mu.Unlock()
	m.resets.Inc()
}

// Drifted reports whether the exchangeability monitor has fired: the score
// stream is no longer consistent with what came before, so the coverage
// guarantee is suspect and recalibration (or model retraining) is
// warranted.
func (m *Monitor) Drifted() bool { return m.snap.Load().drifted }

// DriftStatistic exposes the running maximum of the restarted log
// martingale for dashboards/alerts; compare against log(1/significance).
func (m *Monitor) DriftStatistic() float64 { return m.snap.Load().statistic }

// RollingCoverage returns the fraction of the most recent served intervals
// (up to the telemetry window) that covered the truth, or NaN while the
// window is empty. Target is 1−alpha.
func (m *Monitor) RollingCoverage() float64 { return m.snap.Load().coverage }

// Observations returns the number of scores the martingale has been fed.
func (m *Monitor) Observations() uint64 { return m.observed.Value() }
