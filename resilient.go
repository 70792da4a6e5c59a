package cardpi

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// BreakerState is one of the three circuit-breaker states guarding the
// primary stage of a Resilient chain. The zero value is BreakerClosed.
type BreakerState int32

// The circuit-breaker state machine: Closed (healthy, all traffic reaches
// the primary) → Open after FailureThreshold consecutive failures (the
// primary is skipped entirely) → HalfOpen once OpenFor has elapsed (up to
// HalfOpenProbes trial requests reach the primary) → Closed on a successful
// probe, or back to Open on a failed one. See RELIABILITY.md for the full
// transition diagram.
const (
	// BreakerClosed is the healthy state: every request reaches the primary.
	BreakerClosed BreakerState = iota
	// BreakerOpen is the tripped state: the primary is skipped and requests
	// go straight to the fallback chain until OpenFor elapses.
	BreakerOpen
	// BreakerHalfOpen is the probing state: a bounded number of trial
	// requests reach the primary to test whether it has recovered.
	BreakerHalfOpen
)

// String renders the state for logs and metrics documentation.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is the mutex-guarded circuit-breaker state machine. All methods
// are safe for concurrent use and allocation-free.
type breaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive primary failures while closed
	probes    int // in-flight trial requests while half-open
	openedAt  time.Time
	threshold int
	openFor   time.Duration
	maxProbes int
	now       func() time.Time

	toOpen, toHalfOpen, toClosed *obs.Counter
}

// allow reports whether the primary stage may be attempted, performing the
// open → half-open transition when the cool-down has elapsed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.openFor {
			return false
		}
		b.state = BreakerHalfOpen
		b.probes = 0
		b.toHalfOpen.Inc()
		fallthrough
	default: // BreakerHalfOpen
		if b.probes < b.maxProbes {
			b.probes++
			return true
		}
		return false
	}
}

// onSuccess records a successful primary attempt: it resets the consecutive
// failure count and closes the breaker after a successful half-open probe.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.probes = 0
		b.toClosed.Inc()
	}
}

// onFailure records a failed primary attempt (error, panic, non-finite
// result, or deadline expiry during the attempt) and trips the breaker when
// the consecutive-failure threshold is reached or a half-open probe fails.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.toOpen.Inc()
		}
	case BreakerHalfOpen:
		b.probes = 0
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.toOpen.Inc()
	}
}

// current returns the state for the gauge and accessors.
func (b *breaker) current() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// ResilientConfig configures NewResilient. The zero value is usable: no
// fallbacks (the chain is primary → fail-safe), a 5-failure threshold, a 5 s
// open period, one half-open probe, and metrics recorded but not exported.
type ResilientConfig struct {
	// Fallbacks is the ordered fallback chain consulted after the primary
	// fails or the breaker is open — typically a conservative traditional
	// estimator (histogram or sampling) wrapped at a stricter alpha. The
	// implicit final stage is the fail-safe full-domain interval [0, 1],
	// which never fails.
	Fallbacks []PI
	// FailureThreshold is the number of consecutive primary failures that
	// trips the breaker open (default 5).
	FailureThreshold int
	// OpenFor is how long the breaker stays open before admitting half-open
	// probes (default 5s).
	OpenFor time.Duration
	// HalfOpenProbes is the number of concurrent trial requests admitted to
	// the primary while half-open (default 1).
	HalfOpenProbes int
	// Metrics receives the cardpi_resilient_* families, labeled with the
	// chain's name; nil records them without exporting (obs.Registry's nil
	// rule).
	Metrics *obs.Registry
	// Clock overrides the breaker's time source for deterministic tests
	// (default time.Now).
	Clock func() time.Time
}

// Resilient is a fault-tolerant PI decorator: it guarantees that every call
// returns a finite, ordered interval inside the selectivity domain [0, 1]
// and a nil error, no matter how the wrapped stages misbehave. Four
// mechanisms compose:
//
//   - panic recovery around every stage (a panicking model becomes a stage
//     failure, not a crashed request);
//   - NaN/±Inf sanitization — a stage returning a non-finite endpoint is
//     treated as failed, and every served interval is normalised by Clip;
//   - an ordered fallback chain (primary → Fallbacks... → the fail-safe
//     full-domain interval [0, 1], which always covers);
//   - a circuit breaker on the primary stage keyed on consecutive
//     errors/timeouts, so a persistently failing model is skipped instead
//     of paying its latency on every request.
//
// Deadlines: IntervalCtx checks the context between stages and forwards it
// to context-aware stages; once the deadline passes, remaining model stages
// are skipped and the fail-safe interval is returned immediately. Intervals
// are in normalised selectivity units. Safe for concurrent use whenever the
// wrapped stages are; the fault-free fast path adds zero heap allocations
// per call (see TestResilientFastPathAllocs).
type Resilient struct {
	stages []PI // stages[0] is the primary
	br     *breaker

	calls     *obs.Counter
	servedFS  *obs.Counter
	skipped   *obs.Counter
	panics    *obs.Counter
	sanitized *obs.Counter
	served    []*obs.Counter // per stage
	failed    []*obs.Counter // per stage
}

// NewResilient wraps primary with the reliability layer. The primary plus
// cfg.Fallbacks form the ordered stage chain; the fail-safe [0, 1] interval
// is always appended implicitly and cannot fail.
func NewResilient(primary PI, cfg ResilientConfig) (*Resilient, error) {
	if primary == nil {
		return nil, fmt.Errorf("cardpi: resilient wrapper needs a primary PI")
	}
	for i, fb := range cfg.Fallbacks {
		if fb == nil {
			return nil, fmt.Errorf("cardpi: fallback stage %d is nil", i+1)
		}
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 5 * time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	reg := cfg.Metrics
	stages := append([]PI{primary}, cfg.Fallbacks...)
	name := "resilient/" + primary.Name()
	pi := obs.L("pi", name)
	r := &Resilient{
		stages: stages,
		calls: reg.Counter("cardpi_resilient_calls_total",
			"Interval calls entering the resilient chain.", pi),
		servedFS: reg.Counter("cardpi_resilient_served_total",
			"Requests answered per stage; the failsafe stage is the full-domain interval.",
			pi, obs.L("stage", "failsafe")),
		skipped: reg.Counter("cardpi_resilient_breaker_skips_total",
			"Requests that bypassed the primary because the breaker was open.", pi),
		panics: reg.Counter("cardpi_resilient_recovered_panics_total",
			"Panics recovered from chain stages and converted into stage failures.", pi),
		sanitized: reg.Counter("cardpi_resilient_sanitized_total",
			"Stage results with NaN/Inf or inverted endpoints that required sanitization.", pi),
	}
	r.br = &breaker{
		threshold: cfg.FailureThreshold,
		openFor:   cfg.OpenFor,
		maxProbes: cfg.HalfOpenProbes,
		now:       cfg.Clock,
		toOpen: reg.Counter("cardpi_resilient_breaker_transitions_total",
			"Breaker state transitions, by target state.", pi, obs.L("to", "open")),
		toHalfOpen: reg.Counter("cardpi_resilient_breaker_transitions_total",
			"Breaker state transitions, by target state.", pi, obs.L("to", "half_open")),
		toClosed: reg.Counter("cardpi_resilient_breaker_transitions_total",
			"Breaker state transitions, by target state.", pi, obs.L("to", "closed")),
	}
	reg.GaugeFunc("cardpi_resilient_breaker_state",
		"Current breaker state: 0 closed, 1 open, 2 half-open.",
		func() float64 { return float64(r.br.current()) }, pi)
	for i := range stages {
		stage := obs.L("stage", strconv.Itoa(i))
		r.served = append(r.served, reg.Counter("cardpi_resilient_served_total",
			"Requests answered per stage; the failsafe stage is the full-domain interval.", pi, stage))
		r.failed = append(r.failed, reg.Counter("cardpi_resilient_stage_failures_total",
			"Stage attempts that failed (error, panic, timeout, or non-finite interval).", pi, stage))
	}
	return r, nil
}

// Name implements PI; the chain reports as "resilient/<primary name>".
func (r *Resilient) Name() string { return "resilient/" + r.stages[0].Name() }

// BreakerState returns the current circuit-breaker state. Safe for
// concurrent use.
func (r *Resilient) BreakerState() BreakerState { return r.br.current() }

// Interval implements PI: IntervalCtx without a deadline. The returned
// interval is always finite, ordered, and inside [0, 1]; the error is
// always nil (failures degrade through the fallback chain instead).
func (r *Resilient) Interval(q workload.Query) (Interval, error) {
	iv, _ := r.IntervalDepthCtx(context.Background(), q)
	return iv, nil
}

// IntervalCtx implements ContextPI. Unlike ordinary ContextPIs it never
// returns an error — a dead context short-circuits to the fail-safe
// full-domain interval so the caller still gets a valid (if trivial)
// answer. Units are normalised selectivity.
func (r *Resilient) IntervalCtx(ctx context.Context, q workload.Query) (Interval, error) {
	iv, _ := r.IntervalDepthCtx(ctx, q)
	return iv, nil
}

// IntervalDepthCtx answers the query and reports which stage served it:
// depth 0 is the primary, 1..len(Fallbacks) the fallback stages, and
// FailsafeDepth(r) (== 1+len(Fallbacks)) the fail-safe full-domain interval.
// The interval is always finite, ordered, and inside [0, 1]. Safe for
// concurrent use; the fault-free fast path adds zero heap allocations.
func (r *Resilient) IntervalDepthCtx(ctx context.Context, q workload.Query) (Interval, int) {
	r.calls.Inc()
	for i, st := range r.stages {
		if ctx.Err() != nil {
			break // deadline gone: no time for more model stages
		}
		if i == 0 && !r.br.allow() {
			r.skipped.Inc()
			continue
		}
		iv, err := r.tryStage(ctx, st, q)
		ok := err == nil && finiteInterval(iv)
		if err == nil && !ok {
			r.sanitized.Inc() // non-finite endpoints: demote to stage failure
		}
		if i == 0 {
			if ok {
				r.br.onSuccess()
			} else {
				r.br.onFailure()
			}
		}
		if ok {
			if iv.Lo > iv.Hi {
				r.sanitized.Inc() // inverted finite bounds: Clip normalises
			}
			r.served[i].Inc()
			return clip(iv), i
		}
		r.failed[i].Inc()
	}
	r.servedFS.Inc()
	return Interval{Lo: 0, Hi: 1}, len(r.stages)
}

// FailsafeDepth returns the depth IntervalDepthCtx reports when the
// fail-safe full-domain interval answered (one past the last fallback).
func (r *Resilient) FailsafeDepth() int { return len(r.stages) }

// IntervalBatch implements BatchPI with the chain's guarantees intact:
// every returned interval is finite, ordered, and inside [0, 1], and the
// error is always nil — per-query failures degrade through the fallback
// chain exactly as in the sequential path.
func (r *Resilient) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	ivs, _ := r.IntervalBatchDepthCtx(context.Background(), qs)
	return ivs, nil
}

// IntervalBatchDepthCtx answers the whole batch and reports which stage
// served each query: IntervalBatchEstCtx without the point estimates.
func (r *Resilient) IntervalBatchDepthCtx(ctx context.Context, qs []workload.Query) ([]Interval, []int) {
	ivs, depth, _ := r.IntervalBatchEstCtx(ctx, qs)
	return ivs, depth
}

// EstimateModel returns the model whose point estimates IntervalBatchEstCtx
// reports, or nil when the primary stage reports none (its batch kernel
// does not evaluate one point-estimate model per row, as with CQR and the
// jackknife family, or it is not one of this package's wrappers).
func (r *Resilient) EstimateModel() Estimator { return estimateModelOf(r.stages[0]) }

// IntervalBatchEstCtx answers the whole batch, reports which stage served
// each query (same depth convention as IntervalDepthCtx), and returns the
// primary stage's point estimates. Each stage sees one batched call
// covering the queries every earlier stage failed to serve; a query whose
// row comes back non-finite falls through to the next stage individually,
// so one diverged row does not drag its batch-mates down the chain. The
// breaker records one event per batch primary attempt — success only when
// the call returned no error and every row was finite — so a poisoned batch
// trips it at the same rate as a poisoned single query. The context is
// forwarded to every stage's batch call (intervalBatchEstCtx) and checked
// between stages: once it is done, remaining queries go straight to the
// fail-safe full-domain interval.
//
// est is non-nil only when the primary ran, returned a full batch without
// error, and reports estimates (EstimateModel() != nil); then est[i] is
// EstimateModel().EstimateSelectivity(qs[i]) bit for bit, computed by the
// same pass that produced the interval. It is meaningful only for rows
// served at depth 0.
func (r *Resilient) IntervalBatchEstCtx(ctx context.Context, qs []workload.Query) (out []Interval, depth []int, est []float64) {
	n := len(qs)
	r.calls.Add(uint64(n))
	out = make([]Interval, n)
	depth = make([]int, n)
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var sub []workload.Query
	for si, st := range r.stages {
		if len(remaining) == 0 {
			break
		}
		if ctx.Err() != nil {
			break // deadline gone: no time for more model stages
		}
		if si == 0 && !r.br.allow() {
			r.skipped.Add(uint64(len(remaining)))
			continue
		}
		// The first attempted stage usually still owns the whole batch and
		// can take qs directly; later stages gather their leftovers.
		batch := qs
		if len(remaining) != n {
			sub = sub[:0]
			for _, i := range remaining {
				sub = append(sub, qs[i])
			}
			batch = sub
		}
		ivs, ests, err := r.tryStageBatch(ctx, st, batch)
		allOK := err == nil && len(ivs) == len(batch)
		if allOK {
			for _, iv := range ivs {
				if !finiteInterval(iv) {
					allOK = false
					break
				}
			}
		}
		if si == 0 {
			if allOK {
				r.br.onSuccess()
			} else {
				r.br.onFailure()
			}
		}
		if err != nil || len(ivs) != len(batch) {
			r.failed[si].Add(uint64(len(remaining)))
			continue
		}
		if si == 0 && len(ests) == n {
			est = ests
		}
		nr := 0
		for j, i := range remaining {
			iv := ivs[j]
			if !finiteInterval(iv) {
				r.sanitized.Inc() // non-finite endpoints: demote to stage failure
				r.failed[si].Inc()
				remaining[nr] = i
				nr++
				continue
			}
			if iv.Lo > iv.Hi {
				r.sanitized.Inc() // inverted finite bounds: Clip normalises
			}
			r.served[si].Inc()
			out[i] = clip(iv)
			depth[i] = si
		}
		remaining = remaining[:nr]
	}
	for _, i := range remaining {
		out[i] = Interval{Lo: 0, Hi: 1}
		depth[i] = len(r.stages)
		r.servedFS.Inc()
	}
	return out, depth, est
}

// tryStageBatch runs one stage's whole-batch attempt under the request
// context and panic recovery, mirroring tryStage, and passes on the stage's
// point estimates when it reports them. Panics on the worker pool's
// goroutines are re-raised here by internal/par, so they are recovered too.
func (r *Resilient) tryStageBatch(ctx context.Context, pi PI, qs []workload.Query) (ivs []Interval, ests []float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.panics.Inc()
			err = fmt.Errorf("cardpi: recovered panic in %s: %v", pi.Name(), p)
		}
	}()
	return intervalBatchEstCtx(ctx, pi, qs)
}

// tryStage runs one stage under panic recovery: a panicking stage becomes a
// stage failure instead of unwinding into the caller.
func (r *Resilient) tryStage(ctx context.Context, pi PI, q workload.Query) (iv Interval, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.panics.Inc()
			err = fmt.Errorf("cardpi: recovered panic in %s: %v", pi.Name(), p)
		}
	}()
	return IntervalCtx(ctx, pi, q)
}

// finiteInterval reports whether both endpoints are finite (not NaN, not
// ±Inf). Inverted-but-finite bounds are acceptable here — Clip normalises
// them — but non-finite endpoints mean the stage's model diverged and its
// answer carries no information.
func finiteInterval(iv Interval) bool {
	return !math.IsNaN(iv.Lo) && !math.IsInf(iv.Lo, 0) &&
		!math.IsNaN(iv.Hi) && !math.IsInf(iv.Hi, 0)
}
