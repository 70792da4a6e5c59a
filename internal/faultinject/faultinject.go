// Package faultinject is a deterministic, seedable fault-injection harness
// for the reliability layer: it wraps any estimator or PI with a fault Plan
// that injects errors, panics, latency, NaN results, or stale-calibration
// bias on a schedule that is a pure function of (seed, call index). The
// chaos test suites use it to prove that the Resilient chain and the serve
// endpoint degrade gracefully instead of dying (see RELIABILITY.md).
//
// Determinism: the fault kind of the i-th wrapped call is KindAt(i), a pure
// hash of the plan seed and i — two runs with the same seed and the same
// call sequence inject the identical fault sequence. Under concurrency the
// call *indices* are assigned by an atomic counter, so the multiset of
// injected faults over N calls is always identical even when the assignment
// of faults to goroutines varies with scheduling.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"cardpi/internal/conformal"
	"cardpi/internal/estimator"
	"cardpi/internal/workload"
)

// ErrInjected is the sentinel error returned by PI-level Error faults.
var ErrInjected = errors.New("faultinject: injected error")

// Kind identifies one fault class a Plan can inject.
type Kind uint8

// The fault classes. None means the call passes through untouched.
const (
	// None passes the call through to the wrapped implementation.
	None Kind = iota
	// Error makes a PI call return ErrInjected (estimators, whose interface
	// has no error return, surface it as a NaN estimate instead).
	Error
	// Panic makes the call panic — exercising recovery layers.
	Panic
	// Latency delays the call by Spec.Delay before delegating; context-aware
	// call sites observe their deadline during the delay.
	Latency
	// NaN makes the call return NaN endpoints (PI) or a NaN estimate.
	NaN
	// Stale models a stale-calibration fault: the delegated result is biased
	// by Spec.Bias, shifting the score distribution so drift monitors fire.
	Stale

	numKinds
)

// String names the fault class for logs and test output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Latency:
		return "latency"
	case NaN:
		return "nan"
	case Stale:
		return "stale"
	default:
		return "unknown"
	}
}

// Spec declares a fault plan: per-call injection probabilities by class
// (summing to at most 1), the latency-fault delay, the stale-fault bias,
// and the call index before which no fault fires.
type Spec struct {
	// Seed drives the deterministic per-index fault draw.
	Seed int64
	// Error, Panic, Latency, NaN, Stale are the per-call injection
	// probabilities of each fault class; their sum must be in [0, 1].
	Error, Panic, Latency, NaN, Stale float64
	// Delay is the latency-fault duration (default 50ms).
	Delay time.Duration
	// Bias is the stale-calibration fault's additive selectivity bias
	// (default 0.25), clamped so results stay in [0, 1].
	Bias float64
	// After suppresses all faults on call indices < After — the clean
	// warm-up phase (calibration, breaker-closing traffic) before the
	// injected regime begins.
	After uint64
}

// Plan is a compiled fault schedule shared by any number of wrappers. All
// methods are safe for concurrent use.
type Plan struct {
	spec     Spec
	cum      [5]float64 // cumulative thresholds: Error, Panic, Latency, NaN, Stale
	calls    atomic.Uint64
	injected [numKinds]atomic.Uint64
}

// New compiles a Spec into a Plan, validating the probabilities.
func New(spec Spec) (*Plan, error) {
	rates := [5]float64{spec.Error, spec.Panic, spec.Latency, spec.NaN, spec.Stale}
	var sum float64
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) {
			return nil, fmt.Errorf("faultinject: negative or NaN rate %v", r)
		}
		sum += r
		rates[i] = sum
	}
	if sum > 1 {
		return nil, fmt.Errorf("faultinject: rates sum to %v > 1", sum)
	}
	if spec.Delay <= 0 {
		spec.Delay = 50 * time.Millisecond
	}
	if spec.Bias == 0 {
		spec.Bias = 0.25
	}
	return &Plan{spec: spec, cum: rates}, nil
}

// MustPlan is New for tests: it panics on an invalid Spec.
func MustPlan(spec Spec) *Plan {
	p, err := New(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// splitmix64 is the SplitMix64 finalizer — a high-quality stateless hash
// used to derive one uniform draw per (seed, index) pair.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// KindAt returns the fault injected on call index i — a pure function of
// (Spec.Seed, i), exposed so tests can assert the schedule independently of
// execution order.
func (p *Plan) KindAt(i uint64) Kind {
	if i < p.spec.After {
		return None
	}
	u := float64(splitmix64(uint64(p.spec.Seed)^(i*0x9E3779B97F4A7C15))>>11) / (1 << 53)
	for k, c := range p.cum {
		if u < c {
			return Kind(k + 1)
		}
	}
	return None
}

// next assigns the caller the next call index and returns (and counts) its
// scheduled fault.
func (p *Plan) next() Kind {
	i := p.calls.Add(1) - 1
	k := p.KindAt(i)
	p.injected[k].Add(1)
	return k
}

// Calls returns the number of wrapped calls the plan has scheduled so far.
func (p *Plan) Calls() uint64 { return p.calls.Load() }

// Injected returns how many calls were assigned the given fault class.
func (p *Plan) Injected(k Kind) uint64 { return p.injected[k].Load() }

// Delay returns the latency-fault duration the plan injects.
func (p *Plan) Delay() time.Duration { return p.spec.Delay }

// sleep waits for the latency-fault delay, returning early with ctx.Err()
// if the context dies first.
func sleep(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PI is the interface the PI-level wrapper decorates; it is structurally
// identical to cardpi.PI (this package stays below the root package in the
// import graph so root tests can use it without a cycle).
type PI interface {
	// Name identifies the wrapped method.
	Name() string
	// Interval returns the query's prediction interval.
	Interval(q workload.Query) (conformal.Interval, error)
}

// FaultyPI decorates a PI with a fault plan. It implements both the plain
// and the context-aware interval surface; latency faults honour the
// context's deadline. Safe for concurrent use whenever the wrapped PI is.
type FaultyPI struct {
	inner PI
	plan  *Plan
}

// WrapPI decorates pi with the plan's fault schedule.
func WrapPI(pi PI, plan *Plan) *FaultyPI { return &FaultyPI{inner: pi, plan: plan} }

// Name implements the PI surface, marking the chain as fault-injected.
func (f *FaultyPI) Name() string { return "faulty/" + f.inner.Name() }

// Interval implements the PI surface without a deadline.
func (f *FaultyPI) Interval(q workload.Query) (conformal.Interval, error) {
	return f.IntervalCtx(context.Background(), q)
}

// IntervalCtx implements the context-aware surface (cardpi.ContextPI):
// injected latency observes ctx, and the wrapped call sees the same ctx.
func (f *FaultyPI) IntervalCtx(ctx context.Context, q workload.Query) (conformal.Interval, error) {
	switch f.plan.next() {
	case Error:
		return conformal.Interval{}, ErrInjected
	case Panic:
		panic("faultinject: injected panic")
	case Latency:
		if err := sleep(ctx, f.plan.spec.Delay); err != nil {
			return conformal.Interval{}, err
		}
	case NaN:
		return conformal.Interval{Lo: math.NaN(), Hi: math.NaN()}, nil
	case Stale:
		iv, err := f.inner.Interval(q)
		if err != nil {
			return iv, err
		}
		return conformal.Interval{Lo: iv.Lo + f.plan.spec.Bias, Hi: iv.Hi + f.plan.spec.Bias}, nil
	}
	if err := ctx.Err(); err != nil {
		return conformal.Interval{}, err
	}
	return f.inner.Interval(q)
}

// FaultyEstimator decorates an estimator with a fault plan. Error faults
// surface as NaN (the Estimator interface has no error return); latency
// faults sleep the full delay (the Estimator interface has no context).
// Safe for concurrent use whenever the wrapped estimator is.
type FaultyEstimator struct {
	inner estimator.Estimator
	plan  *Plan
}

// WrapEstimator decorates m with the plan's fault schedule.
func WrapEstimator(m estimator.Estimator, plan *Plan) *FaultyEstimator {
	return &FaultyEstimator{inner: m, plan: plan}
}

// Name implements estimator.Estimator, marking the model as fault-injected.
func (f *FaultyEstimator) Name() string { return "faulty/" + f.inner.Name() }

// EstimateSelectivity implements estimator.Estimator, applying the
// scheduled fault around the wrapped estimate.
func (f *FaultyEstimator) EstimateSelectivity(q workload.Query) float64 {
	switch f.plan.next() {
	case Error, NaN:
		return math.NaN()
	case Panic:
		panic("faultinject: injected panic")
	case Latency:
		time.Sleep(f.plan.spec.Delay)
	case Stale:
		return estimator.Clamp01(f.inner.EstimateSelectivity(q) + f.plan.spec.Bias)
	}
	return f.inner.EstimateSelectivity(q)
}
