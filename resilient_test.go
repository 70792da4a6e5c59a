package cardpi

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"cardpi/internal/conformal"
	"cardpi/internal/faultinject"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// scriptedPI fails (or panics, or emits a fixed interval) on demand — the
// controllable primary for breaker and sanitization tests.
type scriptedPI struct {
	iv    Interval
	fail  bool
	panic bool
}

func (s *scriptedPI) Name() string { return "scripted/unit" }
func (s *scriptedPI) Interval(workload.Query) (Interval, error) {
	if s.panic {
		panic("scripted panic")
	}
	if s.fail {
		return Interval{}, errors.New("scripted failure")
	}
	return s.iv, nil
}

func mustResilient(t *testing.T, primary PI, cfg ResilientConfig) *Resilient {
	t.Helper()
	r, err := NewResilient(primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestResilientHealthyPassthrough(t *testing.T) {
	want := Interval{Lo: 0.2, Hi: 0.4}
	r := mustResilient(t, &scriptedPI{iv: want}, ResilientConfig{})
	if r.Name() != "resilient/scripted/unit" {
		t.Fatalf("name = %q", r.Name())
	}
	iv, depth := r.IntervalDepthCtx(context.Background(), workload.Query{})
	if iv != want || depth != 0 {
		t.Fatalf("iv = %+v depth = %d, want primary passthrough", iv, depth)
	}
	if _, err := r.Interval(workload.Query{}); err != nil {
		t.Fatalf("Interval err = %v", err)
	}
}

func TestResilientFallbackOnErrorPanicAndNaN(t *testing.T) {
	fb := &scriptedPI{iv: Interval{Lo: 0.1, Hi: 0.6}}
	for _, tc := range []struct {
		name    string
		primary *scriptedPI
	}{
		{"error", &scriptedPI{fail: true}},
		{"panic", &scriptedPI{panic: true}},
		{"nan", &scriptedPI{iv: Interval{Lo: math.NaN(), Hi: math.NaN()}}},
		{"inf", &scriptedPI{iv: Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			r := mustResilient(t, tc.primary, ResilientConfig{Fallbacks: []PI{fb}, Metrics: reg})
			iv, depth := r.IntervalDepthCtx(context.Background(), workload.Query{})
			if depth != 1 || iv != fb.iv {
				t.Fatalf("iv = %+v depth = %d, want fallback answer", iv, depth)
			}
		})
	}
}

func TestResilientFailsafeWhenEverythingFails(t *testing.T) {
	r := mustResilient(t, &scriptedPI{fail: true},
		ResilientConfig{Fallbacks: []PI{&scriptedPI{panic: true}}})
	iv, depth := r.IntervalDepthCtx(context.Background(), workload.Query{})
	if depth != r.FailsafeDepth() {
		t.Fatalf("depth = %d, want failsafe %d", depth, r.FailsafeDepth())
	}
	if iv != (Interval{Lo: 0, Hi: 1}) {
		t.Fatalf("failsafe interval = %+v, want [0, 1]", iv)
	}
}

func TestResilientNormalizesInvertedBounds(t *testing.T) {
	r := mustResilient(t, &scriptedPI{iv: Interval{Lo: 0.8, Hi: 0.2}}, ResilientConfig{})
	iv, depth := r.IntervalDepthCtx(context.Background(), workload.Query{})
	if depth != 0 || iv.Lo != 0.2 || iv.Hi != 0.8 {
		t.Fatalf("iv = %+v depth = %d, want swapped primary bounds", iv, depth)
	}
}

func TestResilientDeadlineShortCircuitsToFailsafe(t *testing.T) {
	primary := &scriptedPI{iv: Interval{Lo: 0.2, Hi: 0.4}}
	r := mustResilient(t, primary, ResilientConfig{Fallbacks: []PI{&scriptedPI{iv: Interval{Lo: 0, Hi: 0.5}}}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iv, depth := r.IntervalDepthCtx(ctx, workload.Query{})
	if depth != r.FailsafeDepth() || iv != (Interval{Lo: 0, Hi: 1}) {
		t.Fatalf("iv = %+v depth = %d, want immediate failsafe on dead context", iv, depth)
	}
	if r.BreakerState() != BreakerClosed {
		t.Fatal("a dead context before any attempt must not count against the breaker")
	}
	if iv, err := r.IntervalCtx(ctx, workload.Query{}); err != nil || iv != (Interval{Lo: 0, Hi: 1}) {
		t.Fatalf("IntervalCtx on dead context = %+v, %v; want failsafe, nil", iv, err)
	}
}

func TestResilientBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	primary := &scriptedPI{iv: Interval{Lo: 0.3, Hi: 0.5}, fail: true}
	fb := &scriptedPI{iv: Interval{Lo: 0.1, Hi: 0.7}}
	reg := obs.NewRegistry()
	r := mustResilient(t, primary, ResilientConfig{
		Fallbacks:        []PI{fb},
		FailureThreshold: 3,
		OpenFor:          10 * time.Second,
		Metrics:          reg,
		Clock:            clock,
	})
	q := workload.Query{}

	// Three consecutive failures trip the breaker open.
	for i := 0; i < 3; i++ {
		if r.BreakerState() != BreakerClosed {
			t.Fatalf("breaker opened after only %d failures", i)
		}
		if _, depth := r.IntervalDepthCtx(context.Background(), q); depth != 1 {
			t.Fatalf("failing primary should fall back, got depth %d", depth)
		}
	}
	if r.BreakerState() != BreakerOpen {
		t.Fatalf("state = %v after threshold failures, want open", r.BreakerState())
	}

	// While open, the primary is skipped entirely (it would succeed now).
	primary.fail = false
	calls := reg.Counter("cardpi_resilient_breaker_skips_total", "", obs.L("pi", r.Name()))
	before := calls.Value()
	if _, depth := r.IntervalDepthCtx(context.Background(), q); depth != 1 {
		t.Fatalf("open breaker should serve from fallback, got depth %d", depth)
	}
	if calls.Value() != before+1 {
		t.Fatal("open breaker did not record a skip")
	}

	// After the cool-down, a half-open probe reaches the (now healthy)
	// primary and closes the breaker.
	now = now.Add(11 * time.Second)
	if _, depth := r.IntervalDepthCtx(context.Background(), q); depth != 0 {
		t.Fatalf("half-open probe should reach the primary, got depth %d", depth)
	}
	if r.BreakerState() != BreakerClosed {
		t.Fatalf("state = %v after successful probe, want closed", r.BreakerState())
	}

	// A failing half-open probe re-opens instead.
	primary.fail = true
	for i := 0; i < 3; i++ {
		r.IntervalDepthCtx(context.Background(), q)
	}
	if r.BreakerState() != BreakerOpen {
		t.Fatal("breaker did not re-open")
	}
	now = now.Add(11 * time.Second)
	if _, depth := r.IntervalDepthCtx(context.Background(), q); depth != 1 {
		t.Fatalf("failed probe should still be served by fallback, got depth %d", depth)
	}
	if r.BreakerState() != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open again", r.BreakerState())
	}
}

// TestResilientChaosGracefulDegradation is the acceptance chaos test: with a
// deterministic 20% mixed fault plan (error/panic/latency/NaN) injected into
// the primary PI, the resilient chain answers every query with a finite,
// ordered, in-domain interval, never returns an error, and keeps empirical
// coverage at or above the 1−α target (the fallback is calibrated
// conservatively and the fail-safe interval always covers).
func TestResilientChaosGracefulDegradation(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	base, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.MustPlan(faultinject.Spec{
		Seed: 11, Error: 0.05, Panic: 0.05, Latency: 0.05, NaN: 0.05,
		Delay: time.Microsecond,
	})
	fallback, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := mustResilient(t, faultinject.WrapPI(base, plan), ResilientConfig{
		Fallbacks:        []PI{fallback},
		FailureThreshold: 1 << 30, // keep the primary in rotation: every fault class must flow
		Metrics:          reg,
	})

	baselineCovered := 0
	for _, lq := range test.Queries {
		iv, err := base.Interval(lq.Query)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(lq.Sel) {
			baselineCovered++
		}
	}

	covered, total := 0, 0
	for _, lq := range test.Queries {
		iv, err := r.Interval(lq.Query)
		if err != nil {
			t.Fatalf("resilient chain returned an error: %v", err)
		}
		if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
			t.Fatalf("non-finite interval %+v escaped the chain", iv)
		}
		if iv.Lo > iv.Hi || iv.Lo < 0 || iv.Hi > 1 {
			t.Fatalf("interval %+v not ordered/in-domain", iv)
		}
		if iv.Contains(lq.Sel) {
			covered++
		}
		total++
	}
	if total != len(test.Queries) {
		t.Fatalf("answered %d of %d queries", total, len(test.Queries))
	}
	// Faults must not cost coverage: every degraded stage (tighter-alpha
	// fallback, full-domain fail-safe) is at least as conservative as the
	// primary, so chain coverage under faults stays at or above the
	// fault-free baseline of the primary alone.
	baseline := float64(baselineCovered) / float64(total)
	if cov := float64(covered) / float64(total); cov < baseline {
		t.Fatalf("coverage %.3f under faults fell below fault-free baseline %.3f", cov, baseline)
	}
	// The plan really exercised every fault class, and recovery saw them.
	for _, k := range []faultinject.Kind{faultinject.Error, faultinject.Panic, faultinject.Latency, faultinject.NaN} {
		if plan.Injected(k) == 0 {
			t.Fatalf("fault plan never injected %v over %d calls", k, plan.Calls())
		}
	}
	name := obs.L("pi", r.Name())
	if got := reg.Counter("cardpi_resilient_recovered_panics_total", "", name).Value(); got != plan.Injected(faultinject.Panic) {
		t.Fatalf("recovered %d panics, plan injected %d", got, plan.Injected(faultinject.Panic))
	}
	served := reg.Counter("cardpi_resilient_served_total", "", name, obs.L("stage", "1")).Value()
	if served == 0 {
		t.Fatal("fallback stage never served despite injected faults")
	}
	if got := reg.Counter("cardpi_resilient_sanitized_total", "", name).Value(); got < plan.Injected(faultinject.NaN) {
		t.Fatalf("sanitized %d results, want at least the %d NaN faults", got, plan.Injected(faultinject.NaN))
	}
}

// TestResilientChaosUnderDeadline drives latency faults longer than the
// request deadline: the chain must still answer (fail-safe) without errors.
func TestResilientChaosUnderDeadline(t *testing.T) {
	plan := faultinject.MustPlan(faultinject.Spec{Seed: 3, Latency: 1, Delay: time.Minute})
	faulty := faultinject.WrapPI(&scriptedPI{iv: Interval{Lo: 0.2, Hi: 0.3}}, plan)
	r := mustResilient(t, faulty, ResilientConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	iv, err := r.IntervalCtx(ctx, workload.Query{})
	if err != nil || iv != (Interval{Lo: 0, Hi: 1}) {
		t.Fatalf("iv = %+v err = %v, want failsafe and nil error", iv, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: call took %s", elapsed)
	}
}

// TestResilientFastPathAllocs is the acceptance allocation guard: on the
// fault-free fast path the wrapper must add zero heap allocations per
// Interval call over the wrapped PI's own cost.
func TestResilientFastPathAllocs(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	base, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustResilient(t, base, ResilientConfig{Fallbacks: []PI{base}})
	q := test.Queries[0].Query
	bare := testing.AllocsPerRun(200, func() {
		if _, err := base.Interval(q); err != nil {
			t.Fatal(err)
		}
	})
	wrapped := testing.AllocsPerRun(200, func() {
		if _, err := r.Interval(q); err != nil {
			t.Fatal(err)
		}
	})
	if wrapped > bare {
		t.Fatalf("resilient fast path allocates: %.1f allocs/op vs %.1f bare", wrapped, bare)
	}
}

// TestResilientIntervalBatchDeadline: a batch stage sees the request
// deadline. A primary whose every call sleeps a minute must give way to the
// fail-safe for all rows soon after a 20 ms deadline, through the
// Instrument decorator and the per-row fan-out of a non-batch stage.
func TestResilientIntervalBatchDeadline(t *testing.T) {
	plan := faultinject.MustPlan(faultinject.Spec{Seed: 3, Latency: 1, Delay: time.Minute})
	faulty := faultinject.WrapPI(&scriptedPI{iv: Interval{Lo: 0.2, Hi: 0.3}}, plan)
	r := mustResilient(t, Instrument(faulty, obs.NewRegistry()), ResilientConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	ivs, depths := r.IntervalBatchDepthCtx(ctx, make([]workload.Query, 8))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: batch took %s", elapsed)
	}
	for i := range ivs {
		if ivs[i] != (Interval{Lo: 0, Hi: 1}) || depths[i] != r.FailsafeDepth() {
			t.Fatalf("row %d: iv = %+v depth = %d, want the fail-safe", i, ivs[i], depths[i])
		}
	}
}

// TestResilientIntervalBatchWorkerPanic: a stage that panics while the batch
// is fanned over worker goroutines degrades like a scalar panic — every row
// is served by the fallback — instead of killing the process.
func TestResilientIntervalBatchWorkerPanic(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The fan-out only leaves the calling goroutine with >= 2 workers.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	reg := obs.NewRegistry()
	plan := faultinject.MustPlan(faultinject.Spec{Seed: 5, Panic: 1})
	faulty := faultinject.WrapPI(&scriptedPI{iv: Interval{Lo: 0.2, Hi: 0.3}}, plan)
	fb := Interval{Lo: 0.1, Hi: 0.6}
	r := mustResilient(t, Instrument(faulty, reg), ResilientConfig{
		Fallbacks: []PI{&scriptedPI{iv: fb}},
		Metrics:   reg,
	})
	ivs, depths := r.IntervalBatchDepthCtx(context.Background(), make([]workload.Query, 64))
	for i := range ivs {
		if ivs[i] != fb || depths[i] != 1 {
			t.Fatalf("row %d: iv = %+v depth = %d, want the fallback", i, ivs[i], depths[i])
		}
	}
	if n := plan.Injected(faultinject.Panic); n == 0 {
		t.Fatal("plan injected no panic")
	}
	if got := reg.Counter("cardpi_resilient_recovered_panics_total", "", obs.L("pi", r.Name())).Value(); got != 1 {
		t.Fatalf("recovered panics = %d, want 1 (one per batch stage attempt)", got)
	}
}
