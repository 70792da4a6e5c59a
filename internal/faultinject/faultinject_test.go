package faultinject

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"cardpi/internal/conformal"
	"cardpi/internal/estimator"
	"cardpi/internal/workload"
)

// constPI returns a fixed interval and never fails on its own.
type constPI struct{ iv conformal.Interval }

func (c constPI) Name() string                                        { return "const/unit" }
func (c constPI) Interval(workload.Query) (conformal.Interval, error) { return c.iv, nil }

func TestPlanDeterminism(t *testing.T) {
	spec := Spec{Seed: 42, Error: 0.05, Panic: 0.05, Latency: 0.05, NaN: 0.05}
	a, b := MustPlan(spec), MustPlan(spec)
	for i := uint64(0); i < 10_000; i++ {
		if a.KindAt(i) != b.KindAt(i) {
			t.Fatalf("KindAt(%d) differs between identically seeded plans", i)
		}
	}
	other := MustPlan(Spec{Seed: 43, Error: 0.05, Panic: 0.05, Latency: 0.05, NaN: 0.05})
	same := 0
	for i := uint64(0); i < 10_000; i++ {
		if a.KindAt(i) == other.KindAt(i) {
			same++
		}
	}
	if same == 10_000 {
		t.Fatal("different seeds produced the identical fault schedule")
	}
}

func TestPlanRatesAndAfter(t *testing.T) {
	const n = 20_000
	p := MustPlan(Spec{Seed: 7, Error: 0.1, NaN: 0.1, After: 100})
	var faults int
	for i := uint64(0); i < 100; i++ {
		if p.KindAt(i) != None {
			t.Fatalf("fault %v injected before After", p.KindAt(i))
		}
	}
	for i := uint64(100); i < n; i++ {
		if k := p.KindAt(i); k != None {
			if k != Error && k != NaN {
				t.Fatalf("unexpected kind %v from an Error/NaN-only plan", k)
			}
			faults++
		}
	}
	got := float64(faults) / float64(n-100)
	if got < 0.17 || got > 0.23 {
		t.Fatalf("empirical fault rate %.3f, want ~0.20", got)
	}
}

func TestPlanRejectsInvalidSpecs(t *testing.T) {
	if _, err := New(Spec{Error: 0.8, Panic: 0.3}); err == nil {
		t.Fatal("rates summing over 1 accepted")
	}
	if _, err := New(Spec{Error: -0.1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestPlanConcurrentCountsDeterministic(t *testing.T) {
	spec := Spec{Seed: 9, Error: 0.2, Panic: 0.1}
	counts := func() (uint64, uint64) {
		p := MustPlan(spec)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					p.next()
				}
			}()
		}
		wg.Wait()
		return p.Injected(Error), p.Injected(Panic)
	}
	e1, p1 := counts()
	e2, p2 := counts()
	if e1 != e2 || p1 != p2 {
		t.Fatalf("fault multiset not deterministic under concurrency: (%d,%d) vs (%d,%d)", e1, p1, e2, p2)
	}
}

func TestFaultyPIInjectsEveryClass(t *testing.T) {
	base := constPI{iv: conformal.Interval{Lo: 0.2, Hi: 0.4}}
	cases := []struct {
		spec  Spec
		check func(t *testing.T, iv conformal.Interval, err error)
	}{
		{Spec{Error: 1}, func(t *testing.T, _ conformal.Interval, err error) {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
		}},
		{Spec{NaN: 1}, func(t *testing.T, iv conformal.Interval, err error) {
			if err != nil || !math.IsNaN(iv.Lo) || !math.IsNaN(iv.Hi) {
				t.Fatalf("iv = %+v err = %v, want NaN endpoints", iv, err)
			}
		}},
		{Spec{Stale: 1, Bias: 0.3}, func(t *testing.T, iv conformal.Interval, err error) {
			if err != nil || math.Abs(iv.Lo-0.5) > 1e-12 || math.Abs(iv.Hi-0.7) > 1e-12 {
				t.Fatalf("iv = %+v err = %v, want bias-shifted interval", iv, err)
			}
		}},
	}
	for _, tc := range cases {
		f := WrapPI(base, MustPlan(tc.spec))
		iv, err := f.Interval(workload.Query{})
		tc.check(t, iv, err)
	}

	panicky := WrapPI(base, MustPlan(Spec{Panic: 1}))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic fault did not panic")
			}
		}()
		_, _ = panicky.Interval(workload.Query{})
	}()
}

func TestFaultyPILatencyHonoursDeadline(t *testing.T) {
	f := WrapPI(constPI{}, MustPlan(Spec{Latency: 1, Delay: time.Minute}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.IntervalCtx(ctx, workload.Query{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("latency fault ignored the deadline (took %s)", elapsed)
	}
}

func TestFaultyEstimatorFaults(t *testing.T) {
	base := estimator.Func{N: "unit", F: func(workload.Query) float64 { return 0.5 }}
	if got := WrapEstimator(base, MustPlan(Spec{NaN: 1})).EstimateSelectivity(workload.Query{}); !math.IsNaN(got) {
		t.Fatalf("NaN fault returned %v", got)
	}
	if got := WrapEstimator(base, MustPlan(Spec{Error: 1})).EstimateSelectivity(workload.Query{}); !math.IsNaN(got) {
		t.Fatalf("Error fault on an estimator should surface as NaN, got %v", got)
	}
	if got := WrapEstimator(base, MustPlan(Spec{Stale: 1, Bias: 0.25})).EstimateSelectivity(workload.Query{}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Stale fault returned %v, want 0.75", got)
	}
	clean := WrapEstimator(base, MustPlan(Spec{}))
	if got := clean.EstimateSelectivity(workload.Query{}); got != 0.5 {
		t.Fatalf("fault-free plan altered the estimate: %v", got)
	}
}
