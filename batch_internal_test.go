package cardpi

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/gbm"
	"cardpi/internal/histogram"
	"cardpi/internal/mscn"
	"cardpi/internal/obs"
	"cardpi/internal/par"
	"cardpi/internal/workload"
)

// queriesOf strips the labels off a workload, yielding the plain query slice
// the batch API takes.
func queriesOf(wl *workload.Workload) []workload.Query {
	qs := make([]workload.Query, len(wl.Queries))
	for i, lq := range wl.Queries {
		qs[i] = lq.Query
	}
	return qs
}

// seqIntervals is the scalar reference path for the in-package batch tests.
func seqIntervals(t *testing.T, pi PI, qs []workload.Query) []Interval {
	t.Helper()
	out := make([]Interval, len(qs))
	for i, q := range qs {
		iv, err := pi.Interval(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = iv
	}
	return out
}

// sameBits fails unless got matches want exactly (Float64bits on both ends).
func sameBits(t *testing.T, want, got []Interval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d intervals, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i].Lo) != math.Float64bits(got[i].Lo) ||
			math.Float64bits(want[i].Hi) != math.Float64bits(got[i].Hi) {
			t.Fatalf("query %d: batch %+v differs from sequential %+v", i, got[i], want[i])
		}
	}
}

// TestIntervalBatchWeighted covers the weighted-CP wrapper, which the
// pipeline combos test cannot build (it needs a shifted-workload sample):
// the presorted O(log n) threshold search must reproduce the scalar path
// exactly, including its single-featurization likelihood ratio.
func TestIntervalBatchWeighted(t *testing.T) {
	model, ff, _, cal, test := fixture(t)
	pi, err := WrapWeighted(model, cal, test, ff, conformal.ResidualScore{}, 0.1,
		gbm.Config{NumTrees: 30, MaxDepth: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	qs := queriesOf(test)
	want := seqIntervals(t, pi, qs)
	got, err := pi.IntervalBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, got)
}

// TestIntervalBatchJackknife covers the CV+/jackknife wrapper, also absent
// from the pipeline registry.
func TestIntervalBatchJackknife(t *testing.T) {
	model, _, train, _, test := fixture(t)
	tf := func(wl *workload.Workload, seed int64) (Estimator, error) { return model, nil }
	pi, err := WrapJackknifeCV(tf, train, 10, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := queriesOf(test)
	want := seqIntervals(t, pi, qs)
	got, err := pi.IntervalBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, got)
}

// seqOnlyPI hides the embedded PI's batch method behind an interface that
// only promotes the scalar API, forcing the package-level dispatcher onto
// its generic worker-pool fallback.
type seqOnlyPI struct{ PI }

// TestIntervalBatchGenericFallback proves the fallback path of the
// package-level IntervalBatch: a PI without a native batch method still gets
// bit-identical batched answers.
func TestIntervalBatchGenericFallback(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	base, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := seqOnlyPI{base}
	if _, ok := interface{}(wrapped).(BatchPI); ok {
		t.Fatal("seqOnlyPI must not implement BatchPI")
	}
	qs := queriesOf(test)
	want := seqIntervals(t, base, qs)
	got, err := IntervalBatch(wrapped, qs)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, got)
}

// TestIntervalBatchInstrumented asserts the instrumented wrapper forwards to
// the native batch path unchanged while still counting every query.
func TestIntervalBatchInstrumented(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	base, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	in := Instrument(base, obs.NewRegistry())
	qs := queriesOf(test)
	want := seqIntervals(t, base, qs)
	got, err := in.IntervalBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, got)
}

// TestIntervalBatchResilient asserts the fault-tolerant wrapper's batch path
// serves every query from the primary on the healthy path, bit-identical to
// the scalar route, with depth 0 throughout.
func TestIntervalBatchResilient(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	base, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResilient(base, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qs := queriesOf(test)
	want := seqIntervals(t, base, qs)
	got, err := r.IntervalBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, got)
	ivs, depths := r.IntervalBatchDepthCtx(context.Background(), qs)
	sameBits(t, want, ivs)
	for i, d := range depths {
		if d != 0 {
			t.Fatalf("query %d served at depth %d, want primary", i, d)
		}
	}
}

// TestIntervalBatchEstResilient: through Resilient(Instrument(pi)), the
// wrappers whose kernel evaluates one point-estimate model per row report
// that model and its estimates, bit-identical to scalar EstimateSelectivity,
// next to intervals bit-identical to the scalar path; CQR and the jackknife
// family report neither.
func TestIntervalBatchEstResilient(t *testing.T) {
	model, ff, train, cal, test := fixture(t)
	gcfg := gbm.Config{NumTrees: 30, MaxDepth: 3, Seed: 31}
	build := map[string]func() (PI, error){
		"s-cp": func() (PI, error) { return WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1) },
		"lw-s-cp": func() (PI, error) {
			return WrapLocallyWeighted(model, train, cal, ff, conformal.ResidualScore{}, 0.1, gcfg)
		},
		"lcp": func() (PI, error) { return WrapLocalized(model, cal, ff, conformal.ResidualScore{}, 0.1, 20) },
		"weighted-cp": func() (PI, error) {
			return WrapWeighted(model, cal, test, ff, conformal.ResidualScore{}, 0.1, gcfg)
		},
		"mondrian": func() (PI, error) { return WrapMondrian(model, cal, TemplateGroup, conformal.ResidualScore{}, 0.1, 5) },
		"cqr":      func() (PI, error) { return WrapCQR(model, model, cal, 0.1) },
		"jk-cv+": func() (PI, error) {
			return WrapJackknifeCV(func(*workload.Workload, int64) (Estimator, error) { return model, nil }, train, 5, 0.1, 5)
		},
	}
	qs := queriesOf(test)
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			pi, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewResilient(Instrument(pi, obs.NewRegistry()), ResilientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ivs, depths, ests := r.IntervalBatchEstCtx(context.Background(), qs)
			sameBits(t, seqIntervals(t, pi, qs), ivs)
			for i, d := range depths {
				if d != 0 {
					t.Fatalf("query %d served at depth %d, want primary", i, d)
				}
			}
			if name == "cqr" || name == "jk-cv+" {
				if r.EstimateModel() != nil || ests != nil {
					t.Fatalf("reports model %v and %d estimates, want none", r.EstimateModel(), len(ests))
				}
				return
			}
			if r.EstimateModel() != model {
				t.Fatalf("EstimateModel() = %v, want the wrapped model", r.EstimateModel())
			}
			if len(ests) != len(qs) {
				t.Fatalf("got %d estimates for %d queries", len(ests), len(qs))
			}
			for i, q := range qs {
				if want := model.EstimateSelectivity(q); math.Float64bits(ests[i]) != math.Float64bits(want) {
					t.Fatalf("query %d: reported estimate %v, model says %v", i, ests[i], want)
				}
			}
		})
	}
}

// TestIntervalBatchConcurrent hammers one shared wrapper from several
// goroutines — the batch path must be safe for concurrent use (the server
// fans requests over it) and stay bit-identical under contention. The name
// keeps it inside the CI race-detector run.
func TestIntervalBatchConcurrent(t *testing.T) {
	// Run the row-block kernels at full fan-out so the race detector sees the
	// worker goroutines, not the W=1 inline path.
	par.SetBatchWorkers(runtime.NumCPU())
	defer par.SetBatchWorkers(0)
	model, _, _, cal, test := fixture(t)
	base, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	qs := queriesOf(test)
	want := seqIntervals(t, base, qs)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				got, err := base.IntervalBatch(qs)
				if err != nil {
					t.Errorf("IntervalBatch: %v", err)
					return
				}
				for i := range want {
					if math.Float64bits(want[i].Lo) != math.Float64bits(got[i].Lo) ||
						math.Float64bits(want[i].Hi) != math.Float64bits(got[i].Hi) {
						t.Errorf("query %d: concurrent batch diverged", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestIntervalBatchAllocs is the steady-state allocation guard: once warm, a
// 256-query IntervalBatch performs a constant number of heap allocations
// (the two result slices), i.e. zero allocations per query. The guard
// compares a large batch against a small one so the bound is about scaling,
// not about the fixed per-call cost.
func TestIntervalBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	// Pin one worker: parallel fan-out legitimately allocates O(workers)
	// goroutine stacks per batch, which would make the guard depend on the
	// machine's CPU count instead of the per-query scaling it polices.
	par.SetBatchWorkers(1)
	defer par.SetBatchWorkers(0)
	model, _, _, cal, test := fixture(t)
	base, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	qs := queriesOf(test)[:256]
	assertConstantBatchAllocs(t, base, qs)
}

// TestIntervalBatchAllocsMSCN repeats the steady-state guard over the MSCN
// network path: the pooled batch scratch must absorb featurization and the
// matrix forward passes with no per-query heap traffic.
func TestIntervalBatchAllocsMSCN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	par.SetBatchWorkers(1)
	defer par.SetBatchWorkers(0)
	tab, err := dataset.GenerateCensus(dataset.GenConfig{Rows: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := wl.Split(3, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mscn.Train(mscn.NewSingleFeaturizer(tab), parts[0], mscn.Config{Epochs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base, err := WrapSplitCP(m, parts[1], conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	qs := queriesOf(parts[1])[:250]
	assertConstantBatchAllocs(t, base, qs)
}

// assertConstantBatchAllocs measures warm per-batch allocations at two batch
// sizes and fails if the count grows with the batch, or if the fixed
// per-call overhead exceeds a handful of slice headers.
func assertConstantBatchAllocs(t *testing.T, pi BatchPI, qs []workload.Query) {
	t.Helper()
	small, big := qs[:16], qs
	// Warm pooled scratch on the largest shape first.
	if _, err := pi.IntervalBatch(big); err != nil {
		t.Fatal(err)
	}
	allocsSmall := testing.AllocsPerRun(20, func() {
		if _, err := pi.IntervalBatch(small); err != nil {
			t.Fatal(err)
		}
	})
	allocsBig := testing.AllocsPerRun(20, func() {
		if _, err := pi.IntervalBatch(big); err != nil {
			t.Fatal(err)
		}
	})
	if allocsBig > allocsSmall+2 {
		t.Fatalf("allocations scale with batch size: %.1f at n=%d vs %.1f at n=%d",
			allocsBig, len(big), allocsSmall, len(small))
	}
	if allocsBig > 8 {
		t.Fatalf("batch call allocates %.1f times, want a constant handful", allocsBig)
	}
}

// TestIntervalBatchAllocsLocalized pins the localized-CP regression fix: the
// batch path's per-row neighbour probes, local-score quantiles, and
// featurisation all draw from pooled scratch, so a warm 256-query batch
// allocates the same constant handful as a 16-query one — not one
// feature vector or kNN buffer per row.
func TestIntervalBatchAllocsLocalized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	par.SetBatchWorkers(1)
	defer par.SetBatchWorkers(0)
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 900, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := wl.Split(2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	model := histogram.NewSingle(tab, histogram.Config{})
	feat := estimator.NewFeaturizer(tab)
	lcp, err := WrapLocalized(model, parts[0], feat.AppendFeaturize, conformal.ResidualScore{}, 0.1, 20)
	if err != nil {
		t.Fatal(err)
	}
	qs := queriesOf(parts[1])[:256]
	assertConstantBatchAllocs(t, lcp, qs)
}

// TestLocalizedIntervalMatchesBatchRow pins the scalar lcp path to the batch
// kernel: every Interval equals its IntervalBatch row bit for bit, for
// neighbourhoods that take the tree, the
// bounded-heap scan and the quickselect branches (K == calibration size
// included), and for feature vectors carrying NaN or ±Inf — in the query
// only (the tree is built, the poisoned query falls back to a scan) or in
// the calibration set too (no tree at all).
func TestLocalizedIntervalMatchesBatchRow(t *testing.T) {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 600, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := wl.Split(2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cal, qs := parts[0], queriesOf(parts[1])
	model := histogram.NewSingle(tab, histogram.Config{})
	feat := estimator.NewFeaturizer(tab)
	// poison overwrites the first feature of every third query with NaN,
	// +Inf or -Inf, keyed on the query so calibration and serving agree.
	var poisonOn bool
	poison := func(q workload.Query, f []float64) []float64 {
		if !poisonOn || len(q.Preds) == 0 || len(f) == 0 {
			return f
		}
		switch q.Preds[0].Lo % 9 {
		case 0:
			f[0] = math.NaN()
		case 3:
			f[0] = math.Inf(1)
		case 6:
			f[0] = math.Inf(-1)
		}
		return f
	}
	ff := func(q workload.Query, dst []float64) []float64 { return poison(q, feat.AppendFeaturize(q, dst)) }
	n := len(cal.Queries)
	for _, k := range []int{5, n / 4, n} {
		for _, poisonCal := range []bool{false, true} {
			poisonOn = poisonCal
			lcp, err := WrapLocalized(model, cal, ff, conformal.ResidualScore{}, 0.1, k)
			if err != nil {
				t.Fatal(err)
			}
			poisonOn = true
			batch, err := lcp.IntervalBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, batch, seqIntervals(t, lcp, qs))
		}
	}
}
