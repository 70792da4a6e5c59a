package cardpi

import (
	"testing"

	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/gbm"
	"cardpi/internal/histogram"
	"cardpi/internal/workload"
)

// fixture builds a dataset, a histogram "model" and cal/test workloads.
func fixture(t *testing.T) (Estimator, FeatureFunc, *workload.Workload, *workload.Workload, *workload.Workload) {
	t.Helper()
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 1200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := wl.Split(3, 0.4, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	model := histogram.NewSingle(tab, histogram.Config{})
	feat := estimator.NewFeaturizer(tab)
	return model, feat.AppendFeaturize, parts[0], parts[1], parts[2]
}

func TestWrapSplitCPCoverage(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	pi, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(pi, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Coverage < 0.85 {
		t.Fatalf("coverage %v < 0.85", ev.Coverage)
	}
	if ev.Widths.Mean <= 0 || ev.Widths.Mean > 1 {
		t.Fatalf("mean width %v unreasonable", ev.Widths.Mean)
	}
	if pi.Delta() <= 0 {
		t.Fatal("calibrated delta should be positive")
	}
	if ev.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestWrapLocallyWeightedCoverageAndAdaptivity(t *testing.T) {
	model, ff, train, cal, test := fixture(t)
	pi, err := WrapLocallyWeighted(model, train, cal, ff, conformal.ResidualScore{}, 0.1,
		gbm.Config{NumTrees: 40, MaxDepth: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(pi, test)
	if err != nil {
		t.Fatal(err)
	}
	// Realised coverage of a single calibration draw fluctuates around 1-α
	// (Beta-distributed); allow the usual few-sigma band.
	if ev.Coverage < 0.84 {
		t.Fatalf("coverage %v < 0.84", ev.Coverage)
	}
	// Adaptivity: widths should vary across queries.
	if ev.Widths.P99 <= ev.Widths.Median {
		t.Fatalf("LW-S-CP widths look constant: median %v p99 %v", ev.Widths.Median, ev.Widths.P99)
	}
}

func TestWrapCQRCoverage(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	// Synthetic quantile models bracketing the point model.
	lo := estimator.Func{N: "lo", F: func(q workload.Query) float64 {
		return 0.7 * model.EstimateSelectivity(q)
	}}
	hi := estimator.Func{N: "hi", F: func(q workload.Query) float64 {
		return 1.5*model.EstimateSelectivity(q) + 0.001
	}}
	pi, err := WrapCQR(lo, hi, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(pi, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Coverage < 0.85 {
		t.Fatalf("CQR coverage %v < 0.85", ev.Coverage)
	}
}

func TestWrapJackknifeCV(t *testing.T) {
	model, _, train, _, test := fixture(t)
	// The "trainable family" here is the histogram model itself (training
	// ignores the workload); fold residuals then coincide with plain
	// residuals, which still exercises the full pipeline deterministically.
	tf := func(wl *workload.Workload, seed int64) (Estimator, error) { return model, nil }
	pi, err := WrapJackknifeCV(tf, train, 10, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(pi, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Coverage < 0.85 {
		t.Fatalf("JK-CV+ coverage %v < 0.85", ev.Coverage)
	}
	// The CV+ interval must also cover.
	hit := 0
	for _, lq := range test.Queries {
		iv, err := pi.IntervalCV(lq.Query)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(lq.Sel) {
			hit++
		}
	}
	if cov := float64(hit) / float64(len(test.Queries)); cov < 0.8 {
		t.Fatalf("CV+ coverage %v < 1-2alpha", cov)
	}
	if pi.FullModel() == nil {
		t.Fatal("FullModel nil")
	}
}

func TestWrapValidation(t *testing.T) {
	model, ff, train, _, _ := fixture(t)
	if _, err := WrapSplitCP(model, nil, conformal.ResidualScore{}, 0.1); err == nil {
		t.Fatal("nil calibration should fail")
	}
	if _, err := WrapLocallyWeighted(model, nil, train, ff, conformal.ResidualScore{}, 0.1, gbm.Config{}); err == nil {
		t.Fatal("nil residual workload should fail")
	}
	if _, err := WrapLocallyWeighted(model, train, nil, ff, conformal.ResidualScore{}, 0.1, gbm.Config{}); err == nil {
		t.Fatal("nil calibration should fail")
	}
	if _, err := WrapCQR(model, model, nil, 0.1); err == nil {
		t.Fatal("nil calibration should fail")
	}
	tf := func(wl *workload.Workload, seed int64) (Estimator, error) { return model, nil }
	if _, err := WrapJackknifeCV(tf, &workload.Workload{}, 10, 0.1, 1); err == nil {
		t.Fatal("workload smaller than K should fail")
	}
	if _, err := WrapJackknifeCVModels(model, []Estimator{model, model}, nil, nil, 0.1); err == nil {
		t.Fatal("empty calibration should fail")
	}
}

func TestIntervalsClippedToFeasibleRange(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	pi, err := WrapSplitCP(model, cal, conformal.RelativeScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(pi, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range ev.Intervals {
		if iv.Lo < 0 || iv.Hi > 1 {
			t.Fatalf("interval %+v escapes [0,1]", iv)
		}
	}
}

func TestNamesDescriptive(t *testing.T) {
	model, ff, train, cal, _ := fixture(t)
	scp, _ := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if scp.Name() != "s-cp/histogram" {
		t.Fatalf("name = %s", scp.Name())
	}
	lw, err := WrapLocallyWeighted(model, train, cal, ff, conformal.ResidualScore{}, 0.1, gbm.Config{NumTrees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lw.Name() != "lw-s-cp/histogram" {
		t.Fatalf("name = %s", lw.Name())
	}
}

func TestWrapMondrianOnJoins(t *testing.T) {
	sch, err := dataset.GenerateDSB(dataset.GenConfig{Rows: 2000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.GenerateJoins(sch, workload.JoinConfig{Count: 400, Templates: 6, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := wl.Split(23, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	model := histogram.NewSchema(sch, histogram.Config{})
	pi, err := WrapMondrian(model, parts[0], TemplateGroup, conformal.ResidualScore{}, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pi.Name() != "mondrian/histogram" {
		t.Fatalf("name = %s", pi.Name())
	}
	ev, err := Evaluate(pi, parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Coverage < 0.84 {
		t.Fatalf("mondrian coverage %v", ev.Coverage)
	}
	// Widths must differ across templates (per-group thresholds).
	if ev.Widths.P99 <= ev.Widths.Median {
		t.Fatal("mondrian widths look constant across templates")
	}
}

func TestTemplateGroup(t *testing.T) {
	single := workload.Query{}
	if TemplateGroup(single) != "single" {
		t.Fatal("single-table group wrong")
	}
	a := workload.Query{Join: &dataset.JoinQuery{Tables: []string{"b", "a"}}}
	b := workload.Query{Join: &dataset.JoinQuery{Tables: []string{"a", "b"}}}
	if TemplateGroup(a) != TemplateGroup(b) {
		t.Fatal("TemplateGroup should be order-invariant")
	}
}

func TestWrapMondrianValidation(t *testing.T) {
	model, _, _, _, _ := fixture(t)
	if _, err := WrapMondrian(model, nil, TemplateGroup, conformal.ResidualScore{}, 0.1, 5); err == nil {
		t.Fatal("nil calibration should fail")
	}
}

func TestWrapWeightedValidation(t *testing.T) {
	model, ff, _, cal, _ := fixture(t)
	if _, err := WrapWeighted(model, nil, cal, ff, conformal.ResidualScore{}, 0.1, gbm.Config{}); err == nil {
		t.Fatal("nil calibration should fail")
	}
	if _, err := WrapWeighted(model, cal, nil, ff, conformal.ResidualScore{}, 0.1, gbm.Config{}); err == nil {
		t.Fatal("nil shift sample should fail")
	}
}

func TestWrapWeightedNoShiftBehavesLikeSplit(t *testing.T) {
	model, ff, _, cal, test := fixture(t)
	// When the "shifted" sample comes from the same distribution, the
	// estimated ratios are near-constant and weighted CP behaves like
	// plain split conformal: valid coverage, similar widths.
	pi, err := WrapWeighted(model, cal, test, ff, conformal.ResidualScore{}, 0.1,
		gbm.Config{NumTrees: 30, MaxDepth: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Name() != "weighted-cp/histogram" {
		t.Fatalf("name = %s", pi.Name())
	}
	ev, err := Evaluate(pi, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Coverage < 0.84 {
		t.Fatalf("no-shift weighted coverage %v", ev.Coverage)
	}
}

// TestScalarFeaturizingIntervalAllocs guards the scalar featurizing paths:
// lw-s-cp and weighted-cp featurize into the pooled buffer, so one Interval
// allocates no more than the bare model's EstimateSelectivity on the same
// query.
func TestScalarFeaturizingIntervalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	model, ff, train, cal, test := fixture(t)
	q := test.Queries[0].Query
	gcfg := gbm.Config{NumTrees: 5, Seed: 1}
	lw, err := WrapLocallyWeighted(model, train, cal, ff, conformal.ResidualScore{}, 0.1, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := WrapWeighted(model, cal, test, ff, conformal.ResidualScore{}, 0.1, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(200, func() { model.EstimateSelectivity(q) })
	for name, pi := range map[string]PI{"lw-s-cp": lw, "weighted-cp": w} {
		n := testing.AllocsPerRun(200, func() {
			if _, err := pi.Interval(q); err != nil {
				t.Fatal(err)
			}
		})
		if n > base {
			t.Errorf("%s: Interval allocates %v/call, the bare model %v", name, n, base)
		}
	}
}
