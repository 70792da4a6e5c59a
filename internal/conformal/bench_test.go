package conformal

import (
	"math/rand"
	"testing"

	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/histogram"
	"cardpi/internal/workload"
)

func benchScores(n int) []float64 {
	r := rand.New(rand.NewSource(1))
	s := make([]float64, n)
	for i := range s {
		s[i] = r.Float64()
	}
	return s
}

func BenchmarkQuantile10k(b *testing.B) {
	scores := benchScores(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Quantile(scores, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitCPInterval(b *testing.B) {
	scores := benchScores(10000)
	cp, err := CalibrateSplit(scores, scores, ResidualScore{}, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Interval(0.5)
	}
}

// BenchmarkIntervalCV compares the cursor-based CV+ interval (0 allocs/op)
// against the sort-everything reference it replaced; results are recorded in
// BENCH_nn.json by `make bench-json`.
func BenchmarkIntervalCV(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	n, k := 5000, 10
	oof := make([]float64, n)
	truths := make([]float64, n)
	foldOf := make([]int, n)
	for i := range oof {
		oof[i] = r.Float64()
		truths[i] = oof[i] + 0.05*r.NormFloat64()
		foldOf[i] = i % k
	}
	jk, err := CalibrateJackknifeCV(oof, truths, foldOf, k, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	foldPreds := make([]float64, k)
	for i := range foldPreds {
		foldPreds[i] = 0.5 + 0.01*float64(i)
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jk.IntervalCV(foldPreds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jk.intervalCVReference(foldPreds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOnlineAdd(b *testing.B) {
	o, err := NewOnline(ResidualScore{}, 0.1, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Add(r.Float64(), r.Float64())
	}
}

// servebenchLocalized calibrates localized CP in the shape `cardpi serve
// -method lcp` runs under the serve benchmark: DMV at 20k rows, 2000
// labelled queries split 60/40 into probes and calibration rows (800), K =
// 800/4 = 200, and the generic 44-dimensional query features. That shape
// takes the selection strategy (no tree above kdMaxDim dims, 8K > n). The
// point predictions come from a histogram estimator: the scores they yield
// only feed the final order-statistic selection, so the model family does
// not change the kernel's cost.
func servebenchLocalized(b *testing.B) (*Localized, [][]float64) {
	b.Helper()
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 2000, Seed: 2, MinPreds: 1, MaxPreds: 4})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := wl.Split(3, 0.6, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	probe, cal := parts[0], parts[1]
	ff := estimator.NewFeaturizer(tab)
	m := histogram.NewSingle(tab, histogram.Config{})
	feats := make([][]float64, len(cal.Queries))
	preds := make([]float64, len(cal.Queries))
	truths := make([]float64, len(cal.Queries))
	for i, lq := range cal.Queries {
		feats[i] = ff.Featurize(lq.Query)
		preds[i] = m.EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
	}
	l, err := CalibrateLocalized(feats, preds, truths, ResidualScore{}, 0.1, len(cal.Queries)/4)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([][]float64, len(probe.Queries))
	for i, lq := range probe.Queries {
		qs[i] = ff.Featurize(lq.Query)
	}
	return l, qs
}

// BenchmarkLocalDelta times the production neighbour kernel on one row at a
// time (Deltas on a batch of one, the per-row work of Interval and
// Intervals); BenchmarkLocalDeltaRef times the full-sort reference on the
// same probes. `make bench-json` records both in BENCH_pi.json, with
// layout-bytes, the memory the selection strategy's group layout holds
// next to the 800×44 feature block (281,600 bytes).
func BenchmarkLocalDelta(b *testing.B) {
	l, qs := servebenchLocalized(b)
	if l.layout == nil {
		b.Fatal("the servebench-shaped predictor has no group layout")
	}
	b.Run("servebench-shaped", func(b *testing.B) {
		out := make([]float64, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(qs)
			if err := l.Deltas(qs[j:j+1], out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(l.layout.bytes()), "layout-bytes")
	})
}

func BenchmarkLocalDeltaRef(b *testing.B) {
	l, qs := servebenchLocalized(b)
	b.Run("servebench-shaped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := l.LocalDelta(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
