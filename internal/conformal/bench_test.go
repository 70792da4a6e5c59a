package conformal

import (
	"math/rand"
	"testing"
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
