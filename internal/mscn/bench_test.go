package mscn

import (
	"testing"

	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/workload"
)

// servebenchModel trains MSCN in the shape `cardpi serve -model mscn` runs
// under the serve benchmark (DMV at 20k rows, 2000 queries of 1–4
// conjuncts, 1200 of them for training) and returns it with probe queries.
// Two epochs keep setup short; the weights do not change an inference's
// cost.
func servebenchModel(b *testing.B) (*Model, []workload.Query) {
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
	m, err := Train(NewSingleFeaturizer(tab), parts[0], Config{Epochs: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]workload.Query, len(parts[1].Queries))
	for i, lq := range parts[1].Queries {
		qs[i] = lq.Query
	}
	return m, qs
}

// sink keeps the benchmarked results live.
var sink float64

// BenchmarkEstimateSelectivity times the scalar inference serve runs per
// miss (the batched kernel on a batch of one); BenchmarkEstimateSelectivity-
// Forward times the training-path forward it replaced on the same queries.
// `make bench-json` records both in BENCH_pi.json.
func BenchmarkEstimateSelectivity(b *testing.B) {
	m, qs := servebenchModel(b)
	b.Run("servebench-shaped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = m.EstimateSelectivity(qs[i%len(qs)])
		}
	})
}

func BenchmarkEstimateSelectivityForward(b *testing.B) {
	m, qs := servebenchModel(b)
	b.Run("servebench-shaped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tf, pf := m.feat.SetElements(qs[i%len(qs)])
			pred, _ := m.forward(tf, pf)
			sink = estimator.SelFromLog(pred)
		}
	})
}
