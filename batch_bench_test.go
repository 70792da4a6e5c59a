package cardpi

// Benchmarks for the batched inference hot path (BENCH_pi.json via
// `make bench-json`): per-query sequential Interval against IntervalBatch at
// two batch sizes, for the two wrappers the batch work targets most —
// localized CP (whose per-query full calibration sort becomes a sublinear
// neighbour-index lookup) and split CP over the MSCN network (whose
// per-query forward passes become pooled matrix passes). Every benchmark
// reports a shared ns/query metric so cmd/benchjson can derive
// queries-per-second speedups across different batch sizes.

import (
	"fmt"
	"sync"
	"testing"

	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/histogram"
	"cardpi/internal/mscn"
	"cardpi/internal/workload"
)

// benchPIState is built once and shared by every PI benchmark: a DMV table
// large enough that the localized method's calibration set (~1.1k queries)
// shows the sort-per-query cost, and an MSCN model trained just far enough
// to be a realistic network workload.
type benchPIState struct {
	once sync.Once
	err  error
	pis  []struct {
		name string
		pi   BatchPI
	}
	qs []workload.Query
}

var benchPI benchPIState

func (s *benchPIState) get(b *testing.B) ([]struct {
	name string
	pi   BatchPI
}, []workload.Query) {
	b.Helper()
	s.once.Do(func() { s.err = s.build() })
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.pis, s.qs
}

func (s *benchPIState) build() error {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 4000, Seed: 1})
	if err != nil {
		return err
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 3600, Seed: 2})
	if err != nil {
		return err
	}
	parts, err := wl.Split(3, 0.4, 0.3, 0.3)
	if err != nil {
		return err
	}
	train, cal, test := parts[0], parts[1], parts[2]

	hist := histogram.NewSingle(tab, histogram.Config{})
	feat := estimator.NewFeaturizer(tab)
	lcp, err := WrapLocalized(hist, cal, feat.AppendFeaturize, conformal.ResidualScore{}, 0.1, 50)
	if err != nil {
		return err
	}

	m, err := mscn.Train(mscn.NewSingleFeaturizer(tab), train, mscn.Config{Epochs: 2, Seed: 7})
	if err != nil {
		return err
	}
	mscnSCP, err := WrapSplitCP(m, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		return err
	}

	s.pis = []struct {
		name string
		pi   BatchPI
	}{
		{"lcp", lcp},
		{"mscn-s-cp", mscnSCP},
	}
	s.qs = make([]workload.Query, len(test.Queries))
	for i, lq := range test.Queries {
		s.qs[i] = lq.Query
	}
	if len(s.qs) < 1024 {
		return fmt.Errorf("bench workload too small: %d test queries", len(s.qs))
	}
	return nil
}

// BenchmarkInterval is the sequential baseline: one scalar Interval call per
// op, rotating through the test workload.
func BenchmarkInterval(b *testing.B) {
	pis, qs := benchPI.get(b)
	for _, entry := range pis {
		b.Run(entry.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := entry.pi.Interval(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
		})
	}
}

// BenchmarkIntervalBatch answers the same workload through the batch path at
// two batch sizes; ns/query divides the whole-batch latency by the batch
// size so the speedup over BenchmarkInterval reads off directly.
func BenchmarkIntervalBatch(b *testing.B) {
	pis, qs := benchPI.get(b)
	for _, entry := range pis {
		for _, n := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/n=%d", entry.name, n), func(b *testing.B) {
				batch := qs[:n]
				// Warm pooled scratch so steady-state cost is measured.
				if _, err := entry.pi.IntervalBatch(batch); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := entry.pi.IntervalBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/query")
			})
		}
	}
}
