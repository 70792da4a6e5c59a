package mscn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/workload"
)

// TestPredictLogBatchMatchesSequential proves the batched inference path is
// bit-identical to PredictLog for single-table queries.
func TestPredictLogBatchMatchesSequential(t *testing.T) {
	f, trainWL, testWL := singleSetup(t)
	m, err := Train(f, trainWL, Config{Epochs: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]workload.Query, len(testWL.Queries))
	for i, lq := range testWL.Queries {
		qs[i] = lq.Query
	}
	got := make([]float64, len(qs))
	m.PredictLogBatch(qs, got)
	for i, q := range qs {
		want := m.PredictLog(q)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("query %d: batch %v != sequential %v", i, got[i], want)
		}
	}
	sel := make([]float64, len(qs))
	m.EstimateSelectivityBatch(qs, sel)
	for i, q := range qs {
		want := m.EstimateSelectivity(q)
		if math.Float64bits(sel[i]) != math.Float64bits(want) {
			t.Fatalf("query %d: batch selectivity %v != sequential %v", i, sel[i], want)
		}
	}
}

// TestPredictLogBatchJoins covers the join featurizer with sample bitmaps:
// the flat AppendSetElements path must reproduce SetElements' deterministic
// predicate ordering exactly.
func TestPredictLogBatchJoins(t *testing.T) {
	sch, err := dataset.GenerateDSB(dataset.GenConfig{Rows: 800, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.GenerateJoins(sch, workload.JoinConfig{Count: 120, Templates: 6, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	f := NewSchemaFeaturizer(sch).WithSampleBitmaps(16, 24)
	m, err := Train(f, wl, Config{Epochs: 2, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]workload.Query, len(wl.Queries))
	for i, lq := range wl.Queries {
		qs[i] = lq.Query
	}
	got := make([]float64, len(qs))
	m.PredictLogBatch(qs, got)
	for i, q := range qs {
		want := m.PredictLog(q)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("join query %d: batch %v != sequential %v", i, got[i], want)
		}
	}
}

// TestAppendSetElementsMatchesSetElements compares the flat rows against
// the reference per-element vectors directly.
func TestAppendSetElementsMatchesSetElements(t *testing.T) {
	f, _, testWL := singleSetup(t)
	var tb, pb []float64
	for _, lq := range testWL.Queries[:50] {
		tb, pb = tb[:0], pb[:0]
		var nT, nP int
		tb, pb, nT, nP = f.AppendSetElements(lq.Query, tb, pb)
		tf, pf := f.SetElements(lq.Query)
		if nT != len(tf) || nP != len(pf) {
			t.Fatalf("counts %d/%d != reference %d/%d", nT, nP, len(tf), len(pf))
		}
		td, pd := f.TableDim(), f.PredDim()
		for e, want := range tf {
			for j, v := range want {
				if tb[e*td+j] != v {
					t.Fatalf("table row %d col %d: %v != %v", e, j, tb[e*td+j], v)
				}
			}
		}
		for e, want := range pf {
			for j, v := range want {
				if pb[e*pd+j] != v {
					t.Fatalf("pred row %d col %d: %v != %v", e, j, pb[e*pd+j], v)
				}
			}
		}
	}
}

// TestScalarMatchesForward proves the scalar path (the batched kernel on a
// batch of one) bit-identical to the training-path forward, for
// single-table queries and for joins with sample bitmaps.
func TestScalarMatchesForward(t *testing.T) {
	f, trainWL, testWL := singleSetup(t)
	m, err := Train(f, trainWL, Config{Epochs: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := dataset.GenerateDSB(dataset.GenConfig{Rows: 800, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	jwl, err := workload.GenerateJoins(sch, workload.JoinConfig{Count: 120, Templates: 6, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	jm, err := Train(NewSchemaFeaturizer(sch).WithSampleBitmaps(16, 24), jwl, Config{Epochs: 2, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *Model
		wl   *workload.Workload
	}{{"single", m, testWL}, {"join", jm, jwl}} {
		for i, lq := range c.wl.Queries {
			tf, pf := c.m.feat.SetElements(lq.Query)
			want, _ := c.m.forward(tf, pf)
			if got := c.m.PredictLog(lq.Query); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s query %d: PredictLog %v != forward %v", c.name, i, got, want)
			}
			if got, want := c.m.EstimateSelectivity(lq.Query), estimator.SelFromLog(want); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s query %d: EstimateSelectivity %v != forward %v", c.name, i, got, want)
			}
		}
	}
}

// TestEstimateSelectivityZeroAllocs pins the scalar path allocation-free
// once the scratch pool is warm.
func TestEstimateSelectivityZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	f, trainWL, testWL := singleSetup(t)
	m, err := Train(f, trainWL, Config{Epochs: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	q := testWL.Queries[0].Query
	m.EstimateSelectivity(q)
	if allocs := testing.AllocsPerRun(100, func() { m.EstimateSelectivity(q) }); allocs != 0 {
		t.Fatalf("EstimateSelectivity allocates %.1f times per call, want 0", allocs)
	}
}

// TestScalarAndBatchConcurrent runs scalar and batch inference on one model
// from several goroutines at once: they share the pooled scratch, so every
// result must still equal the sequential one (and -race must stay quiet).
func TestScalarAndBatchConcurrent(t *testing.T) {
	f, trainWL, testWL := singleSetup(t)
	m, err := Train(f, trainWL, Config{Epochs: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]workload.Query, len(testWL.Queries))
	want := make([]float64, len(qs))
	for i, lq := range testWL.Queries {
		qs[i] = lq.Query
		want[i] = m.PredictLog(lq.Query)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				out := make([]float64, len(qs))
				m.PredictLogBatch(qs, out)
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						errs <- fmt.Sprintf("goroutine %d: batch row %d = %v, want %v", g, i, out[i], want[i])
						return
					}
				}
				return
			}
			for i, q := range qs {
				if got := m.PredictLog(q); math.Float64bits(got) != math.Float64bits(want[i]) {
					errs <- fmt.Sprintf("goroutine %d: scalar query %d = %v, want %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
