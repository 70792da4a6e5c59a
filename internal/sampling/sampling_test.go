package sampling

import (
	"math"
	"testing"

	"cardpi/internal/dataset"
	"cardpi/internal/workload"
)

func TestSampleEstimateAccuracy(t *testing.T) {
	tab, err := dataset.GenerateForest(dataset.GenConfig{Rows: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tab, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	pred := []dataset.Predicate{{Col: "elevation", Op: dataset.OpRange, Lo: 300, Hi: 700}}
	truth, err := tab.Selectivity(pred)
	if err != nil {
		t.Fatal(err)
	}
	est := e.SelectivityOf(pred)
	if math.Abs(est-truth) > 0.05 {
		t.Fatalf("sample estimate %v vs truth %v", est, truth)
	}
}

func TestSampleSizeClamp(t *testing.T) {
	tab, err := dataset.GeneratePower(dataset.GenConfig{Rows: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tab, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.SampleSize() != 50 {
		t.Fatalf("SampleSize = %d, want clamp to 50", e.SampleSize())
	}
}

func TestValidationAndJoins(t *testing.T) {
	tab, err := dataset.GeneratePower(dataset.GenConfig{Rows: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tab, 0, 1); err == nil {
		t.Fatal("size=0 should fail")
	}
	e, err := New(tab, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "sampling" {
		t.Fatal("Name wrong")
	}
	jq := workload.Query{Join: &dataset.JoinQuery{}}
	if s := e.EstimateSelectivity(jq); s != 0 {
		t.Fatalf("join query should report 0, got %v", s)
	}
	// Unknown columns report zero matches rather than panicking.
	if s := e.SelectivityOf([]dataset.Predicate{{Col: "ghost", Op: dataset.OpEq}}); s != 0 {
		t.Fatalf("unknown column selectivity = %v", s)
	}
}

func TestDeterministicSample(t *testing.T) {
	tab, err := dataset.GenerateCensus(dataset.GenConfig{Rows: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(tab, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(tab, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	pred := []dataset.Predicate{{Col: "sex", Op: dataset.OpEq, Lo: 0}}
	if a.SelectivityOf(pred) != b.SelectivityOf(pred) {
		t.Fatal("sampling not deterministic for fixed seed")
	}
	if a.Matches(pred) != int(a.SelectivityOf(pred)*100) {
		t.Fatal("Matches inconsistent with SelectivityOf")
	}
}

func TestConfidenceInterval(t *testing.T) {
	tab, err := dataset.GenerateCensus(dataset.GenConfig{Rows: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tab, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Query{Preds: []dataset.Predicate{{Col: "sex", Op: dataset.OpEq, Lo: 0}}}
	lo, hi := e.ConfidenceInterval(q, 1.96)
	p := e.EstimateSelectivity(q)
	if lo > p || hi < p {
		t.Fatalf("CI [%v,%v] does not contain the point estimate %v", lo, hi, p)
	}
	if lo < 0 || hi > 1 {
		t.Fatalf("CI [%v,%v] escapes [0,1]", lo, hi)
	}
	// Degenerate case: a predicate matching nothing in the sample gives a
	// zero-width interval at zero — the failure mode conformal PIs avoid.
	none := workload.Query{Preds: []dataset.Predicate{{Col: "age", Op: dataset.OpRange, Lo: -10, Hi: -5}}}
	lo, hi = e.ConfidenceInterval(none, 1.96)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty-sample CI = [%v,%v], want degenerate [0,0]", lo, hi)
	}
}

// selectivityRef is the readable reference for SelectivityOf: it looks every
// column up again for each sampled row.
func selectivityRef(e *Estimator, preds []dataset.Predicate) float64 {
	match := 0
rows:
	for _, ri := range e.rows {
		for _, p := range preds {
			c := e.table.Column(p.Col)
			if c == nil {
				return 0
			}
			if !p.Matches(c.Values[ri]) {
				continue rows
			}
		}
		match++
	}
	return float64(match) / float64(len(e.rows))
}

func TestSelectivityOfMatchesReference(t *testing.T) {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tab, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 300, MaxPreds: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range wl.Queries {
		preds := q.Query.Preds
		got, want := e.SelectivityOf(preds), selectivityRef(e, preds)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SelectivityOf(%v) = %v, reference %v", preds, got, want)
		}
	}
	// An unknown column yields 0 wherever it sits in the conjunction.
	for _, preds := range [][]dataset.Predicate{
		{{Col: "ghost", Op: dataset.OpEq}, {Col: "state", Op: dataset.OpEq}},
		{{Col: "state", Op: dataset.OpRange, Lo: 0, Hi: 1 << 20}, {Col: "ghost", Op: dataset.OpEq}},
	} {
		if got := e.SelectivityOf(preds); math.Float64bits(got) != math.Float64bits(selectivityRef(e, preds)) || got != 0 {
			t.Fatalf("SelectivityOf(%v) = %v, want 0", preds, got)
		}
	}
}
