package conformal

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// knnCase builds one Localized predictor plus query features designed to
// exercise a specific neighbour-selection strategy (tree / scan /
// quickselect) including heavy distance ties.
type knnCase struct {
	name    string
	n, dim  int
	k       int
	ties    bool // quantised coordinates so many distances collide exactly
	queries int
}

func buildKNNLocalized(t *testing.T, r *rand.Rand, c knnCase) (*Localized, [][]float64) {
	t.Helper()
	feats := make([][]float64, c.n)
	preds := make([]float64, c.n)
	truths := make([]float64, c.n)
	for i := range feats {
		f := make([]float64, c.dim)
		for j := range f {
			if c.ties {
				f[j] = float64(r.Intn(3))
			} else {
				f[j] = r.NormFloat64()
			}
		}
		feats[i] = f
		preds[i] = r.Float64()
		truths[i] = r.Float64()
	}
	l, err := CalibrateLocalized(feats, preds, truths, ResidualScore{}, 0.1, c.k)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, c.queries)
	for i := range qs {
		switch i % 4 {
		case 0: // exact duplicate of a calibration point: distance-0 ties
			qs[i] = feats[r.Intn(c.n)]
		case 1: // shorter query vector (missing dims count fully)
			q := make([]float64, c.dim/2)
			for j := range q {
				q[j] = r.NormFloat64()
			}
			qs[i] = q
		case 2: // longer query vector (extra dims shift all distances)
			q := make([]float64, c.dim+2)
			for j := range q {
				q[j] = r.NormFloat64()
			}
			qs[i] = q
		default:
			q := make([]float64, c.dim)
			for j := range q {
				if c.ties {
					q[j] = float64(r.Intn(3))
				} else {
					q[j] = r.NormFloat64()
				}
			}
			qs[i] = q
		}
	}
	// One poisoned query: NaN coordinates must take the non-tree path and
	// still match the reference (all distances collapse to +Inf).
	qs[len(qs)-1] = []float64{math.NaN(), 1, 2}
	return l, qs
}

// TestDeltasMatchesLocalDelta proves the batch neighbour index is
// bit-identical to the full-sort reference for every strategy regime.
func TestDeltasMatchesLocalDelta(t *testing.T) {
	cases := []knnCase{
		{name: "tree-low-dim", n: 400, dim: 3, k: 11, queries: 120},
		{name: "tree-heavy-ties", n: 300, dim: 2, k: 25, ties: true, queries: 120},
		{name: "scan-high-dim", n: 400, dim: 40, k: 10, queries: 80},
		{name: "quickselect-large-k", n: 400, dim: 40, k: 100, ties: true, queries: 80},
		{name: "k-equals-n", n: 60, dim: 5, k: 60, queries: 40},
		{name: "tiny-no-tree", n: 10, dim: 3, k: 3, queries: 40},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(c.name))))
			l, qs := buildKNNLocalized(t, r, c)
			got := make([]float64, len(qs))
			if err := l.Deltas(qs, got); err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				want, err := l.LocalDelta(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(want) != math.Float64bits(got[i]) {
					t.Fatalf("query %d: Deltas %v != LocalDelta %v", i, got[i], want)
				}
			}
		})
	}
}

// TestDeltasAfterRoundTrip proves a rehydrated predictor rebuilds the
// neighbour index and keeps the batch path bit-identical to the reference.
func TestDeltasAfterRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	l, qs := buildKNNLocalized(t, r, knnCase{name: "rt", n: 200, dim: 4, k: 20, queries: 60})
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rl, err := ReadLocalized(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rl.index == nil || rl.index.nodes == nil {
		t.Fatal("rehydrated predictor did not rebuild the k-d tree")
	}
	got := make([]float64, len(qs))
	if err := rl.Deltas(qs, got); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := l.LocalDelta(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(got[i]) {
			t.Fatalf("query %d after round trip: %v != %v", i, got[i], want)
		}
	}
}

// TestDeltasConstantAllocs pins that Deltas' allocation count does not
// scale with the number of query rows: the scratch is shared by the whole
// batch.
func TestDeltasConstantAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	l, _ := buildKNNLocalized(t, r, knnCase{name: "alloc", n: 800, dim: 40, k: 200, queries: 4})
	qs := make([][]float64, 128)
	for i := range qs {
		q := make([]float64, 40)
		for j := range q {
			q[j] = r.NormFloat64()
		}
		qs[i] = q
	}
	out := make([]float64, len(qs))
	allocs := testing.AllocsPerRun(10, func() {
		if err := l.Deltas(qs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("Deltas of %d rows allocates %.1f times per call; scratch is not being reused", len(qs), allocs)
	}
}

// TestLocalizedOneRowAllocs pins that a one-row call on the serving shape
// (selection strategy: 8K > n, dim above kdMaxDim) allocates nothing once
// the scratch pool is warm, on every entry point a cache-off miss takes.
func TestLocalizedOneRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	r := rand.New(rand.NewSource(7))
	l, qs := buildKNNLocalized(t, r, knnCase{name: "one-row", n: 800, dim: 44, k: 200, queries: 4})
	q := qs[:1]
	deltas := make([]float64, 1)
	preds := []float64{0.5}
	ivs := make([]Interval, 1)
	for name, fn := range map[string]func() error{
		"Deltas":    func() error { return l.Deltas(q, deltas) },
		"Intervals": func() error { return l.Intervals(q, preds, ivs) },
		"Interval":  func() error { _, err := l.Interval(q[0], preds[0]); return err },
	} {
		if err := fn(); err != nil { // warm the scratch pool
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s on one row allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestKthDistMatchesSort checks the radix select against a sort on
// distance sets with exact ties, zeros, subnormals and +Inf: the K-th value
// must match bit for bit and the count below it exactly.
func TestKthDistMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	special := []float64{0, math.SmallestNonzeroFloat64, 1e-310, 1, 2, math.MaxFloat64, math.Inf(1)}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		dist := make([]float64, n)
		for i := range dist {
			switch r.Intn(3) {
			case 0:
				dist[i] = special[r.Intn(len(special))]
			case 1:
				dist[i] = float64(r.Intn(4))
			default:
				dist[i] = r.ExpFloat64() * math.Pow(10, float64(r.Intn(20)-10))
			}
		}
		sorted := append([]float64(nil), dist...)
		sort.Float64s(sorted)
		rank := r.Intn(n)
		got, less := kthDist(dist, rank)
		if math.Float64bits(got) != math.Float64bits(sorted[rank]) {
			t.Fatalf("trial %d: rank %d of %d = %v, want %v", trial, rank, n, got, sorted[rank])
		}
		if want := sort.SearchFloat64s(sorted, got); less != want {
			t.Fatalf("trial %d: %d values below %v, want %d", trial, less, got, want)
		}
	}
}

// TestIntervalsMatchesInterval checks the interval-producing batch entry
// point agrees with the sequential Interval.
func TestIntervalsMatchesInterval(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	l, qs := buildKNNLocalized(t, r, knnCase{name: "iv", n: 250, dim: 6, k: 30, queries: 60})
	preds := make([]float64, len(qs))
	for i := range preds {
		preds[i] = r.Float64()
	}
	out := make([]Interval, len(qs))
	if err := l.Intervals(qs, preds, out); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := l.Interval(q, preds[i])
		if err != nil {
			t.Fatal(err)
		}
		if want != out[i] {
			t.Fatalf("query %d: Intervals [%v,%v] != Interval [%v,%v]",
				i, out[i].Lo, out[i].Hi, want.Lo, want.Hi)
		}
	}
}

// TestWeightedThresholdMatchesQuantile proves the presorted per-query
// threshold agrees with the WeightedQuantile sorting reference, including
// tied scores and the +Inf regime.
func TestWeightedThresholdMatchesQuantile(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 300
	preds := make([]float64, n)
	truths := make([]float64, n)
	weights := make([]float64, n)
	for i := range preds {
		// Dyadic values keep weight sums exact in floating point, so the
		// reference's different tie accumulation order cannot drift.
		preds[i] = float64(r.Intn(8)) / 8
		truths[i] = float64(r.Intn(8)) / 8
		weights[i] = float64(r.Intn(16)) / 8
	}
	w, err := CalibrateWeightedSplit(preds, truths, weights, ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range []float64{0, 0.5, 1, 10, 1e6} {
		got, err := w.threshold(tw)
		if err != nil {
			t.Fatal(err)
		}
		want, err := WeightedQuantile(w.scores, w.weights, tw, w.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("testWeight %v: threshold %v != WeightedQuantile %v", tw, got, want)
		}
	}
	if _, err := w.threshold(-1); err == nil {
		t.Fatal("negative test weight must error")
	}
}
