package conformal

import (
	"math/rand"
	"sort"
	"testing"
)

// LocalDelta returns the threshold calibrated from the K nearest
// calibration points. This is the readable full-sort reference the
// production kernel (localDelta, behind Interval, Deltas and Intervals) is
// proven bit-identical against: distances tie-break on the calibration
// index, giving a total order that both implementations share.
func (l *Localized) LocalDelta(feat []float64) (float64, error) {
	type ds struct {
		d float64
		s float64
		i int
	}
	all := make([]ds, len(l.feats))
	for i, f := range l.feats {
		all[i] = ds{d: sqDist(f, feat), s: l.scores[i], i: i}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].i < all[j].i
	})
	local := make([]float64, l.K)
	for i := 0; i < l.K; i++ {
		local[i] = all[i].s
	}
	return Quantile(local, l.Alpha)
}

// localizedSynthetic: two workload regions with different noise scales,
// encoded in the first feature dimension.
func localizedSynthetic(r *rand.Rand, n int) (feats [][]float64, preds, truths []float64) {
	for i := 0; i < n; i++ {
		region := float64(i % 2) // 0 = easy, 1 = hard
		x := r.Float64()
		noise := 0.01
		if region == 1 {
			noise = 0.2
		}
		feats = append(feats, []float64{region, x})
		preds = append(preds, x)
		truths = append(truths, x+noise*r.NormFloat64())
	}
	return feats, preds, truths
}

func TestLocalizedCoverageAndAdaptivity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	feats, preds, truths := localizedSynthetic(r, 2000)
	lcp, err := CalibrateLocalized(feats, preds, truths, ResidualScore{}, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	tf, tp, tt := localizedSynthetic(r, 1000)
	var ivs []Interval
	for i := range tf {
		iv, err := lcp.Interval(tf[i], tp[i])
		if err != nil {
			t.Fatal(err)
		}
		ivs = append(ivs, iv)
	}
	cov, err := Coverage(ivs, tt)
	if err != nil {
		t.Fatal(err)
	}
	if cov < 0.88 {
		t.Fatalf("LCP coverage %v < 0.88", cov)
	}
	// Local adaptivity: the easy region's intervals are much tighter.
	easy, err := lcp.LocalDelta([]float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := lcp.LocalDelta([]float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if easy*3 > hard {
		t.Fatalf("LCP not locally adaptive: easy delta %v vs hard %v", easy, hard)
	}
}

func TestLocalizedTighterThanGlobalInEasyRegion(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	feats, preds, truths := localizedSynthetic(r, 2000)
	lcp, err := CalibrateLocalized(feats, preds, truths, ResidualScore{}, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	global, err := CalibrateSplit(preds, truths, ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	easy, err := lcp.LocalDelta([]float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if easy >= global.Delta {
		t.Fatalf("LCP easy-region delta %v not tighter than global %v", easy, global.Delta)
	}
}

func TestLocalizedValidation(t *testing.T) {
	f := [][]float64{{1}}
	if _, err := CalibrateLocalized(f, []float64{1, 2}, []float64{1}, ResidualScore{}, 0.1, 5); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := CalibrateLocalized(nil, nil, nil, ResidualScore{}, 0.1, 5); err == nil {
		t.Fatal("empty calibration should fail")
	}
	if _, err := CalibrateLocalized(f, []float64{1}, []float64{1}, ResidualScore{}, 2, 5); err == nil {
		t.Fatal("bad alpha should fail")
	}
	if _, err := CalibrateLocalized(f, []float64{1}, []float64{1}, ResidualScore{}, 0.1, 0); err == nil {
		t.Fatal("k=0 should fail")
	}
	// k larger than the calibration set clamps rather than failing.
	lcp, err := CalibrateLocalized(f, []float64{1}, []float64{1}, ResidualScore{}, 0.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if lcp.K != 1 {
		t.Fatalf("K = %d, want clamp to 1", lcp.K)
	}
}

func TestSqDistMismatchedLengths(t *testing.T) {
	if d := sqDist([]float64{1, 2}, []float64{1}); d != 4 {
		t.Fatalf("sqDist = %v, want 4 (extra dims count fully)", d)
	}
	if d := sqDist([]float64{1}, []float64{1, 3}); d != 9 {
		t.Fatalf("sqDist = %v, want 9", d)
	}
}
