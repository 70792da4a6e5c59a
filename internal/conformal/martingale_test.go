package conformal

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestMartingaleStaysLowUnderExchangeability(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	scores := make([]float64, 2000)
	for i := range scores {
		scores[i] = r.Float64()
	}
	maxLog, err := TestExchangeability(scores, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Ville: P(max M >= 100) <= 0.01, i.e. maxLog < log(100) ~ 4.6 w.h.p.
	if maxLog > 4.6 {
		t.Fatalf("martingale max log %v too high for exchangeable stream", maxLog)
	}
}

func TestMartingaleDetectsShift(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var scores []float64
	for i := 0; i < 500; i++ {
		scores = append(scores, r.Float64()*0.1) // small residuals
	}
	for i := 0; i < 500; i++ {
		scores = append(scores, 1+r.Float64()) // shifted workload: large residuals
	}
	m, err := NewPowerMartingale(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		m.Observe(s)
	}
	if !m.Rejects(0.01) {
		t.Fatalf("martingale failed to reject after shift; max log = %v", m.MaxLogValue())
	}
	if m.MaxLogValue() < 4.6 {
		t.Fatalf("detection statistic %v too small after shift", m.MaxLogValue())
	}
}

func TestMartingaleValidation(t *testing.T) {
	if _, err := NewPowerMartingale(0, 1); err == nil {
		t.Fatal("epsilon=0 should fail")
	}
	if _, err := NewPowerMartingale(1, 1); err == nil {
		t.Fatal("epsilon=1 should fail")
	}
	if _, err := TestExchangeability(nil, 2, 1); err == nil {
		t.Fatal("invalid epsilon should fail")
	}
}

func TestMartingalePValuesUniformish(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m, err := NewPowerMartingale(0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	var ps []float64
	for i := 0; i < 3000; i++ {
		ps = append(ps, m.Observe(r.NormFloat64()))
	}
	// Under exchangeability smoothed p-values are uniform; check the mean.
	var sum float64
	for _, p := range ps[100:] { // skip warm-up
		sum += p
	}
	mean := sum / float64(len(ps)-100)
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("p-value mean %v far from 0.5", mean)
	}
}

// refMartingale is the linear-scan reference PowerMartingale is proven
// bit-identical against: every Observe compares the new score with every
// earlier one. NaN scores fail both > and ==, so they are never counted as
// greater or equal but still count in n.
type refMartingale struct {
	eps                   float64
	rng                   *rand.Rand
	past                  []float64
	logM, cusum, maxCusum float64
}

func (m *refMartingale) observe(score float64) float64 {
	greater, equal := 0, 0
	for _, s := range m.past {
		switch {
		case s > score:
			greater++
		case s == score:
			equal++
		}
	}
	n := len(m.past) + 1
	theta := m.rng.Float64()
	p := (float64(greater) + theta*float64(equal+1)) / float64(n)
	if p <= 0 {
		p = 1.0 / float64(2*n)
	}
	m.past = append(m.past, score)
	inc := math.Log(m.eps) + (m.eps-1)*math.Log(p)
	m.logM += inc
	if m.cusum < 0 {
		m.cusum = 0
	}
	m.cusum += inc
	if m.cusum > m.maxCusum {
		m.maxCusum = m.cusum
	}
	return p
}

func (m *refMartingale) reset() {
	m.past = m.past[:0]
	m.logM, m.cusum, m.maxCusum = 0, 0, 0
}

// mixedScoreStream mixes continuous scores with the values that stress the
// order structure's comparisons: integer ties, -0/+0, ±Inf and NaN, plus a
// late level shift so the detection statistic moves.
func mixedScoreStream(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		var s float64
		switch r.Intn(10) {
		case 0, 1:
			s = float64(r.Intn(5)) // integer ties
		case 2:
			s = math.Copysign(0, -1)
		case 3:
			s = 0
		case 4:
			s = math.Inf(1)
		case 5:
			s = math.Inf(-1)
		case 6:
			s = math.NaN()
		default:
			s = r.NormFloat64()
		}
		if i > 3*n/4 && s == s && !math.IsInf(s, 0) {
			s += 3
		}
		out[i] = s
	}
	return out
}

// TestPowerMartingaleMatchesLinearScan proves the order-statistic history
// yields bit-identical p-values and statistics to the linear scan, across a
// mid-stream Reset.
func TestPowerMartingaleMatchesLinearScan(t *testing.T) {
	const n = 20000
	scores := mixedScoreStream(rand.New(rand.NewSource(11)), n)
	m, err := NewPowerMartingale(0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refMartingale{eps: 0.1, rng: rand.New(rand.NewSource(7))}
	for i, s := range scores {
		if i == n/2 {
			m.Reset()
			ref.reset()
		}
		got, want := m.Observe(s), ref.observe(s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("score %d (%v): p-value %v, reference %v", i, s, got, want)
		}
		if math.Float64bits(m.LogValue()) != math.Float64bits(ref.logM) ||
			math.Float64bits(m.MaxLogValue()) != math.Float64bits(ref.maxCusum) {
			t.Fatalf("score %d: log/max %v/%v, reference %v/%v", i, m.LogValue(), m.MaxLogValue(), ref.logM, ref.maxCusum)
		}
		for _, sig := range []float64{0.001, 0.01, 0.05} {
			if m.Rejects(sig) != (ref.maxCusum >= math.Log(1/sig)) {
				t.Fatalf("score %d: Rejects(%v) disagrees with the reference", i, sig)
			}
		}
	}
	if !m.Rejects(0.001) {
		t.Fatalf("the shifted tail should trip the alarm; max log = %v", m.MaxLogValue())
	}
}

// cloneHistory returns a deep copy of o, so a benchmark can restart from
// the same history without re-observing it.
func cloneHistory(o *orderedScores) orderedScores {
	c := orderedScores{sorted: o.sorted, nans: o.nans}
	for _, b := range o.blocks {
		c.blocks = append(c.blocks, append([]float64(nil), b...))
	}
	c.maxes = append([]float64(nil), o.maxes...)
	c.fen = append([]int(nil), o.fen...)
	return c
}

// martingaleWithHistory returns a martingale that has observed h uniform
// scores, plus a fresh stream of scores to observe next.
func martingaleWithHistory(h int) (*PowerMartingale, []float64) {
	r := rand.New(rand.NewSource(int64(h)))
	m, _ := NewPowerMartingale(0.1, 1)
	for i := 0; i < h; i++ {
		m.Observe(r.Float64())
	}
	next := make([]float64, 4096)
	for i := range next {
		next[i] = r.Float64()
	}
	return m, next
}

// BenchmarkPowerMartingaleObserve times one Observe at a fixed history
// size: the history is restored from a snapshot every h/10 observations,
// so it stays within 10% of h however large b.N gets.
func BenchmarkPowerMartingaleObserve(b *testing.B) {
	for _, h := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"10k", 10000}, {"100k", 100000}} {
		b.Run("history="+h.name, func(b *testing.B) {
			m, next := martingaleWithHistory(h.n)
			base := cloneHistory(&m.past)
			chunk := max(h.n/10, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 && i > 0 {
					b.StopTimer()
					m.past = cloneHistory(&base)
					b.StartTimer()
				}
				m.Observe(next[i%len(next)])
			}
		})
	}
}

// TestPowerMartingaleObserveCostFlat pins the O(log n) claim: one Observe
// at a 100k-score history costs at most 3x one at a 1k-score history (the
// linear scan it replaced costs about 100x). Each side is the best of
// several timed runs, which filters scheduler noise.
func TestPowerMartingaleObserveCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	perObserve := func(h int) time.Duration {
		m, next := martingaleWithHistory(h)
		base := cloneHistory(&m.past)
		best := time.Duration(math.MaxInt64)
		for trial := 0; trial < 7; trial++ {
			m.past = cloneHistory(&base)
			start := time.Now()
			for _, s := range next[:1000] {
				m.Observe(s)
			}
			if d := time.Since(start) / 1000; d < best {
				best = d
			}
		}
		return best
	}
	small, large := perObserve(1000), perObserve(100000)
	if large > 3*small {
		t.Fatalf("Observe costs %v at 100k history vs %v at 1k (> 3x): history cost is not logarithmic", large, small)
	}
	t.Logf("Observe: %v at 1k history, %v at 100k", small, large)
}
