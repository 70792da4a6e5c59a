package conformal

import (
	"fmt"
	"math"
	"math/rand"
)

// PowerMartingale is a plug-in martingale for testing exchangeability online
// (Fedorova et al., "Plug-in martingales for testing exchangeability
// on-line", referenced in Section IV of the paper). Conformal p-values of a
// stream of scores are combined with the power betting function
// f(p) = ε·p^(ε−1); under exchangeability the martingale stays small with
// high probability (by Ville's inequality P(sup M_t >= c) <= 1/c), while a
// distribution shift drives it up exponentially.
// Under exchangeability the raw power martingale decays over time, so a
// change that occurs late in a long stream cannot lift it back above 1. The
// detector therefore also tracks a CUSUM-style restarted statistic
// (log-value floored at zero before each update) — the standard scheme for
// martingale-based changepoint detection. Rejects thresholds the restarted
// statistic; the Ville bound is exact for the raw martingale and a close
// approximation for the restarted one.
type PowerMartingale struct {
	// Epsilon is the betting exponent in (0, 1); smaller values bet more
	// aggressively on small p-values (0.1 is the usual default).
	Epsilon float64
	rng     *rand.Rand

	// past is the score history in an order-statistic multiset, so each
	// Observe costs O(log n) instead of a scan over every earlier score.
	// It grows by 8–12 bytes per observation until Reset.
	past     orderedScores
	logM     float64
	cusum    float64
	maxCusum float64
}

// NewPowerMartingale creates a martingale with betting exponent epsilon in
// (0,1); 0.1 is a reasonable default. The seed drives the tie-breaking
// randomisation of the p-values.
func NewPowerMartingale(epsilon float64, seed int64) (*PowerMartingale, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("conformal: epsilon must be in (0,1), got %v", epsilon)
	}
	return &PowerMartingale{Epsilon: epsilon, rng: rand.New(rand.NewSource(seed))}, nil
}

// Observe processes the next score in the stream and returns the smoothed
// conformal p-value it produced.
func (m *PowerMartingale) Observe(score float64) float64 {
	// NaN scores count towards n but are never greater than or equal to
	// anything, in either direction.
	greater, equal := m.past.counts(score)
	n := m.past.Len() + 1
	// Smoothed p-value: ties (including the new point itself) are broken
	// uniformly, which makes the p-values exactly uniform under
	// exchangeability.
	theta := m.rng.Float64()
	p := (float64(greater) + theta*float64(equal+1)) / float64(n)
	if p <= 0 {
		p = 1.0 / float64(2*n)
	}
	m.past.insert(score)
	inc := math.Log(m.Epsilon) + (m.Epsilon-1)*math.Log(p)
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

// Reset clears the observed score history, releasing its storage, and
// every detection statistic, restarting the martingale from scratch — the
// acknowledgement step after a drift alarm has been acted on
// (recalibration or retraining). The tie-breaking RNG keeps its stream, so
// a Reset does not replay the same randomisation.
func (m *PowerMartingale) Reset() {
	m.past.reset()
	m.logM = 0
	m.cusum = 0
	m.maxCusum = 0
}

// LogValue returns the current log value of the raw power martingale.
func (m *PowerMartingale) LogValue() float64 { return m.logM }

// MaxLogValue returns the running maximum of the restarted (CUSUM) log
// martingale, the detection statistic.
func (m *PowerMartingale) MaxLogValue() float64 { return m.maxCusum }

// Rejects reports whether exchangeability is rejected at the given
// significance: by Ville's inequality, sup M_t >= 1/significance has
// probability at most `significance` under exchangeability.
func (m *PowerMartingale) Rejects(significance float64) bool {
	return m.maxCusum >= math.Log(1/significance)
}

// TestExchangeability runs the martingale over a score stream and reports
// the maximum log martingale value. Streams from exchangeable sources stay
// near (or below) zero; shifted streams grow linearly.
func TestExchangeability(scores []float64, epsilon float64, seed int64) (float64, error) {
	m, err := NewPowerMartingale(epsilon, seed)
	if err != nil {
		return 0, err
	}
	for _, s := range scores {
		m.Observe(s)
	}
	return m.MaxLogValue(), nil
}
