// Package conformal implements the four distribution-free uncertainty
// quantification algorithms the paper evaluates for learned cardinality
// estimation:
//
//   - Split conformal prediction (S-CP), Algorithm 2
//   - Locally weighted split conformal prediction (LW-S-CP), Algorithm 3
//   - Conformalized quantile regression (CQR), Algorithm 4
//   - Jackknife+ with K-fold cross validation (JK-CV+), Algorithm 1 and the
//     CV+ interval of Barber et al. (Eq. 5 in the paper)
//
// plus the supporting machinery: the conformal quantile, pluggable scoring
// functions (residual, q-error, relative error), online and windowed
// calibration-set augmentation, a plug-in power martingale for testing
// exchangeability, and coverage/width evaluation metrics.
//
// The package is pure math: it consumes predictions and ground-truth labels
// as float64 slices (selectivities in [0,1] in this repository, though
// nothing depends on that) so it can wrap any black-box estimator — the
// central desideratum of the paper.
package conformal

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Quantile returns the conformal quantile of the scores: the
// ⌈(n+1)(1−α)⌉-th smallest value, clamped to the largest score when the
// index exceeds n (which happens when the calibration set is too small for
// the requested coverage). The input is not modified.
func Quantile(scores []float64, alpha float64) (float64, error) {
	n := len(scores)
	if n == 0 {
		return 0, fmt.Errorf("conformal: empty score set")
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("conformal: alpha must be in (0,1), got %v", alpha)
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, alpha), nil
}

// quantileSorted returns the conformal ⌈(n+1)(1−α)⌉-th smallest entry of a
// non-empty ascending-sorted slice — the shared kernel of Quantile and
// QuantileOfSorted.
func quantileSorted(sorted []float64, alpha float64) float64 {
	return sorted[conformalRank(len(sorted), alpha)]
}

// conformalRank is the 0-based position of the conformal quantile among n
// ascending scores: ⌈(n+1)(1−α)⌉ − 1, clamped to [0, n−1].
func conformalRank(n int, alpha float64) int {
	k := int(math.Ceil((1 - alpha) * float64(n+1)))
	return min(max(k, 1), n) - 1
}

// quantileSelect returns the same value as Quantile(scores, alpha) for a
// non-empty slice without sorting it: it selects the conformal order
// statistic under sort.Float64s' order (NaN before every number) in
// expected O(n). It permutes scores. Values that compare equal but differ
// in bits (−0 and +0, NaN payloads) may come back as any one of them, as
// they may from the sort. Scores that are all NaN-free with a clear sign
// bit — what every Score here yields on finite predictions — take kthDist's
// radix select instead, where equal values have equal bits.
func quantileSelect(scores []float64, alpha float64) float64 {
	r := conformalRank(len(scores), alpha)
	nans, signs := 0, uint64(0)
	for i, v := range scores {
		signs |= math.Float64bits(v)
		if v != v {
			scores[i], scores[nans] = scores[nans], v
			nans++
		}
	}
	if nans == 0 && signs>>63 == 0 {
		t, _ := kthDist(scores, r)
		return t
	}
	if r < nans {
		return scores[r]
	}
	return selectFloat(scores[nans:], r-nans)
}

// selectFloat returns the r-th smallest (0-based) value of a NaN-free slice
// under <, permuting x: quickselect with a median-of-three pivot and a Hoare
// partition, which splits runs of equal values evenly, so heavy ties cost
// no more than distinct values. Should an adversarial input exhaust the
// partition budget, the remaining range is sorted, which bounds the worst
// case at O(n log n).
func selectFloat(x []float64, r int) float64 {
	lo, hi := 0, len(x)
	for budget := 2 * bits.Len(uint(len(x))); hi-lo > 12; budget-- {
		if budget == 0 {
			sort.Float64s(x[lo:hi])
			return x[r]
		}
		a, b, c := x[lo], x[lo+(hi-lo)/2], x[hi-1]
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = max(a, c)
		}
		p := b
		i, j := lo, hi-1
		for i <= j {
			for x[i] < p {
				i++
			}
			for x[j] > p {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// x[lo:j+1] <= p, x[i:hi] >= p, and everything between equals p.
		switch {
		case r <= j:
			hi = j + 1
		case r >= i:
			lo = i
		default:
			return x[r]
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
	return x[r]
}

// QuantileOfSorted is Quantile over an already ascending-sorted slice: it
// reads the order statistic directly with no copy and no re-sort. Use it
// with PercentileOfSorted in summary loops that take several reads of the
// same sample — sort once, reuse. The result is identical to
// Quantile(sorted, alpha).
func QuantileOfSorted(sorted []float64, alpha float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("conformal: empty score set")
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("conformal: alpha must be in (0,1), got %v", alpha)
	}
	return quantileSorted(sorted, alpha), nil
}

// LowerQuantile returns the ⌊α(n+1)⌋-th smallest value, the lower-tail
// analogue used by the CV+ interval construction. Index 0 clamps to the
// smallest score.
func LowerQuantile(scores []float64, alpha float64) (float64, error) {
	n := len(scores)
	if n == 0 {
		return 0, fmt.Errorf("conformal: empty score set")
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("conformal: alpha must be in (0,1), got %v", alpha)
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	k := int(math.Floor(alpha * float64(n+1)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], nil
}

// Interval is a prediction interval [Lo, Hi]. Plain data, safe to copy and
// to read concurrently. In this repository intervals are in normalised
// selectivity units ([0, 1]) unless explicitly converted to cardinalities
// (row counts) with cardpi.CardinalityInterval.
type Interval struct {
	// Lo and Hi are the closed endpoints, in the units of the score that
	// calibrated them (normalised selectivity throughout this repository).
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether y falls inside the closed interval.
func (iv Interval) Contains(y float64) bool { return y >= iv.Lo && y <= iv.Hi }

// Clip restricts the interval to [lo, hi] — the paper clips cardinality
// intervals to [0, N], the minimum and maximum possible cardinalities — and
// normalises malformed endpoints instead of propagating them: a NaN endpoint
// widens conservatively to the corresponding domain bound (NaN carries no
// information, so the only safe reading is "anywhere in the domain"), and
// inverted finite bounds (Lo > Hi, e.g. from a diverged quantile pair) are
// swapped. The result is always finite and ordered with lo <= Lo <= Hi <= hi.
func (iv Interval) Clip(lo, hi float64) Interval {
	out := iv
	if math.IsNaN(out.Lo) {
		out.Lo = lo
	}
	if math.IsNaN(out.Hi) {
		out.Hi = hi
	}
	if out.Lo > out.Hi {
		out.Lo, out.Hi = out.Hi, out.Lo
	}
	if out.Lo < lo {
		out.Lo = lo
	}
	if out.Lo > hi {
		out.Lo = hi
	}
	if out.Hi > hi {
		out.Hi = hi
	}
	if out.Hi < lo {
		out.Hi = lo
	}
	return out
}
