// Package sampling implements a uniform-sample cardinality estimator, the
// classic baseline: a Bernoulli sample of the table is materialised once and
// each query is answered by its selectivity in the sample. It also serves as
// a feature source for the LW-NN model ("sample bits").
package sampling

import (
	"fmt"
	"math"
	"math/rand"

	"cardpi/internal/dataset"
	"cardpi/internal/workload"
)

// Estimator answers selectivity queries from a fixed uniform row sample.
type Estimator struct {
	table *dataset.Table
	rows  []int
}

// New draws a deterministic uniform sample of size min(size, rows).
func New(t *dataset.Table, size int, seed int64) (*Estimator, error) {
	if size <= 0 {
		return nil, fmt.Errorf("sampling: size must be positive, got %d", size)
	}
	n := t.NumRows()
	if size > n {
		size = n
	}
	r := rand.New(rand.NewSource(seed))
	rows := r.Perm(n)[:size]
	return &Estimator{table: t, rows: rows}, nil
}

// Name implements estimator.Estimator.
func (e *Estimator) Name() string { return "sampling" }

// SampleSize returns the number of sampled rows.
func (e *Estimator) SampleSize() int { return len(e.rows) }

// EstimateSelectivity implements estimator.Estimator. Join queries are not
// supported by the row sampler and report selectivity 0.
func (e *Estimator) EstimateSelectivity(q workload.Query) float64 {
	if q.IsJoin() {
		return 0
	}
	return e.SelectivityOf(q.Preds)
}

// SelectivityOf returns the fraction of sampled rows matching the conjuncts.
// A predicate on an unknown column yields 0.
func (e *Estimator) SelectivityOf(preds []dataset.Predicate) float64 {
	var buf [8][]int64
	cols := buf[:0]
	for _, p := range preds {
		c := e.table.Column(p.Col)
		if c == nil {
			return 0
		}
		cols = append(cols, c.Values)
	}
	match := 0
rows:
	for _, ri := range e.rows {
		for j, p := range preds {
			if !p.Matches(cols[j][ri]) {
				continue rows
			}
		}
		match++
	}
	return float64(match) / float64(len(e.rows))
}

// Matches returns, for each predicate list, how many sampled rows match —
// useful for variance diagnostics in the AQP-style bounds comparison.
func (e *Estimator) Matches(preds []dataset.Predicate) int {
	return int(e.SelectivityOf(preds) * float64(len(e.rows)))
}

// ConfidenceInterval returns the classic AQP-style normal-approximation
// confidence interval for a query's selectivity: p̂ ± z·sqrt(p̂(1−p̂)/n),
// clipped to [0, 1]. This is the traditional uncertainty quantification the
// paper contrasts with conformal prediction intervals: it is cheap and
// asymptotically justified, but it quantifies only the sampling error of
// this estimator (not arbitrary model error), and the normal approximation
// collapses to a zero-width interval when no sampled row matches — exactly
// the low-selectivity regime that matters for query optimization.
func (e *Estimator) ConfidenceInterval(q workload.Query, z float64) (lo, hi float64) {
	p := e.EstimateSelectivity(q)
	n := float64(len(e.rows))
	half := z * math.Sqrt(p*(1-p)/n)
	lo, hi = p-half, p+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
