// Package estimator defines the common interface all cardinality estimators
// in this repository implement — learned (MSCN, LW-NN, Naru) and traditional
// (histogram, sampling) — together with the shared query featurisation and
// the log-selectivity label transform the supervised models train on.
package estimator

import (
	"math"

	"cardpi/internal/dataset"
	"cardpi/internal/par"
	"cardpi/internal/workload"
)

// Estimator produces a normalised selectivity estimate in [0, 1] for a
// query. The prediction-interval wrappers treat estimators as black boxes,
// which is the paper's central design requirement.
type Estimator interface {
	Name() string
	EstimateSelectivity(q workload.Query) float64
}

// Func adapts a closure to the Estimator interface.
type Func struct {
	N string
	F func(q workload.Query) float64
}

// Name implements Estimator.
func (f Func) Name() string { return f.N }

// EstimateSelectivity implements Estimator.
func (f Func) EstimateSelectivity(q workload.Query) float64 { return f.F(q) }

// BatchEstimator is implemented by estimators with a native batched
// inference path. EstimateSelectivityBatch fills out[i] with the estimate
// for qs[i] (len(out) must equal len(qs)); results are bit-identical to
// calling EstimateSelectivity per query. Implementations must be safe for
// concurrent batch calls — the batched PI wrappers share one estimator
// across server requests.
type BatchEstimator interface {
	Estimator
	EstimateSelectivityBatch(qs []workload.Query, out []float64)
}

// fallbackMinBlock is the smallest per-worker row block for the generic
// per-query fallback loop: the cheap estimators it covers (histogram,
// sampling) answer a query in microseconds, so blocks below this size would
// pay more in fan-out than they recover in parallelism.
const fallbackMinBlock = 32

// EstimateBatch fills out (length len(qs)) with m's selectivity estimates,
// through the native batch path when m implements BatchEstimator and a
// per-query loop sharded in contiguous row blocks over the batch worker
// pool (par.RunBlocks) otherwise; either way out[i] is bit-identical to
// m.EstimateSelectivity(qs[i]) for any worker count, because each row's
// estimate is computed exactly as in the sequential loop and written only by
// its block's owner.
func EstimateBatch(m Estimator, qs []workload.Query, out []float64) {
	if be, ok := m.(BatchEstimator); ok {
		be.EstimateSelectivityBatch(qs, out)
		return
	}
	par.RunBlocks(len(qs), fallbackMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = m.EstimateSelectivity(qs[i])
		}
		return nil
	})
}

// MinSel floors selectivities before taking logarithms; it corresponds to
// the paper's convention of replacing zero cardinalities with 1 (we use half
// a row to stay strictly positive for any table size up to 2e11).
const MinSel = 5e-12

// LogSel maps a selectivity to the log-space label the supervised models
// regress on.
func LogSel(sel float64) float64 {
	if sel < MinSel {
		sel = MinSel
	}
	return math.Log(sel)
}

// SelFromLog inverts LogSel and clamps the result to [0, 1]. Non-finite
// inputs (a diverged model) clamp to the boundary rather than propagating.
func SelFromLog(logSel float64) float64 {
	if math.IsNaN(logSel) {
		return 0
	}
	s := math.Exp(logSel)
	if s > 1 {
		return 1
	}
	if s < 0 {
		return 0
	}
	return s
}

// Clamp01 clamps a selectivity into [0, 1]; NaN clamps to 0.
func Clamp01(s float64) float64 {
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// QError returns the q-error between an estimate and the truth, both in
// cardinality (or selectivity — the metric is scale-free). Zero values are
// floored to a minimal positive value per the paper's convention.
func QError(est, truth float64) float64 {
	const eps = 1e-12
	if est < eps {
		est = eps
	}
	if truth < eps {
		truth = eps
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}

// Featurizer maps single-table queries over one table to fixed-length
// vectors: per column [hasPredicate, isEquality, normalisedLo, normalisedHi].
// Columns without predicates encode the full range [0, 1]. This is the flat
// featurisation used by LW-NN's learned component and the difficulty model
// g(X) of locally weighted conformal prediction.
type Featurizer struct {
	table *dataset.Table
}

// NewFeaturizer builds a featurizer bound to a table.
func NewFeaturizer(t *dataset.Table) *Featurizer {
	return &Featurizer{table: t}
}

// Dim returns the feature vector length.
func (f *Featurizer) Dim() int { return 4 * f.table.NumCols() }

// Featurize encodes a single-table query. Predicates on unknown columns are
// ignored (they cannot occur for queries generated over the same table).
func (f *Featurizer) Featurize(q workload.Query) []float64 {
	return f.AppendFeaturize(q, make([]float64, 0, f.Dim()))
}

// AppendFeaturize appends the Dim() feature values for q to dst and returns
// the extended slice — the allocation-free form of Featurize for callers
// that featurize whole batches into one pooled flat block. The appended
// values are bit-identical to Featurize(q); when dst has spare capacity no
// heap allocation occurs. Safe for concurrent use (the featurizer itself is
// immutable after construction).
func (f *Featurizer) AppendFeaturize(q workload.Query, dst []float64) []float64 {
	start := len(dst)
	for range f.table.Cols {
		dst = append(dst, 0, 0, 0, 1) // default: no predicate, full range
	}
	out := dst[start:]
	for _, p := range q.Preds {
		ci, ok := f.table.ColumnIndex(p.Col)
		if !ok {
			continue
		}
		c := f.table.Cols[ci]
		base := 4 * ci
		out[base] = 1
		lo, hi := p.Lo, p.Hi
		if p.Op == dataset.OpEq {
			out[base+1] = 1
			hi = p.Lo
		}
		out[base+2] = normalise(lo, c)
		out[base+3] = normalise(hi, c)
	}
	return dst
}

// JoinFeaturizer maps join queries over a star schema to fixed-length flat
// vectors: a participating-table indicator followed by the per-column
// encoding of every table's columns. Used by the difficulty model of
// locally weighted conformal prediction on multi-table workloads.
type JoinFeaturizer struct {
	schema *dataset.Schema
	tables []string
	offset map[string]int // feature offset of each table's column block
	dim    int
}

// NewJoinFeaturizer builds the featurizer for a schema.
func NewJoinFeaturizer(s *dataset.Schema) *JoinFeaturizer {
	jf := &JoinFeaturizer{schema: s, offset: make(map[string]int)}
	jf.tables = s.Tables()
	jf.dim = len(jf.tables)
	for _, name := range jf.tables {
		jf.offset[name] = jf.dim
		jf.dim += 4 * s.Table(name).NumCols()
	}
	return jf
}

// Dim returns the feature vector length.
func (jf *JoinFeaturizer) Dim() int { return jf.dim }

// Featurize encodes a join query (single-table queries encode as the center
// table alone).
func (jf *JoinFeaturizer) Featurize(q workload.Query) []float64 {
	return jf.AppendFeaturize(q, make([]float64, 0, jf.dim))
}

// AppendFeaturize appends the Dim() feature values for q to dst and returns
// the extended slice — the allocation-free form of Featurize. The appended
// values are bit-identical to Featurize(q); when dst has spare capacity no
// heap allocation occurs. Safe for concurrent use.
func (jf *JoinFeaturizer) AppendFeaturize(q workload.Query, dst []float64) []float64 {
	start := len(dst)
	dst = append(dst, make([]float64, jf.dim)...)
	out := dst[start:]
	// Default every column to the full range.
	for _, name := range jf.tables {
		t := jf.schema.Table(name)
		base := jf.offset[name]
		for i := 0; i < t.NumCols(); i++ {
			out[base+4*i+3] = 1
		}
	}
	mark := func(ti int) { out[ti] = 1 }
	encode := func(name string, preds []dataset.Predicate) {
		t := jf.schema.Table(name)
		base := jf.offset[name]
		for _, p := range preds {
			ci, ok := t.ColumnIndex(p.Col)
			if !ok {
				continue
			}
			c := t.Cols[ci]
			fb := base + 4*ci
			out[fb] = 1
			lo, hi := p.Lo, p.Hi
			if p.Op == dataset.OpEq {
				out[fb+1] = 1
				hi = p.Lo
			}
			out[fb+2] = normalise(lo, c)
			out[fb+3] = normalise(hi, c)
		}
	}
	for ti, name := range jf.tables {
		if name == jf.schema.Center.Name {
			mark(ti)
		}
	}
	if !q.IsJoin() {
		encode(jf.schema.Center.Name, q.Preds)
		return dst
	}
	for _, jt := range q.Join.Tables {
		for ti, name := range jf.tables {
			if name == jt {
				mark(ti)
			}
		}
	}
	for name, preds := range q.Join.Preds {
		encode(name, preds)
	}
	return dst
}

func normalise(v int64, c *dataset.Column) float64 {
	min := c.Min
	width := c.DomainWidth()
	if width <= 1 {
		return 0
	}
	x := float64(v-min) / float64(width-1)
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
