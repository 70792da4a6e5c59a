package cardpi

import (
	"context"
	"sync"

	"cardpi/internal/estimator"
	"cardpi/internal/par"
	"cardpi/internal/workload"
)

// BatchPI is the batched extension of PI, implemented by every wrapper in
// this package. IntervalBatch answers all queries in one call — the model's
// estimates run through its native batched inference path (one matrix-style
// forward pass per network layer instead of one per query) and the
// conformal step reuses presorted calibration state; both layers shard the
// batch in contiguous row blocks over the batch worker pool
// (par.SetBatchWorkers). Results are bit-identical to calling Interval per
// query for any worker count, in the same normalised selectivity units, and
// implementations are safe for concurrent IntervalBatch calls whenever the
// wrapped model is.
type BatchPI interface {
	PI
	// IntervalBatch returns one interval per query, aligned with qs.
	IntervalBatch(qs []workload.Query) ([]Interval, error)
}

// Minimum per-worker row blocks for the conformal post-passes. The trivial
// passes (apply a precomputed band, clip) cost nanoseconds per row, so only
// very large batches shard; per-row passes that featurise or walk a tree
// ensemble amortise the fan-out much earlier.
const (
	trivialMinBlock = 512
	featMinBlock    = 32
	ratioMinBlock   = 64
)

// IntervalBatch answers all queries with pi: through its native batch path
// when pi implements BatchPI, and otherwise by fanning one Interval per
// query over the bounded worker pool. Either way the result is aligned
// with qs and element-wise identical to sequential Interval calls; on
// failure the error of the lowest-indexed failing query is returned.
func IntervalBatch(pi PI, qs []workload.Query) ([]Interval, error) {
	ivs, _, err := intervalBatchEstCtx(context.Background(), pi, qs)
	return ivs, err
}

// estimatingPI is implemented by the wrappers whose batch kernel evaluates
// one point-estimate model on every row: intervalBatchEst returns those
// estimates next to the intervals, each bit-identical to
// estimateModel().EstimateSelectivity on its row, so a caller that also
// needs the point estimate does not run the model again. CQR (two quantile
// models and no point estimate) and JackknifeCV (whose intervals belong to
// the fold-model family) report none.
type estimatingPI interface {
	estimateModel() Estimator
	intervalBatchEst(qs []workload.Query) ([]Interval, []float64, error)
}

// intervalBatchEstCtx answers all queries with pi under ctx and also
// returns the point estimates pi's kernel computed, when pi reports them (an
// estimatingPI, bare or under Instrumented); the estimates are nil
// otherwise. A native batch path checks ctx once, before the kernel (batch
// kernels are pure CPU); a non-batch pi runs one IntervalCtx per query over
// the bounded worker pool, so context-aware stages observe the deadline row
// by row. An Instrumented pi forwards ctx to what it wraps.
func intervalBatchEstCtx(ctx context.Context, pi PI, qs []workload.Query) ([]Interval, []float64, error) {
	if in, ok := pi.(*Instrumented); ok {
		return in.intervalBatchEstCtx(ctx, qs)
	}
	if ep, ok := pi.(estimatingPI); ok {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return ep.intervalBatchEst(qs)
	}
	if bp, ok := pi.(BatchPI); ok {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		ivs, err := bp.IntervalBatch(qs)
		return ivs, nil, err
	}
	out := make([]Interval, len(qs))
	err := par.ForEach(len(qs), func(i int) error {
		iv, err := IntervalCtx(ctx, pi, qs[i])
		if err != nil {
			return err
		}
		out[i] = iv
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, nil, nil
}

// estimateModelOf returns the model whose estimates intervalBatchEstCtx
// reports for pi, or nil when it reports none.
func estimateModelOf(pi PI) Estimator {
	switch p := pi.(type) {
	case *Instrumented:
		return estimateModelOf(p.pi)
	case estimatingPI:
		return p.estimateModel()
	}
	return nil
}

// estimateAll runs the model's batched estimation path over qs and returns
// the estimates (bit-identical to per-query EstimateSelectivity).
func estimateAll(m Estimator, qs []workload.Query) []float64 {
	preds := make([]float64, len(qs))
	estimator.EstimateBatch(m, qs, preds)
	return preds
}

// featScratch holds the reusable featurisation buffers: one flat row-major
// block plus the per-row views handed to the conformal and difficulty
// kernels. Buffers grow to the largest batch seen; a scratch is owned by
// one IntervalBatch or scalar Interval call at a time (featPool).
type featScratch struct {
	flat []float64
	rows [][]float64
}

// featPool recycles featurisation scratch sets across calls and wrappers,
// so batch allocations stay O(1) in the batch size and the scalar path
// allocates no feature vector.
var featPool = sync.Pool{New: func() any { return new(featScratch) }}

// featurize fills s.rows[i] with the feature vector of qs[i] and returns
// the row views. Every row lands in s.flat — the pooled flat block, no
// per-query allocation — and rows are filled by contiguous row-block
// workers, bit-identical to calling the featurizer sequentially.
func (s *featScratch) featurize(feats FeatureFunc, qs []workload.Query) [][]float64 {
	n := len(qs)
	if cap(s.rows) < n {
		s.rows = make([][]float64, n)
	}
	s.rows = s.rows[:n]
	if n == 0 {
		return s.rows
	}
	// Probe row 0 for the feature width, then give every row its own
	// full-capacity sub-block of the flat buffer: a width-stable featurizer
	// appends in place (zero allocations), while one that ever exceeds its
	// block falls back to append's reallocation — still correct, row by row.
	probe := feats(qs[0], s.flat[:0])
	dim := len(probe)
	if dim == 0 {
		for i := range s.rows {
			s.rows[i] = nil
		}
		return s.rows
	}
	if cap(s.flat) < n*dim {
		s.flat = make([]float64, n*dim)
	}
	s.flat = s.flat[:n*dim]
	par.RunBlocks(n, featMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			s.rows[i] = feats(qs[i], s.flat[i*dim:i*dim:(i+1)*dim])
		}
		return nil
	})
	return s.rows
}

// IntervalBatch implements BatchPI: the model's estimates are produced in
// one batched pass and the constant-width conformal band is applied per
// estimate, sharded in row blocks. Bit-identical to per-query Interval for
// any worker count.
func (s *SplitCP) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	ivs, _, err := s.intervalBatchEst(qs)
	return ivs, err
}

// intervalBatchEst is IntervalBatch's kernel; it also returns the model's
// batched estimates (estimatingPI).
func (s *SplitCP) intervalBatchEst(qs []workload.Query) ([]Interval, []float64, error) {
	preds := estimateAll(s.model, qs)
	out := make([]Interval, len(qs))
	par.RunBlocks(len(qs), trivialMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = clip(s.cp.Interval(preds[i]))
		}
		return nil
	})
	return out, preds, nil
}

// IntervalBatch implements BatchPI: model estimates, featurisation, and the
// gradient-boosted difficulty predictions all run batched and row-block
// sharded, then the scaled band is applied per query. Bit-identical to
// per-query Interval for any worker count.
func (l *LocallyWeighted) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	ivs, _, err := l.intervalBatchEst(qs)
	return ivs, err
}

// intervalBatchEst is IntervalBatch's kernel; it also returns the model's
// batched estimates (estimatingPI).
func (l *LocallyWeighted) intervalBatchEst(qs []workload.Query) ([]Interval, []float64, error) {
	preds := estimateAll(l.model, qs)
	fs := featPool.Get().(*featScratch)
	defer featPool.Put(fs)
	X := fs.featurize(l.feats, qs)
	u := make([]float64, len(qs))
	l.g.PredictBatch(X, u)
	out := make([]Interval, len(qs))
	par.RunBlocks(len(qs), trivialMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			d := u[i]
			if d < 0 {
				d = 0
			}
			out[i] = clip(l.lw.Interval(preds[i], d+l.beta))
		}
		return nil
	})
	return out, preds, nil
}

// IntervalBatch implements BatchPI: both quantile models run their batched
// inference paths once over the whole query set and the conformal margin is
// applied in sharded row blocks. Bit-identical to per-query Interval for
// any worker count.
func (c *CQR) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	loP := estimateAll(c.lo, qs)
	hiP := estimateAll(c.hi, qs)
	out := make([]Interval, len(qs))
	par.RunBlocks(len(qs), trivialMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = clip(c.cqr.Interval(loP[i], hiP[i]))
		}
		return nil
	})
	return out, nil
}

// IntervalBatch implements BatchPI: model estimates and featurisation run
// batched, and the per-query local thresholds come from the
// calibration-time neighbour index (k-d tree, bounded-heap scan or
// K-th-distance selection, itself row-block sharded) instead of a full
// calibration-set sort per query. Bit-identical to per-query Interval for
// any worker count.
func (l *Localized) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	ivs, _, err := l.intervalBatchEst(qs)
	return ivs, err
}

// intervalBatchEst is IntervalBatch's kernel; it also returns the model's
// batched estimates (estimatingPI).
func (l *Localized) intervalBatchEst(qs []workload.Query) ([]Interval, []float64, error) {
	fs := featPool.Get().(*featScratch)
	defer featPool.Put(fs)
	feats := fs.featurize(l.feats, qs)
	preds := estimateAll(l.model, qs)
	out := make([]Interval, len(qs))
	if err := l.lcp.Intervals(feats, preds, out); err != nil {
		return nil, nil, err
	}
	for i := range out {
		out[i] = clip(out[i])
	}
	return out, preds, nil
}

// IntervalBatch implements BatchPI: model estimates run batched; each
// query's weighted threshold is an O(log n) search over the presorted
// calibration scores, computed in row blocks whose workers reuse one
// feature buffer each. Bit-identical to per-query Interval for any worker
// count, including the trivial [0, 1] result when a threshold is infinite.
func (w *Weighted) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	ivs, _, err := w.intervalBatchEst(qs)
	return ivs, err
}

// intervalBatchEst is IntervalBatch's kernel; it also returns the model's
// batched estimates (estimatingPI).
func (w *Weighted) intervalBatchEst(qs []workload.Query) ([]Interval, []float64, error) {
	preds := estimateAll(w.model, qs)
	out := make([]Interval, len(qs))
	err := par.RunBlocks(len(qs), ratioMinBlock, func(lo, hi int) error {
		var buf []float64
		for i := lo; i < hi; i++ {
			buf = w.feats(qs[i], buf[:0])
			iv, err := w.wcp.Interval(preds[i], w.likelihoodRatioFrom(buf))
			if err != nil {
				return err
			}
			out[i] = clip(iv)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, preds, nil
}

// IntervalBatch implements BatchPI: model estimates run batched and each
// query's group threshold is a map lookup, sharded in row blocks.
// Bit-identical to per-query Interval for any worker count.
func (m *Mondrian) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	ivs, _, err := m.intervalBatchEst(qs)
	return ivs, err
}

// intervalBatchEst is IntervalBatch's kernel; it also returns the model's
// batched estimates (estimatingPI).
func (m *Mondrian) intervalBatchEst(qs []workload.Query) ([]Interval, []float64, error) {
	preds := estimateAll(m.model, qs)
	out := make([]Interval, len(qs))
	par.RunBlocks(len(qs), ratioMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = clip(m.m.Interval(m.group(qs[i]), preds[i]))
		}
		return nil
	})
	return out, preds, nil
}

// IntervalBatch implements BatchPI: the full model's estimates run batched
// and the Algorithm-1 band is applied per estimate in sharded row blocks.
// Bit-identical to per-query Interval for any worker count.
func (j *JackknifeCV) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	preds := estimateAll(j.full, qs)
	out := make([]Interval, len(qs))
	par.RunBlocks(len(qs), trivialMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = clip(j.jk.IntervalSimple(preds[i]))
		}
		return nil
	})
	return out, nil
}
