// Package cardpi provides prediction intervals for learned cardinality
// estimation: wrappers that take any black-box selectivity estimator and a
// calibration workload and produce per-query intervals
// [low, high] guaranteed to contain the true selectivity with a
// user-specified probability 1−α.
//
// Four wrappers are provided, matching the four algorithms the paper
// ("Prediction Intervals for Learned Cardinality Estimation: An Experimental
// Evaluation", ICDE 2022) identifies as practical and high quality:
//
//   - WrapSplitCP — split conformal prediction: one calibrated quantile,
//     constant-width intervals, near-zero inference cost.
//   - WrapLocallyWeighted — locally weighted split conformal: a
//     gradient-boosted difficulty model U(X) makes widths adaptive.
//   - WrapCQR — conformalized quantile regression over two pinball-loss
//     quantile models: the tightest intervals, at the cost of modifying the
//     model's loss function.
//   - WrapJackknifeCV — Jackknife+ with K-fold cross validation: K fold
//     models provide residuals with finite-sample 1−2α guarantees.
//
// All intervals are expressed in normalised selectivity and clipped to
// [0, 1], mirroring the paper's clipping of cardinalities to [0, N].
package cardpi

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cardpi/internal/conformal"
	"cardpi/internal/estimator"
	"cardpi/internal/gbm"
	"cardpi/internal/par"
	"cardpi/internal/workload"
)

// Interval is a selectivity prediction interval: both endpoints are
// normalised selectivities in [0, 1]. Convert to cardinality (row count)
// units with CardinalityInterval.
type Interval = conformal.Interval

// Estimator is any black-box selectivity estimator: EstimateSelectivity
// returns a normalised selectivity in [0, 1] (the estimated cardinality
// divided by the table or join size). Estimators must be safe for
// concurrent EstimateSelectivity calls — every model in this repository is.
type Estimator = estimator.Estimator

// PI produces a prediction interval for each query, in normalised
// selectivity units. Every wrapper constructed by this package is safe for
// concurrent Interval calls: the static wrappers (SplitCP, LocallyWeighted,
// CQR, Localized, Weighted, Mondrian, JackknifeCV) are immutable after
// calibration, and Adaptive guards its mutable state with a mutex.
type PI interface {
	// Name identifies the method and model, e.g. "s-cp/spn".
	Name() string
	// Interval returns the query's prediction interval in normalised
	// selectivity units ([0, 1] after clipping).
	Interval(q workload.Query) (Interval, error)
}

// ContextPI is the context-aware extension of PI, implemented by wrappers
// that honour cancellation and deadlines (Resilient, Instrumented, and any
// faultinject decorator). IntervalCtx must return promptly once ctx is done;
// interval units are unchanged (normalised selectivity in [0, 1]). Plain PIs
// remain fully supported — call sites use the IntervalCtx package function,
// which shims ctx for implementations that predate this interface.
type ContextPI interface {
	PI
	// IntervalCtx is Interval under a context: it returns ctx.Err() (and a
	// zero interval) when the context is cancelled or past its deadline.
	IntervalCtx(ctx context.Context, q workload.Query) (Interval, error)
}

// IntervalCtx invokes pi with the context when the implementation supports
// it, and otherwise falls back to a pre-call cancellation check followed by
// the plain Interval — the compatibility shim that lets deadline-aware
// callers (the serve path, EvaluateCtx) consume every existing PI unchanged.
// The shim adds no heap allocations. Safe for concurrent use whenever pi is.
func IntervalCtx(ctx context.Context, pi PI, q workload.Query) (Interval, error) {
	if cp, ok := pi.(ContextPI); ok {
		return cp.IntervalCtx(ctx, q)
	}
	if err := ctx.Err(); err != nil {
		return Interval{}, err
	}
	return pi.Interval(q)
}

// clip bounds an interval to the feasible selectivity range.
func clip(iv Interval) Interval { return iv.Clip(0, 1) }

// SplitCP wraps a model with split conformal prediction.
type SplitCP struct {
	model Estimator
	cp    *conformal.SplitCP
}

// WrapSplitCP calibrates split conformal prediction (Algorithm 2) over the
// calibration workload using the given scoring function.
func WrapSplitCP(model Estimator, cal *workload.Workload, score conformal.Score, alpha float64) (*SplitCP, error) {
	if cal == nil || len(cal.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty calibration workload")
	}
	preds := make([]float64, len(cal.Queries))
	truths := make([]float64, len(cal.Queries))
	for i, lq := range cal.Queries {
		preds[i] = model.EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
	}
	cp, err := conformal.CalibrateSplit(preds, truths, score, alpha)
	if err != nil {
		return nil, err
	}
	return &SplitCP{model: model, cp: cp}, nil
}

// estimateModel implements estimatingPI.
func (s *SplitCP) estimateModel() Estimator { return s.model }

// Name implements PI.
func (s *SplitCP) Name() string { return "s-cp/" + s.model.Name() }

// Interval implements PI.
func (s *SplitCP) Interval(q workload.Query) (Interval, error) {
	return clip(s.cp.Interval(s.model.EstimateSelectivity(q))), nil
}

// Delta exposes the calibrated threshold (useful for optimizer injection).
func (s *SplitCP) Delta() float64 { return s.cp.Delta }

// FeatureFunc appends the feature vector that the difficulty model g(X) of
// locally weighted conformal prediction (and the locality of localized and
// weighted conformal prediction) consumes for q to dst, and returns the
// extended slice, exactly as append does. Implementations must be safe for
// concurrent calls: the batch path invokes them from multiple row-block
// workers, each with its own destination block.
type FeatureFunc func(q workload.Query, dst []float64) []float64

// LocallyWeighted wraps a model with locally weighted split conformal
// prediction; difficulty U(X) is estimated by gradient-boosted trees fitted
// to the model's absolute residuals on the training workload.
type LocallyWeighted struct {
	model Estimator
	lw    *conformal.LocallyWeighted
	g     *gbm.Regressor
	feats FeatureFunc
	// beta offsets the difficulty estimate: U(X) = max(g(X), 0) + beta.
	// Without it, g(X) ~ 0 on easy-looking queries makes the scaled scores
	// of calibration points with nonzero residuals explode, which inflates
	// delta and destroys adaptivity. beta is set to a small fraction of the
	// mean training residual, the usual stabilisation for normalised
	// non-conformity scores.
	beta float64
}

// WrapLocallyWeighted fits the difficulty model on resWL (typically the
// model's own training workload, per Algorithm 3) and calibrates on cal.
func WrapLocallyWeighted(model Estimator, resWL, cal *workload.Workload, feats FeatureFunc,
	score conformal.Score, alpha float64, gcfg gbm.Config) (*LocallyWeighted, error) {
	if resWL == nil || len(resWL.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty residual-fitting workload")
	}
	if cal == nil || len(cal.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty calibration workload")
	}
	// Fit g(X) ~ score(f(X), y) on the residual workload.
	X := make([][]float64, len(resWL.Queries))
	y := make([]float64, len(resWL.Queries))
	var meanRes float64
	for i, lq := range resWL.Queries {
		X[i] = feats(lq.Query, nil)
		y[i] = score.Of(model.EstimateSelectivity(lq.Query), lq.Sel)
		meanRes += y[i]
	}
	meanRes /= float64(len(resWL.Queries))
	beta := 0.05 * meanRes
	if beta < 1e-9 {
		beta = 1e-9
	}
	g, err := gbm.Fit(X, y, gcfg)
	if err != nil {
		return nil, err
	}
	preds := make([]float64, len(cal.Queries))
	truths := make([]float64, len(cal.Queries))
	u := make([]float64, len(cal.Queries))
	for i, lq := range cal.Queries {
		preds[i] = model.EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
		u[i] = difficulty(g, feats(lq.Query, nil), beta)
	}
	lw, err := conformal.CalibrateLocallyWeighted(preds, truths, u, score, alpha)
	if err != nil {
		return nil, err
	}
	return &LocallyWeighted{model: model, lw: lw, g: g, feats: feats, beta: beta}, nil
}

// difficulty combines g's prediction with the stabilising offset:
// U(X) = max(g(X), 0) + beta.
func difficulty(g *gbm.Regressor, x []float64, beta float64) float64 {
	d := g.Predict(x)
	if d < 0 {
		d = 0
	}
	return d + beta
}

// estimateModel implements estimatingPI.
func (l *LocallyWeighted) estimateModel() Estimator { return l.model }

// Name implements PI.
func (l *LocallyWeighted) Name() string { return "lw-s-cp/" + l.model.Name() }

// Interval implements PI. The features land in a pooled buffer, so the
// scalar path allocates no feature vector.
func (l *LocallyWeighted) Interval(q workload.Query) (Interval, error) {
	fs := featPool.Get().(*featScratch)
	defer featPool.Put(fs)
	fs.flat = l.feats(q, fs.flat[:0])
	u := difficulty(l.g, fs.flat, l.beta)
	return clip(l.lw.Interval(l.model.EstimateSelectivity(q), u)), nil
}

// CQR wraps two quantile regressors with conformalized quantile regression.
type CQR struct {
	lo, hi Estimator
	cqr    *conformal.CQR
}

// WrapCQR calibrates CQR (Algorithm 4) over the calibration workload. lo and
// hi are the τ=α/2 and τ=1−α/2 quantile models (same architecture as the
// base model, pinball loss).
func WrapCQR(lo, hi Estimator, cal *workload.Workload, alpha float64) (*CQR, error) {
	if cal == nil || len(cal.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty calibration workload")
	}
	loP := make([]float64, len(cal.Queries))
	hiP := make([]float64, len(cal.Queries))
	truths := make([]float64, len(cal.Queries))
	for i, lq := range cal.Queries {
		loP[i] = lo.EstimateSelectivity(lq.Query)
		hiP[i] = hi.EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
	}
	cqr, err := conformal.CalibrateCQR(loP, hiP, truths, alpha)
	if err != nil {
		return nil, err
	}
	return &CQR{lo: lo, hi: hi, cqr: cqr}, nil
}

// Name implements PI.
func (c *CQR) Name() string { return "cqr/" + c.lo.Name() }

// Interval implements PI.
func (c *CQR) Interval(q workload.Query) (Interval, error) {
	return clip(c.cqr.Interval(c.lo.EstimateSelectivity(q), c.hi.EstimateSelectivity(q))), nil
}

// Localized wraps a model with localized conformal prediction (the
// extension the paper's Section V-D highlights): each query's threshold is
// calibrated from the nearest calibration queries in feature space, giving
// tighter intervals inside well-represented workload regions.
type Localized struct {
	model Estimator
	lcp   *conformal.Localized
	feats FeatureFunc
}

// WrapLocalized calibrates localized conformal prediction with a
// k-nearest-neighbour locality over the feature space.
func WrapLocalized(model Estimator, cal *workload.Workload, feats FeatureFunc,
	score conformal.Score, alpha float64, k int) (*Localized, error) {
	if cal == nil || len(cal.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty calibration workload")
	}
	fv := make([][]float64, len(cal.Queries))
	preds := make([]float64, len(cal.Queries))
	truths := make([]float64, len(cal.Queries))
	for i, lq := range cal.Queries {
		fv[i] = feats(lq.Query, nil)
		preds[i] = model.EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
	}
	lcp, err := conformal.CalibrateLocalized(fv, preds, truths, score, alpha, k)
	if err != nil {
		return nil, err
	}
	return &Localized{model: model, lcp: lcp, feats: feats}, nil
}

// estimateModel implements estimatingPI.
func (l *Localized) estimateModel() Estimator { return l.model }

// Name implements PI.
func (l *Localized) Name() string { return "lcp/" + l.model.Name() }

// Interval implements PI. It is IntervalBatch's kernel applied to one row:
// the features land in a pooled buffer and the neighbours come from the
// calibration-time index, so the result is bit-identical to the query's
// IntervalBatch row.
func (l *Localized) Interval(q workload.Query) (Interval, error) {
	fs := featPool.Get().(*featScratch)
	defer featPool.Put(fs)
	fs.flat = l.feats(q, fs.flat[:0])
	iv, err := l.lcp.Interval(fs.flat, l.model.EstimateSelectivity(q))
	if err != nil {
		return Interval{}, err
	}
	return clip(iv), nil
}

// Weighted wraps a model with weighted split conformal prediction for
// covariate shift (Tibshirani et al. 2019): when the live workload's query
// distribution differs from calibration, plain conformal loses coverage
// (the paper's Figure 11); reweighting calibration scores by an estimated
// likelihood ratio restores it. The ratio is estimated with a
// gradient-boosted domain classifier over the query features, trained to
// distinguish calibration queries from an (unlabeled) sample of the shifted
// workload.
type Weighted struct {
	model  Estimator
	wcp    *conformal.WeightedSplitCP
	ratio  *gbm.Regressor
	feats  FeatureFunc
	nCal   float64
	nShift float64
}

// WrapWeighted fits the domain classifier on cal (label 0) vs shiftSample
// (label 1, truths unused) and calibrates the weighted conformal predictor.
func WrapWeighted(model Estimator, cal, shiftSample *workload.Workload, feats FeatureFunc,
	score conformal.Score, alpha float64, gcfg gbm.Config) (*Weighted, error) {
	if cal == nil || len(cal.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty calibration workload")
	}
	if shiftSample == nil || len(shiftSample.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty shifted-workload sample")
	}
	var X [][]float64
	var y []float64
	for _, lq := range cal.Queries {
		X = append(X, feats(lq.Query, nil))
		y = append(y, 0)
	}
	for _, lq := range shiftSample.Queries {
		X = append(X, feats(lq.Query, nil))
		y = append(y, 1)
	}
	ratio, err := gbm.Fit(X, y, gcfg)
	if err != nil {
		return nil, err
	}
	w := &Weighted{
		model: model, ratio: ratio, feats: feats,
		nCal: float64(len(cal.Queries)), nShift: float64(len(shiftSample.Queries)),
	}
	preds := make([]float64, len(cal.Queries))
	truths := make([]float64, len(cal.Queries))
	weights := make([]float64, len(cal.Queries))
	for i, lq := range cal.Queries {
		preds[i] = model.EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
		// X[i] is this calibration query's feature vector (the classifier's
		// training rows start with cal); reuse it instead of featurising the
		// query a second time.
		weights[i] = w.likelihoodRatioFrom(X[i])
	}
	wcp, err := conformal.CalibrateWeightedSplit(preds, truths, weights, score, alpha)
	if err != nil {
		return nil, err
	}
	w.wcp = wcp
	return w, nil
}

// likelihoodRatioFrom converts the domain classifier's output p(x) =
// P(shifted) into the density ratio dP_shift/dP_cal, correcting for the
// class sizes and clamping to keep one misclassified point from dominating
// the weights. It takes the feature vector, so calibration reuses the
// classifier's own training rows instead of featurising a query twice.
func (w *Weighted) likelihoodRatioFrom(x []float64) float64 {
	p := w.ratio.Predict(x)
	const eps = 0.01
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return (p / (1 - p)) * (w.nCal / w.nShift)
}

// estimateModel implements estimatingPI.
func (w *Weighted) estimateModel() Estimator { return w.model }

// Name implements PI.
func (w *Weighted) Name() string { return "weighted-cp/" + w.model.Name() }

// Interval implements PI. Infinite thresholds (calibration uninformative for
// this query under the shift) clip to the trivial [0, 1] interval. The
// features land in a pooled buffer, so the scalar path allocates no feature
// vector.
func (w *Weighted) Interval(q workload.Query) (Interval, error) {
	fs := featPool.Get().(*featScratch)
	defer featPool.Put(fs)
	fs.flat = w.feats(q, fs.flat[:0])
	iv, err := w.wcp.Interval(w.model.EstimateSelectivity(q), w.likelihoodRatioFrom(fs.flat))
	if err != nil {
		return Interval{}, err
	}
	return clip(iv), nil
}

// GroupFunc assigns a query to a calibration group — for example its join
// template, predicate count, or target table.
type GroupFunc func(q workload.Query) string

// TemplateGroup groups join queries by their sorted table list (the join
// template) and all single-table queries together.
func TemplateGroup(q workload.Query) string {
	if !q.IsJoin() {
		return "single"
	}
	tables := append([]string(nil), q.Join.Tables...)
	sort.Strings(tables)
	return strings.Join(tables, ",")
}

// Mondrian wraps a model with group-conditional (Mondrian) split conformal
// prediction: one threshold per calibration group, giving per-group
// coverage. The natural grouping for cardinality estimation is the join
// template, whose error scales differ by orders of magnitude.
type Mondrian struct {
	model Estimator
	m     *conformal.Mondrian
	group GroupFunc
}

// WrapMondrian calibrates per-group split conformal prediction. Groups with
// fewer than minGroup calibration points fall back to the global threshold.
func WrapMondrian(model Estimator, cal *workload.Workload, group GroupFunc,
	score conformal.Score, alpha float64, minGroup int) (*Mondrian, error) {
	if cal == nil || len(cal.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty calibration workload")
	}
	groups := make([]string, len(cal.Queries))
	preds := make([]float64, len(cal.Queries))
	truths := make([]float64, len(cal.Queries))
	for i, lq := range cal.Queries {
		groups[i] = group(lq.Query)
		preds[i] = model.EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
	}
	m, err := conformal.CalibrateMondrian(groups, preds, truths, score, alpha, minGroup)
	if err != nil {
		return nil, err
	}
	return &Mondrian{model: model, m: m, group: group}, nil
}

// estimateModel implements estimatingPI.
func (m *Mondrian) estimateModel() Estimator { return m.model }

// Name implements PI.
func (m *Mondrian) Name() string { return "mondrian/" + m.model.Name() }

// Interval implements PI.
func (m *Mondrian) Interval(q workload.Query) (Interval, error) {
	return clip(m.m.Interval(m.group(q), m.model.EstimateSelectivity(q))), nil
}

// TrainFunc trains a model on a training workload; used by Jackknife+ to
// build the K leave-fold-out models.
type TrainFunc func(train *workload.Workload, seed int64) (Estimator, error)

// JackknifeCV wraps a trainable model family with Jackknife+ with K-fold
// cross validation.
type JackknifeCV struct {
	full  Estimator
	folds []Estimator
	jk    *conformal.JackknifeCV
}

// WrapJackknifeCV splits wl into K folds, trains one model per left-out
// fold plus the full-data model, computes the out-of-fold residuals, and
// calibrates the Jackknife+ thresholds.
func WrapJackknifeCV(train TrainFunc, wl *workload.Workload, k int, alpha float64, seed int64) (*JackknifeCV, error) {
	if wl == nil || len(wl.Queries) < k {
		return nil, fmt.Errorf("cardpi: workload smaller than K=%d", k)
	}
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(len(wl.Queries))
	foldOf := conformal.FoldAssignments(perm, k)

	// The K fold models and the full model are independent; train them on a
	// bounded worker pool (item k is the full model). Each training is seeded
	// per fold, so the result is identical to the sequential order no matter
	// how items land on workers, and a K of 50 no longer launches 51
	// simultaneous trainings on a 4-core box.
	folds := make([]Estimator, k)
	var full Estimator
	err := par.ForEach(k+1, func(f int) error {
		if f == k {
			m, err := train(wl, seed)
			if err != nil {
				return fmt.Errorf("cardpi: training full model: %w", err)
			}
			full = m
			return nil
		}
		var sub []workload.Labeled
		for i, lq := range wl.Queries {
			if foldOf[i] != f {
				sub = append(sub, lq)
			}
		}
		m, err := train(&workload.Workload{
			Queries: sub, Table: wl.Table, Schema: wl.Schema, NormN: wl.NormN,
		}, seed+int64(f)+1)
		if err != nil {
			return fmt.Errorf("cardpi: training fold %d: %w", f, err)
		}
		folds[f] = m
		return nil
	})
	if err != nil {
		return nil, err
	}

	oof := make([]float64, len(wl.Queries))
	truths := make([]float64, len(wl.Queries))
	for i, lq := range wl.Queries {
		oof[i] = folds[foldOf[i]].EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
	}
	jk, err := conformal.CalibrateJackknifeCV(oof, truths, foldOf, k, alpha)
	if err != nil {
		return nil, err
	}
	return &JackknifeCV{full: full, folds: folds, jk: jk}, nil
}

// WrapJackknifeCVModels builds the wrapper from pre-trained fold models —
// used for data-driven models like Naru whose folds are over tuples rather
// than training queries. foldOf assigns each calibration query to the fold
// whose model must not have seen it (for data-driven models any balanced
// assignment is valid since models never see queries).
func WrapJackknifeCVModels(full Estimator, folds []Estimator, cal *workload.Workload,
	foldOf []int, alpha float64) (*JackknifeCV, error) {
	if cal == nil || len(cal.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty calibration workload")
	}
	if len(foldOf) != len(cal.Queries) {
		return nil, fmt.Errorf("cardpi: foldOf length %d != workload size %d", len(foldOf), len(cal.Queries))
	}
	oof := make([]float64, len(cal.Queries))
	truths := make([]float64, len(cal.Queries))
	for i, lq := range cal.Queries {
		oof[i] = folds[foldOf[i]].EstimateSelectivity(lq.Query)
		truths[i] = lq.Sel
	}
	jk, err := conformal.CalibrateJackknifeCV(oof, truths, foldOf, len(folds), alpha)
	if err != nil {
		return nil, err
	}
	return &JackknifeCV{full: full, folds: folds, jk: jk}, nil
}

// Name implements PI.
func (j *JackknifeCV) Name() string { return "jk-cv+/" + j.full.Name() }

// Interval implements PI using the Algorithm-1 construction: the full
// model's estimate ± the calibrated K-fold residual quantile.
func (j *JackknifeCV) Interval(q workload.Query) (Interval, error) {
	return clip(j.jk.IntervalSimple(j.full.EstimateSelectivity(q))), nil
}

// IntervalCV returns the full CV+ interval (Eq. 5) with its 1−2α
// finite-sample guarantee; it evaluates all K fold models per query.
func (j *JackknifeCV) IntervalCV(q workload.Query) (Interval, error) {
	foldPreds := make([]float64, len(j.folds))
	for f, m := range j.folds {
		foldPreds[f] = m.EstimateSelectivity(q)
	}
	iv, err := j.jk.IntervalCV(foldPreds)
	if err != nil {
		return Interval{}, err
	}
	return clip(iv), nil
}

// FullModel exposes the full-data model.
func (j *JackknifeCV) FullModel() Estimator { return j.full }
