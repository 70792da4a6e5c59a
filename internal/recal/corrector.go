// Package recal closes the drift loop for a serving chain: it maintains a
// rolling window of recently observed labeled queries, and when the serving
// unit's drift monitor alarms it runs a background shadow recalibration —
// fit a lightweight TiCard-style residual corrector over the frozen model's
// estimates, rebuild split-conformal calibration scores from the window,
// validate the candidate chain on a held-out slice, and hand the accepted
// candidate to a caller-supplied atomic swap. Every error path fails closed:
// the old chain keeps serving, the episode retries with exponential backoff,
// and an exhausted episode parks in a Failed state that the next drift
// observation re-arms.
//
// The package sits below the root cardpi package in the import graph, so its
// candidate types satisfy cardpi.Estimator and cardpi.PI structurally (the
// same pattern internal/faultinject uses): cardpi.Interval and
// cardpi.Estimator are aliases for the internal/conformal and
// internal/estimator types used here.
//
// All units are normalised selectivities in [0, 1] unless a name says rows.
package recal

import (
	"fmt"
	"math"

	"cardpi/internal/conformal"
	"cardpi/internal/estimator"
	"cardpi/internal/workload"
)

// Corrector fit/apply constants. The slope clamp keeps a corrector fitted on
// a narrow selectivity band from extrapolating wildly outside it; the
// log-space epsilon floors zero selectivities the same way the conformal
// scores do.
const (
	correctorEps      = 1e-12
	correctorMinSlope = 0.25
	correctorMaxSlope = 4.0
	// MinFitSamples is the smallest sample count FitCorrector accepts; below
	// it a least-squares slope is noise.
	MinFitSamples = 8
)

// Corrector is a log-space affine residual correction over a frozen model's
// selectivity estimates, in the spirit of TiCard's EXPLAIN-only correction
// layer: corrected = exp(A + B·log(est)). It is a function of the estimate
// alone — fitting and applying it needs no access to the model internals or
// the table, which is what makes it cheap enough to be the fast layer of a
// drift response. The zero value (A=0, B=0) is NOT the identity; use
// Identity for a pass-through.
type Corrector struct {
	// A is the intercept in log-selectivity space (a pure multiplicative
	// factor exp(A) on the estimate when B=1).
	A float64
	// B is the slope in log-selectivity space, clamped by FitCorrector to
	// [0.25, 4] to bound extrapolation.
	B float64
}

// Identity returns the pass-through corrector (A=0, B=1).
func Identity() Corrector { return Corrector{A: 0, B: 1} }

// FitCorrector least-squares fits a log-space affine map from the frozen
// model's estimates to observed true selectivities: log(truth+eps) ≈
// A + B·log(est+eps). It needs at least MinFitSamples points, falls back to
// an intercept-only fit (B=1) when the estimates have degenerate variance
// (e.g. a constant-output degraded model), and errors if the inputs or the
// fitted parameters are non-finite. Inputs are normalised selectivities.
func FitCorrector(ests, truths []float64) (Corrector, error) {
	if len(ests) != len(truths) {
		return Corrector{}, fmt.Errorf("recal: fit inputs disagree: %d estimates, %d truths", len(ests), len(truths))
	}
	if len(ests) < MinFitSamples {
		return Corrector{}, fmt.Errorf("recal: %d fit samples, need at least %d", len(ests), MinFitSamples)
	}
	n := float64(len(ests))
	var sx, sy float64
	xs := make([]float64, len(ests))
	ys := make([]float64, len(ests))
	for i := range ests {
		x := math.Log(math.Max(ests[i], 0) + correctorEps)
		y := math.Log(math.Max(truths[i], 0) + correctorEps)
		if !isFinite(x) || !isFinite(y) {
			return Corrector{}, fmt.Errorf("recal: non-finite fit sample %d (est=%v truth=%v)", i, ests[i], truths[i])
		}
		xs[i], ys[i] = x, y
		sx += x
		sy += y
	}
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	c := Identity()
	if sxx/n < 1e-12 {
		// Degenerate estimate variance: slope is unidentifiable, keep B=1 and
		// absorb the mean residual into the intercept.
		c.A = my - mx
	} else {
		c.B = sxy / sxx
		if c.B < correctorMinSlope {
			c.B = correctorMinSlope
		} else if c.B > correctorMaxSlope {
			c.B = correctorMaxSlope
		}
		c.A = my - c.B*mx
	}
	if !isFinite(c.A) || !isFinite(c.B) {
		return Corrector{}, fmt.Errorf("recal: fitted corrector is non-finite (A=%v B=%v)", c.A, c.B)
	}
	return c, nil
}

// Apply maps a raw model estimate through the correction and clamps the
// result to the valid selectivity domain [0, 1]. Non-finite inputs map to
// the estimator floor rather than propagating.
func (c Corrector) Apply(est float64) float64 {
	if !isFinite(est) {
		return estimator.MinSel
	}
	out := math.Exp(c.A + c.B*math.Log(math.Max(est, 0)+correctorEps))
	if !isFinite(out) || out < 0 {
		return estimator.MinSel
	}
	if out > 1 {
		return 1
	}
	return out
}

// Corrected wraps a frozen base estimator with a fitted Corrector. It
// satisfies cardpi.Estimator structurally. Safe for concurrent use as long
// as the base estimator is; the corrector itself is immutable.
type Corrected struct {
	base estimator.Estimator
	corr Corrector
}

// NewCorrected builds the corrected estimator; base must be non-nil.
func NewCorrected(base estimator.Estimator, corr Corrector) *Corrected {
	return &Corrected{base: base, corr: corr}
}

// Name identifies the corrected chain as "recal/<base>".
func (c *Corrected) Name() string { return "recal/" + c.base.Name() }

// EstimateSelectivity runs the base estimator and applies the correction;
// the result is always finite and in [0, 1].
func (c *Corrected) EstimateSelectivity(q workload.Query) float64 {
	return c.corr.Apply(c.base.EstimateSelectivity(q))
}

// CandidatePI is the prediction-interval head of a recalibration candidate:
// split-conformal intervals around the corrected estimates, calibrated on
// the rolling window. It satisfies cardpi.PI structurally. Immutable after
// construction, safe for concurrent use.
type CandidatePI struct {
	model *Corrected
	cp    *conformal.SplitCP
}

// Name identifies the candidate as "recal-cp/<base>".
func (p *CandidatePI) Name() string { return "recal-cp/" + p.model.base.Name() }

// Interval returns the calibrated interval for q's corrected estimate,
// clipped to the selectivity domain [0, 1]. It never errors; the error
// return exists to satisfy the PI contract.
func (p *CandidatePI) Interval(q workload.Query) (conformal.Interval, error) {
	return p.cp.Interval(p.model.EstimateSelectivity(q)).Clip(0, 1), nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
