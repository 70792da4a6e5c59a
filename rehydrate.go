package cardpi

import (
	"fmt"

	"cardpi/internal/conformal"
	"cardpi/internal/gbm"
)

// Rehydration support for the artifact pipeline (internal/pipeline): the
// wrappers in this package are built either by calibrating against a
// workload (the Wrap* constructors) or by reassembling previously frozen
// parts (the New*From constructors below). Frozen calibration state is
// reached through the Calibration() accessors; the artifact bundle
// serialises it with the internal/conformal codecs and reassembles an
// identical wrapper at load time — intervals from a rehydrated wrapper are
// bit-identical to the original's.

// Calibration exposes the frozen conformal state for artifact serialisation.
func (s *SplitCP) Calibration() *conformal.SplitCP { return s.cp }

// NewSplitCPFrom reassembles a split-CP wrapper from a model and previously
// calibrated state, skipping calibration entirely.
func NewSplitCPFrom(model Estimator, cp *conformal.SplitCP) (*SplitCP, error) {
	if model == nil || cp == nil {
		return nil, fmt.Errorf("cardpi: rehydrating split-CP: nil model or calibration")
	}
	return &SplitCP{model: model, cp: cp}, nil
}

// Calibration exposes the frozen conformal state for artifact serialisation.
func (l *LocallyWeighted) Calibration() *conformal.LocallyWeighted { return l.lw }

// DifficultyModel exposes the fitted difficulty regressor g(X) for artifact
// serialisation.
func (l *LocallyWeighted) DifficultyModel() *gbm.Regressor { return l.g }

// Beta exposes the difficulty stabilisation offset for artifact
// serialisation: U(X) = max(g(X), 0) + beta.
func (l *LocallyWeighted) Beta() float64 { return l.beta }

// NewLocallyWeightedFrom reassembles a locally weighted wrapper from its
// frozen parts, skipping difficulty fitting and calibration entirely.
func NewLocallyWeightedFrom(model Estimator, lw *conformal.LocallyWeighted,
	g *gbm.Regressor, feats FeatureFunc, beta float64) (*LocallyWeighted, error) {
	if model == nil || lw == nil || g == nil || feats == nil {
		return nil, fmt.Errorf("cardpi: rehydrating locally-weighted: nil part")
	}
	if beta <= 0 {
		return nil, fmt.Errorf("cardpi: rehydrating locally-weighted: non-positive beta %v", beta)
	}
	return &LocallyWeighted{model: model, lw: lw, g: g, feats: feats, beta: beta}, nil
}

// Calibration exposes the frozen conformal state for artifact serialisation.
func (c *CQR) Calibration() *conformal.CQR { return c.cqr }

// Models exposes the τ=α/2 and τ=1−α/2 quantile models for artifact
// serialisation.
func (c *CQR) Models() (lo, hi Estimator) { return c.lo, c.hi }

// NewCQRFrom reassembles a CQR wrapper from the two quantile models and
// previously calibrated state, skipping calibration entirely.
func NewCQRFrom(lo, hi Estimator, cqr *conformal.CQR) (*CQR, error) {
	if lo == nil || hi == nil || cqr == nil {
		return nil, fmt.Errorf("cardpi: rehydrating CQR: nil model or calibration")
	}
	return &CQR{lo: lo, hi: hi, cqr: cqr}, nil
}

// Calibration exposes the frozen conformal state for artifact serialisation.
func (l *Localized) Calibration() *conformal.Localized { return l.lcp }

// NewLocalizedFrom reassembles a localized wrapper from a model and
// previously calibrated state, skipping calibration entirely.
func NewLocalizedFrom(model Estimator, lcp *conformal.Localized, feats FeatureFunc) (*Localized, error) {
	if model == nil || lcp == nil || feats == nil {
		return nil, fmt.Errorf("cardpi: rehydrating localized: nil part")
	}
	return &Localized{model: model, lcp: lcp, feats: feats}, nil
}

// Calibration exposes the frozen conformal state for artifact serialisation.
func (m *Mondrian) Calibration() *conformal.Mondrian { return m.m }

// NewMondrianFrom reassembles a Mondrian wrapper from a model, a grouping
// function, and previously calibrated state, skipping calibration entirely.
func NewMondrianFrom(model Estimator, cal *conformal.Mondrian, group GroupFunc) (*Mondrian, error) {
	if model == nil || cal == nil || group == nil {
		return nil, fmt.Errorf("cardpi: rehydrating Mondrian: nil part")
	}
	return &Mondrian{model: model, m: cal, group: group}, nil
}
