package conformal

import (
	"fmt"
	"io"
	"sort"

	"cardpi/internal/codec"
)

// Calibration-state checkpointing. Every calibrated predictor a servable
// method uses — SplitCP, LocallyWeighted, CQR, Localized and Mondrian —
// round-trips through a stream so the one-time offline calibration can be
// frozen into an artifact and rehydrated at serve time without touching the
// calibration workload again. Loaded predictors are
// bit-identical to the originals: every threshold, score list, and feature
// vector is preserved exactly (IEEE-754 float64 wire format), and loads
// re-validate shapes (lengths, fold ranges, alpha domain) so corrupt input
// fails closed instead of producing silently wrong intervals.
//
// Scoring functions are stateless and serialised by Name(); only the
// scores registered in this package (residual, qerror, relative) are
// supported — a custom Score implementation fails the write with an
// actionable error rather than being silently dropped.

// Per-type magic tags: four bytes, versioned by the trailing byte.
var (
	splitMagic    = [4]byte{'C', 'S', 'P', '1'}
	lwMagic       = [4]byte{'C', 'L', 'W', '1'}
	cqrMagic      = [4]byte{'C', 'Q', 'R', '1'}
	localMagic    = [4]byte{'C', 'L', 'C', '1'}
	mondrianMagic = [4]byte{'C', 'M', 'D', '1'}
)

// maxCalPoints bounds decoded calibration-set sizes as a corruption guard.
const maxCalPoints = 1 << 26

// scoreByName rehydrates a stateless scoring function from its Name().
func scoreByName(name string) (Score, error) {
	switch name {
	case ResidualScore{}.Name():
		return ResidualScore{}, nil
	case QErrorScore{}.Name():
		return QErrorScore{}, nil
	case RelativeScore{}.Name():
		return RelativeScore{}, nil
	default:
		return nil, fmt.Errorf("conformal: unknown scoring function %q (supported: residual, qerror, relative)", name)
	}
}

// writeScore serialises a scoring function by name, failing the writer for
// scores outside the package registry.
func writeScore(cw *codec.Writer, s Score) {
	if s == nil {
		cw.Fail(fmt.Errorf("conformal: nil scoring function"))
		return
	}
	if _, err := scoreByName(s.Name()); err != nil {
		cw.Fail(fmt.Errorf("conformal: scoring function %q is not serialisable: %w", s.Name(), err))
		return
	}
	cw.String(s.Name())
}

// readScore rehydrates a scoring function written by writeScore.
func readScore(cr *codec.Reader) Score {
	name := cr.String(256)
	if cr.Err() != nil {
		return nil
	}
	s, err := scoreByName(name)
	if err != nil {
		cr.Fail(err)
		return nil
	}
	return s
}

// readMagic consumes and validates a four-byte magic tag.
func readMagic(cr *codec.Reader, want [4]byte, what string) error {
	var mg [4]byte
	cr.Raw(mg[:])
	if err := cr.Err(); err != nil {
		return fmt.Errorf("conformal: reading %s magic: %w", what, err)
	}
	if mg != want {
		return fmt.Errorf("conformal: bad %s magic %q (artifact section holds a different predictor type)", what, mg)
	}
	return nil
}

// checkAlpha validates a decoded miscoverage level.
func checkAlpha(alpha float64) error {
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("conformal: decoded alpha %v outside (0,1)", alpha)
	}
	return nil
}

// WriteTo serialises the calibrated split conformal predictor.
func (s *SplitCP) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(w)
	cw.Raw(splitMagic[:])
	cw.F64(s.Delta)
	cw.F64(s.Alpha)
	writeScore(cw, s.score)
	return cw.Len(), cw.Err()
}

// ReadSplitCP deserialises a predictor written by (*SplitCP).WriteTo.
func ReadSplitCP(r io.Reader) (*SplitCP, error) {
	cr := codec.NewReader(r)
	if err := readMagic(cr, splitMagic, "split-CP"); err != nil {
		return nil, err
	}
	s := &SplitCP{Delta: cr.F64(), Alpha: cr.F64(), score: readScore(cr)}
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("conformal: reading split-CP: %w", err)
	}
	if err := checkAlpha(s.Alpha); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteTo serialises the calibrated locally weighted predictor.
func (l *LocallyWeighted) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(w)
	cw.Raw(lwMagic[:])
	cw.F64(l.Delta)
	cw.F64(l.Alpha)
	writeScore(cw, l.score)
	return cw.Len(), cw.Err()
}

// ReadLocallyWeighted deserialises a predictor written by
// (*LocallyWeighted).WriteTo.
func ReadLocallyWeighted(r io.Reader) (*LocallyWeighted, error) {
	cr := codec.NewReader(r)
	if err := readMagic(cr, lwMagic, "locally-weighted"); err != nil {
		return nil, err
	}
	l := &LocallyWeighted{Delta: cr.F64(), Alpha: cr.F64(), score: readScore(cr)}
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("conformal: reading locally-weighted: %w", err)
	}
	if err := checkAlpha(l.Alpha); err != nil {
		return nil, err
	}
	return l, nil
}

// WriteTo serialises the calibrated CQR predictor.
func (c *CQR) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(w)
	cw.Raw(cqrMagic[:])
	cw.F64(c.Delta)
	cw.F64(c.Alpha)
	return cw.Len(), cw.Err()
}

// ReadCQR deserialises a predictor written by (*CQR).WriteTo.
func ReadCQR(r io.Reader) (*CQR, error) {
	cr := codec.NewReader(r)
	if err := readMagic(cr, cqrMagic, "CQR"); err != nil {
		return nil, err
	}
	c := &CQR{Delta: cr.F64(), Alpha: cr.F64()}
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("conformal: reading CQR: %w", err)
	}
	if err := checkAlpha(c.Alpha); err != nil {
		return nil, err
	}
	return c, nil
}

// WriteTo serialises the localized predictor, including the calibration
// features and scores its per-query neighbourhoods are computed from.
func (l *Localized) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(w)
	cw.Raw(localMagic[:])
	cw.F64(l.Alpha)
	cw.U32(uint32(l.K))
	writeScore(cw, l.score)
	cw.U32(uint32(len(l.feats)))
	for _, f := range l.feats {
		cw.F64s(f)
	}
	cw.F64s(l.scores)
	return cw.Len(), cw.Err()
}

// ReadLocalized deserialises a predictor written by (*Localized).WriteTo.
func ReadLocalized(r io.Reader) (*Localized, error) {
	cr := codec.NewReader(r)
	if err := readMagic(cr, localMagic, "localized"); err != nil {
		return nil, err
	}
	l := &Localized{Alpha: cr.F64(), K: int(cr.U32()), score: readScore(cr)}
	n := cr.U32()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("conformal: reading localized header: %w", err)
	}
	if n == 0 || n > maxCalPoints {
		return nil, fmt.Errorf("conformal: implausible localized calibration size %d", n)
	}
	dim := -1
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = cr.F64s(maxCalPoints)
		if cr.Err() == nil {
			if dim == -1 {
				dim = len(feats[i])
			} else if len(feats[i]) != dim {
				return nil, fmt.Errorf("conformal: localized feature %d has dim %d, want %d", i, len(feats[i]), dim)
			}
		}
	}
	l.scores = cr.F64s(maxCalPoints)
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("conformal: reading localized calibration: %w", err)
	}
	if len(l.scores) != int(n) {
		return nil, fmt.Errorf("conformal: localized has %d features but %d scores", n, len(l.scores))
	}
	if err := checkAlpha(l.Alpha); err != nil {
		return nil, err
	}
	if l.K < 1 || l.K > int(n) {
		return nil, fmt.Errorf("conformal: localized neighbourhood %d outside [1,%d]", l.K, n)
	}
	// The row-major block and the neighbour index are derived state and are
	// never serialised; rebuild them here so rehydrated predictors serve
	// batches at full speed.
	l.setFeatures(feats)
	return l, nil
}

// WriteTo serialises the Mondrian predictor's per-group thresholds (groups
// written in sorted order for a deterministic encoding).
func (m *Mondrian) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(w)
	cw.Raw(mondrianMagic[:])
	cw.F64(m.Alpha)
	writeScore(cw, m.score)
	cw.F64(m.fallback)
	cw.U32(uint32(m.minGroup))
	groups := make([]string, 0, len(m.deltas))
	for g := range m.deltas {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	cw.U32(uint32(len(groups)))
	for _, g := range groups {
		cw.String(g)
		cw.F64(m.deltas[g])
	}
	return cw.Len(), cw.Err()
}

// ReadMondrian deserialises a predictor written by (*Mondrian).WriteTo.
func ReadMondrian(r io.Reader) (*Mondrian, error) {
	cr := codec.NewReader(r)
	if err := readMagic(cr, mondrianMagic, "Mondrian"); err != nil {
		return nil, err
	}
	m := &Mondrian{Alpha: cr.F64(), score: readScore(cr)}
	m.fallback = cr.F64()
	m.minGroup = int(cr.U32())
	n := cr.U32()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("conformal: reading Mondrian header: %w", err)
	}
	if n > maxCalPoints {
		return nil, fmt.Errorf("conformal: implausible Mondrian group count %d", n)
	}
	m.deltas = make(map[string]float64, n)
	for i := uint32(0); i < n; i++ {
		g := cr.String(codec.MaxStringLen)
		m.deltas[g] = cr.F64()
	}
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("conformal: reading Mondrian groups: %w", err)
	}
	if len(m.deltas) != int(n) {
		return nil, fmt.Errorf("conformal: Mondrian has %d duplicate group names", int(n)-len(m.deltas))
	}
	if err := checkAlpha(m.Alpha); err != nil {
		return nil, err
	}
	return m, nil
}
