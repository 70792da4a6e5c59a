package conformal

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func calData(n int, seed int64) (preds, truths []float64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := 10 + 90*r.Float64()
		preds = append(preds, p)
		truths = append(truths, p*(0.5+r.Float64()))
	}
	return preds, truths
}

func TestSplitCPRoundTrip(t *testing.T) {
	for _, score := range []Score{ResidualScore{}, QErrorScore{}, RelativeScore{}} {
		preds, truths := calData(200, 1)
		s, err := CalibrateSplit(preds, truths, score, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadSplitCP(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Delta != s.Delta || loaded.Alpha != s.Alpha || loaded.Score().Name() != score.Name() {
			t.Fatalf("%s: round-trip changed calibration", score.Name())
		}
		for _, p := range preds {
			if s.Interval(p) != loaded.Interval(p) {
				t.Fatalf("%s: round-trip changed intervals", score.Name())
			}
		}
	}
}

func TestLocallyWeightedRoundTrip(t *testing.T) {
	preds, truths := calData(200, 2)
	u := make([]float64, len(preds))
	for i := range u {
		u[i] = 1 + math.Mod(float64(i), 5)
	}
	l, err := CalibrateLocallyWeighted(preds, truths, u, ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadLocallyWeighted(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if l.Interval(p, u[i]) != loaded.Interval(p, u[i]) {
			t.Fatal("round-trip changed intervals")
		}
	}
}

func TestCQRRoundTrip(t *testing.T) {
	preds, truths := calData(200, 3)
	lo := make([]float64, len(preds))
	hi := make([]float64, len(preds))
	for i, p := range preds {
		lo[i] = p * 0.8
		hi[i] = p * 1.3
	}
	c, err := CalibrateCQR(lo, hi, truths, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCQR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if c.Interval(lo[i], hi[i]) != loaded.Interval(lo[i], hi[i]) {
			t.Fatal("round-trip changed intervals")
		}
	}
}

func TestLocalizedRoundTrip(t *testing.T) {
	preds, truths := calData(120, 4)
	feats := make([][]float64, len(preds))
	for i := range feats {
		feats[i] = []float64{float64(i % 7), float64(i % 3), preds[i] / 100}
	}
	l, err := CalibrateLocalized(feats, preds, truths, ResidualScore{}, 0.1, 25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadLocalized(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		a, err1 := l.Interval(feats[i], p)
		b, err2 := loaded.Interval(feats[i], p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatal("round-trip changed intervals")
		}
	}
}

func TestMondrianRoundTrip(t *testing.T) {
	preds, truths := calData(300, 5)
	groups := make([]string, len(preds))
	names := []string{"1-preds", "2-preds", "3-preds"}
	for i := range groups {
		groups[i] = names[i%len(names)]
	}
	m, err := CalibrateMondrian(groups, preds, truths, ResidualScore{}, 0.1, 20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadMondrian(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Groups() != m.Groups() {
		t.Fatalf("round-trip changed group count: %d vs %d", loaded.Groups(), m.Groups())
	}
	for i, p := range preds {
		// Include a group absent from calibration to exercise the fallback.
		for _, g := range []string{groups[i], "9-preds"} {
			if m.Interval(g, p) != loaded.Interval(g, p) {
				t.Fatal("round-trip changed intervals")
			}
		}
	}
}

type fakeScore struct{ ResidualScore }

func (fakeScore) Name() string { return "custom" }

func TestWriteRejectsUnknownScore(t *testing.T) {
	s := &SplitCP{Delta: 1, Alpha: 0.1, score: fakeScore{}}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err == nil {
		t.Fatal("unregistered score serialised")
	}
}

func TestReadRejectsWrongPredictorType(t *testing.T) {
	preds, truths := calData(50, 7)
	s, err := CalibrateSplit(preds, truths, ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMondrian(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("split-CP bytes accepted as Mondrian")
	}
	if _, err := ReadCQR(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("split-CP bytes accepted as CQR")
	}
}
