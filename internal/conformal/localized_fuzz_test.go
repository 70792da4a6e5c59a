package conformal

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzLocalizedCase builds a calibration set and query rows from the fuzz
// parameters. flags selects the hard cases:
//
//   - bit 0: coordinates from {0, 1, 2}, so many distances tie exactly;
//   - bit 1: every third calibration row duplicates an earlier row;
//   - bit 2: some calibration coordinates are +Inf, -Inf or NaN (which also
//     keeps the k-d tree from being built);
//   - bit 3: some calibration truths are NaN or +Inf, giving NaN and +Inf
//     scores.
//
// Predictions stay finite, so every NaN score is |NaN − pred| of one and the
// same NaN and carries one bit pattern: the kernel and the reference sort
// may return different members of a class of equal-comparing values with
// distinct bits, and no score function produces such a class from finite
// predictions.
func fuzzLocalizedCase(seed int64, n, dim, kSel int, flags uint8) (*Localized, [][]float64, error) {
	r := rand.New(rand.NewSource(seed))
	ties, dups, poisonFeats, poisonScores := flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	coord := func() float64 {
		if ties {
			return float64(r.Intn(3))
		}
		return r.NormFloat64()
	}
	poison := func() float64 {
		return [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
	}
	feats := make([][]float64, n)
	preds := make([]float64, n)
	truths := make([]float64, n)
	for i := range feats {
		if dups && i%3 == 2 {
			feats[i] = feats[r.Intn(i)]
		} else {
			f := make([]float64, dim)
			for j := range f {
				f[j] = coord()
				if poisonFeats && r.Intn(16) == 0 {
					f[j] = poison()
				}
			}
			feats[i] = f
		}
		preds[i] = float64(r.Intn(8)) / 8
		truths[i] = float64(r.Intn(8)) / 8
		if poisonScores && r.Intn(6) == 0 {
			truths[i] = [...]float64{math.NaN(), math.Inf(1)}[r.Intn(2)]
		}
	}
	k := [...]int{1, 2, n / 8, n / 4, n - 1, n}[kSel%6]
	l, err := CalibrateLocalized(feats, preds, truths, ResidualScore{}, 0.1, max(k, 1))
	if err != nil {
		return nil, nil, err
	}
	qs := make([][]float64, 8)
	for i := range qs {
		switch i {
		case 0, 1: // a calibration row: distance-0 ties
			qs[i] = feats[r.Intn(n)]
		case 2: // shorter query (missing dims count fully)
			qs[i] = make([]float64, dim/2)
		case 3: // longer query (extra dims shift every distance)
			qs[i] = make([]float64, dim+2)
		default:
			qs[i] = make([]float64, dim)
		}
		if i >= 2 {
			for j := range qs[i] {
				qs[i][j] = coord()
			}
		}
		if i == 7 && len(qs[i]) > 0 { // non-finite query: never the tree
			qs[i][r.Intn(len(qs[i]))] = poison()
		}
	}
	return l, qs, nil
}

// FuzzLocalDelta proves the neighbour kernel behind Interval, Deltas and
// Intervals bit-identical (math.Float64bits) to the full-sort LocalDelta
// reference. The seed corpus covers dims on both sides of kdMaxDim and K
// from 1 to n, so the tree, heap-scan and selection strategies all run,
// each with distance ties, duplicated rows, non-finite coordinates and
// NaN/+Inf scores.
func FuzzLocalDelta(f *testing.F) {
	// The arguments map to n = 1 + n16%400 and dim = 1 + dim8%48: the
	// corpus runs n = 203 at dims 3, 16, 17 and 44, plus n = 1 and n = 9.
	for _, dim := range []int{3, kdMaxDim, kdMaxDim + 1, 44} {
		for kSel := 0; kSel < 6; kSel++ {
			for _, flags := range []uint8{0, 1 | 2, 4 | 8, 15} {
				f.Add(int64(dim*100+kSel), uint16(202), uint8(dim-1), uint8(kSel), flags)
			}
		}
	}
	f.Add(int64(1), uint16(0), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint16(8), uint8(4), uint8(4), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, dim8, kSel uint8, flags uint8) {
		n := 1 + int(n16)%400
		dim := 1 + int(dim8)%48
		l, qs, err := fuzzLocalizedCase(seed, n, dim, int(kSel), flags)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(qs))
		if err := l.Deltas(qs, got); err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, err := l.LocalDelta(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d dim=%d K=%d flags=%04b query %d: kernel %v (%#x) != reference %v (%#x)",
					n, dim, l.K, flags, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	})
}
