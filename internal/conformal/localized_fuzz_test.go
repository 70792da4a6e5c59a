package conformal

import (
	"math"
	"math/rand"
	"sort"
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
//     scores;
//   - bit 4: featurizer-shaped rows and queries (featRow), which the group
//     layout is built for; bit 0 then draws the constrained groups' bounds
//     from {0, 1/2, 1}, and bit 2 poisons one coordinate in an eighth of
//     the rows instead of one in sixteen everywhere.
//
// Predictions stay finite, so every NaN score is |NaN − pred| of one and the
// same NaN and carries one bit pattern: the kernel and the reference sort
// may return different members of a class of equal-comparing values with
// distinct bits, and no score function produces such a class from finite
// predictions.
func fuzzLocalizedCase(seed int64, n, dim, kSel int, flags uint8) (*Localized, [][]float64, error) {
	r := rand.New(rand.NewSource(seed))
	ties, dups, poisonFeats, poisonScores, shaped := flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0, flags&16 != 0
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
		switch {
		case dups && i%3 == 2:
			feats[i] = feats[r.Intn(i)]
		case shaped:
			f := featRow(r, dim, ties)
			if poisonFeats && r.Intn(8) == 0 {
				f[r.Intn(dim)] = poison()
			}
			feats[i] = f
		default:
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
		switch {
		case i >= 2 && shaped:
			qs[i] = featRow(r, len(qs[i]), ties)
		case i >= 2:
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

// featRow returns a row shaped like the featurizer's: four values per
// column, (hasPredicate, isEquality, lo, hi), at the unconstrained default
// (0, 0, 0, 1) on about three columns in four, the default with a −0 in
// place of a +0 on a few, and a constrained range on the rest, cut to dim
// values (so the last column may be partial). ties draws the bounds from
// {0, 1/2, 1}.
func featRow(r *rand.Rand, dim int, ties bool) []float64 {
	f := make([]float64, 0, dim+3)
	for len(f) < dim {
		switch c := r.Intn(16); {
		case c < 11:
			f = append(f, 0, 0, 0, 1)
		case c == 11:
			f = append(f, 0, 0, 0, 1)
			f[len(f)-1-1-r.Intn(3)] = math.Copysign(0, -1)
		default:
			lo, hi := r.Float64(), r.Float64()
			if ties {
				lo, hi = float64(r.Intn(3))/2, float64(r.Intn(3))/2
			}
			eq := float64(r.Intn(2))
			if eq == 1 {
				hi = lo
			}
			f = append(f, 1, eq, min(lo, hi), max(lo, hi))
		}
	}
	return f[:dim]
}

// FuzzLocalDelta proves the neighbour kernel behind Interval, Deltas and
// Intervals bit-identical (math.Float64bits) to the full-sort LocalDelta
// reference, and the selection strategy's distance pass to sqDist. The seed corpus covers dims on both sides of kdMaxDim and K
// from 1 to n, so the tree, heap-scan and selection strategies all run,
// each with distance ties, duplicated rows, non-finite coordinates and
// NaN/+Inf scores, and the selection strategy both over the group layout
// (featurizer-shaped rows) and over dense rows.
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
	// Featurizer-shaped rows (bit 4) at the serving width 44, at widths
	// that leave a partial last group, and at one group or less; K large
	// enough for the selection strategy and its group layout.
	for _, dim := range []int{2, 6, 17, 44, 46} {
		for kSel := 3; kSel < 6; kSel++ {
			for _, flags := range []uint8{16, 16 | 1, 16 | 2 | 4, 16 | 1 | 4 | 8} {
				f.Add(int64(dim*100+kSel), uint16(399), uint8(dim-1), uint8(kSel), flags)
			}
		}
	}
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
			// The selection strategy's distances themselves, which the
			// threshold can mask (only the K-th and the rows below it count).
			for j, d := range l.appendDistances(nil, q) {
				if ref := sqDist(l.feats[j], q); math.Float64bits(d) != math.Float64bits(ref) {
					t.Fatalf("n=%d dim=%d flags=%04b query %d row %d: distance %v (%#x) != sqDist %v (%#x)",
						n, dim, flags, i, j, d, math.Float64bits(d), ref, math.Float64bits(ref))
				}
			}
		}
	})
}

// FuzzKthDist proves the radix select behind the selection strategy equal
// to a sort: the rank-r value under < (as a value: −0 and +0 are one) and
// the count of values strictly below it. The inputs are drawn from a few
// values, so most ranks sit inside a run of ties, plus +0, −0, +Inf and
// subnormals, and scaled values that straddle powers of two.
func FuzzKthDist(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(799), uint16(199), uint8(1))
	f.Add(int64(3), uint16(300), uint16(150), uint8(2))
	f.Add(int64(4), uint16(1000), uint16(999), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n16, r16 uint16, mode uint8) {
		n := 1 + int(n16)%2000
		rank := int(r16) % n
		r := rand.New(rand.NewSource(seed))
		special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-310, 1, 2, math.MaxFloat64, math.Inf(1)}
		few := []float64{0.5, 1, 1.5, 2, 2.25, 3.999999999999999, 4}
		dist := make([]float64, n)
		for i := range dist {
			switch (int(mode) + r.Intn(4)) % 4 {
			case 0:
				dist[i] = special[r.Intn(len(special))]
			case 1:
				dist[i] = few[r.Intn(len(few))]
			case 2:
				dist[i] = few[r.Intn(len(few))] * math.Ldexp(1, r.Intn(5)-2)
			default:
				dist[i] = r.ExpFloat64() * math.Pow(10, float64(r.Intn(20)-10))
			}
		}
		sorted := append([]float64(nil), dist...)
		sort.Float64s(sorted)
		got, less := kthDist(dist, rank)
		if got != sorted[rank] {
			t.Fatalf("n=%d: rank %d = %v, want %v", n, rank, got, sorted[rank])
		}
		if want := sort.SearchFloat64s(sorted, got); less != want {
			t.Fatalf("n=%d: %d values below %v, want %d", n, less, got, want)
		}
	})
}
