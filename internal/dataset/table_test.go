package dataset

import (
	"testing"
	"testing/quick"
)

func TestNewTableValidation(t *testing.T) {
	good := []*Column{
		catCol("a", []int64{0, 1, 0}, 2),
		numCol("b", []int64{5, 6, 7}, 0, 10),
	}
	tab, err := NewTable("t", good)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if tab.NumRows() != 3 || tab.NumCols() != 2 {
		t.Fatalf("got %d rows %d cols, want 3 and 2", tab.NumRows(), tab.NumCols())
	}

	if _, err := NewTable("t", nil); err == nil {
		t.Error("NewTable with no columns should fail")
	}
	ragged := []*Column{
		catCol("a", []int64{0, 1}, 2),
		catCol("b", []int64{0}, 2),
	}
	if _, err := NewTable("t", ragged); err == nil {
		t.Error("NewTable with ragged columns should fail")
	}
	dup := []*Column{
		catCol("a", []int64{0}, 2),
		catCol("a", []int64{1}, 2),
	}
	if _, err := NewTable("t", dup); err == nil {
		t.Error("NewTable with duplicate names should fail")
	}
}

func TestColumnLookup(t *testing.T) {
	tab := MustNewTable("t", []*Column{
		catCol("x", []int64{1, 2}, 3),
		numCol("y", []int64{9, 8}, 0, 10),
	})
	if c := tab.Column("x"); c == nil || c.Name != "x" {
		t.Fatalf("Column(x) = %v", c)
	}
	if c := tab.Column("missing"); c != nil {
		t.Fatalf("Column(missing) = %v, want nil", c)
	}
	if i, ok := tab.ColumnIndex("y"); !ok || i != 1 {
		t.Fatalf("ColumnIndex(y) = %d,%v", i, ok)
	}
}

func TestRowMaterialisation(t *testing.T) {
	tab := MustNewTable("t", []*Column{
		catCol("x", []int64{1, 2}, 3),
		numCol("y", []int64{9, 8}, 0, 10),
	})
	row := tab.Row(1)
	if len(row) != 2 || row[0] != 2 || row[1] != 8 {
		t.Fatalf("Row(1) = %v", row)
	}
}

func TestColumnDistinctAndDomainWidth(t *testing.T) {
	c := catCol("c", []int64{0, 0, 1, 2, 2, 2}, 5)
	if d := c.Distinct(); d != 3 {
		t.Errorf("Distinct = %d, want 3", d)
	}
	if w := c.DomainWidth(); w != 5 {
		t.Errorf("DomainWidth = %d, want 5", w)
	}
	nc := numCol("n", []int64{3, 4}, 2, 9)
	if w := nc.DomainWidth(); w != 8 {
		t.Errorf("numeric DomainWidth = %d, want 8", w)
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	tab, err := GenerateCensus(GenConfig{Rows: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{
		{Col: "age", Op: OpRange, Lo: 20, Hi: 50},
		{Col: "sex", Op: OpEq, Lo: 1},
	}
	got, err := tab.Count(preds)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	age := tab.Column("age").Values
	sex := tab.Column("sex").Values
	for i := 0; i < tab.NumRows(); i++ {
		if age[i] >= 20 && age[i] <= 50 && sex[i] == 1 {
			want++
		}
	}
	if got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestCountEmptyPredicates(t *testing.T) {
	tab := MustNewTable("t", []*Column{catCol("x", []int64{0, 1, 2}, 3)})
	n, err := tab.Count(nil)
	if err != nil || n != 3 {
		t.Fatalf("Count(nil) = %d, %v; want 3, nil", n, err)
	}
}

func TestCountUnknownColumn(t *testing.T) {
	tab := MustNewTable("t", []*Column{catCol("x", []int64{0}, 3)})
	if _, err := tab.Count([]Predicate{{Col: "nope", Op: OpEq, Lo: 0}}); err == nil {
		t.Fatal("expected error for unknown column")
	}
	if _, err := tab.MatchingRows([]Predicate{{Col: "nope", Op: OpEq, Lo: 0}}); err == nil {
		t.Fatal("expected error for unknown column in MatchingRows")
	}
}

func TestSelectivityBounds(t *testing.T) {
	tab, err := GenerateDMV(GenConfig{Rows: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tab.Selectivity([]Predicate{{Col: "state", Op: OpEq, Lo: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0 || sel > 1 {
		t.Fatalf("selectivity %v out of [0,1]", sel)
	}
}

// Property: Count over a full-domain range predicate equals the table size.
func TestFullRangeCountsEverything(t *testing.T) {
	tab, err := GenerateForest(GenConfig{Rows: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tab.Cols {
		n, err := tab.Count([]Predicate{{Col: c.Name, Op: OpRange, Lo: c.Min, Hi: c.Max}})
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(tab.NumRows()) {
			t.Fatalf("full-range count on %s = %d, want %d", c.Name, n, tab.NumRows())
		}
	}
}

// Property: conjunction is monotone — adding predicates never increases count.
func TestConjunctionMonotonicity(t *testing.T) {
	tab, err := GeneratePower(GenConfig{Rows: 400, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	f := func(lo1, w1, lo2, w2 uint16) bool {
		c1 := tab.Cols[0]
		c2 := tab.Cols[2]
		p1 := Predicate{Col: c1.Name, Op: OpRange,
			Lo: c1.Min + int64(lo1)%c1.DomainWidth(),
		}
		p1.Hi = p1.Lo + int64(w1)%(c1.Max-p1.Lo+1)
		p2 := Predicate{Col: c2.Name, Op: OpRange,
			Lo: c2.Min + int64(lo2)%c2.DomainWidth(),
		}
		p2.Hi = p2.Lo + int64(w2)%(c2.Max-p2.Lo+1)
		n1, err1 := tab.Count([]Predicate{p1})
		n12, err2 := tab.Count([]Predicate{p1, p2})
		return err1 == nil && err2 == nil && n12 <= n1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err := GenerateDMV(GenConfig{Rows: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDMV(GenConfig{Rows: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range a.Cols {
		for ri := range a.Cols[ci].Values {
			if a.Cols[ci].Values[ri] != b.Cols[ci].Values[ri] {
				t.Fatalf("generation not deterministic at col %d row %d", ci, ri)
			}
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		name string
		gen  func(GenConfig) (*Table, error)
		cols int
	}{
		{"dmv", GenerateDMV, 11},
		{"census", GenerateCensus, 10},
		{"forest", GenerateForest, 10},
		{"power", GeneratePower, 7},
	}
	for _, tc := range cases {
		tab, err := tc.gen(GenConfig{Rows: 250, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tab.NumCols() != tc.cols {
			t.Errorf("%s: got %d cols, want %d", tc.name, tab.NumCols(), tc.cols)
		}
		if tab.NumRows() != 250 {
			t.Errorf("%s: got %d rows, want 250", tc.name, tab.NumRows())
		}
		for _, c := range tab.Cols {
			for _, v := range c.Values {
				lo, hi := c.Min, c.Max
				if c.Type == Categorical {
					lo, hi = 0, c.DomainSize-1
				}
				if v < lo || v > hi {
					t.Fatalf("%s.%s value %d outside [%d,%d]", tc.name, c.Name, v, lo, hi)
				}
			}
		}
	}
}

func TestGenConfigValidation(t *testing.T) {
	if _, err := GenerateDMV(GenConfig{Rows: 0}); err == nil {
		t.Fatal("Rows=0 should fail validation")
	}
	if _, err := GenerateDSB(GenConfig{Rows: -5}); err == nil {
		t.Fatal("negative Rows should fail validation")
	}
}

func TestDMVSkewPresent(t *testing.T) {
	tab, err := GenerateDMV(GenConfig{Rows: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Zipf skew: the most frequent record_type should dominate.
	counts := map[int64]int{}
	for _, v := range tab.Column("record_type").Values {
		counts[v]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/5000 < 0.2 {
		t.Errorf("expected skewed marginal, top frequency fraction = %v", float64(max)/5000)
	}
}

func TestOpAndTypeStrings(t *testing.T) {
	if OpEq.String() != "=" || OpRange.String() != "between" {
		t.Error("Op.String mismatch")
	}
	if Op(99).String() == "" || ColumnType(99).String() == "" {
		t.Error("unknown enum String should be non-empty")
	}
	if Categorical.String() != "categorical" || Numeric.String() != "numeric" {
		t.Error("ColumnType.String mismatch")
	}
	p := Predicate{Col: "c", Op: OpRange, Lo: 1, Hi: 5}
	if p.String() == "" || (Predicate{Col: "c", Op: OpEq, Lo: 3}).String() == "" {
		t.Error("Predicate.String should be non-empty")
	}
}

func TestPredicateMatches(t *testing.T) {
	eq := Predicate{Op: OpEq, Lo: 5}
	if !eq.Matches(5) || eq.Matches(4) {
		t.Error("OpEq.Matches wrong")
	}
	rg := Predicate{Op: OpRange, Lo: 2, Hi: 4}
	if !rg.Matches(2) || !rg.Matches(4) || rg.Matches(1) || rg.Matches(5) {
		t.Error("OpRange.Matches wrong")
	}
}

func TestSelectRows(t *testing.T) {
	tab, err := GenerateCensus(GenConfig{Rows: 100, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	sub := tab.SelectRows([]int{5, 10, 99})
	if sub.NumRows() != 3 || sub.NumCols() != tab.NumCols() {
		t.Fatalf("SelectRows shape %dx%d", sub.NumRows(), sub.NumCols())
	}
	for ci := range tab.Cols {
		if sub.Cols[ci].Values[0] != tab.Cols[ci].Values[5] ||
			sub.Cols[ci].Values[2] != tab.Cols[ci].Values[99] {
			t.Fatal("SelectRows copied wrong values")
		}
	}
	// Mutating the subset must not affect the original.
	orig := tab.Cols[0].Values[5]
	sub.Cols[0].Values[0] = orig + 1
	if tab.Cols[0].Values[5] != orig {
		t.Fatal("SelectRows shares storage with the original table")
	}
}

func TestGenerateCorrelated(t *testing.T) {
	for _, rho := range []float64{0, 0.9} {
		tab, err := GenerateCorrelated(GenConfig{Rows: 4000, Seed: 1}, 2, rho)
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumCols() != 4 {
			t.Fatalf("cols = %d", tab.NumCols())
		}
		// Measure dependence: P(b0 = f(a0)) should be ~rho + chance.
		a := tab.Column("a0").Values
		b := tab.Column("b0").Values
		match := 0
		for i := range a {
			if b[i] == (a[i]*2654435761+17)%24 {
				match++
			}
		}
		frac := float64(match) / 4000
		if rho == 0 && frac > 0.2 {
			t.Errorf("rho=0: dependence fraction %v too high", frac)
		}
		if rho == 0.9 && frac < 0.8 {
			t.Errorf("rho=0.9: dependence fraction %v too low", frac)
		}
	}
	if _, err := GenerateCorrelated(GenConfig{Rows: 10, Seed: 1}, 0, 0.5); err == nil {
		t.Fatal("pairs=0 should fail")
	}
	if _, err := GenerateCorrelated(GenConfig{Rows: 10, Seed: 1}, 1, 2); err == nil {
		t.Fatal("rho>1 should fail")
	}
}

func TestCountParallelMatchesSequential(t *testing.T) {
	// Above the parallel threshold, Count fans out; the result must match a
	// brute-force scan exactly.
	tab, err := GenerateDMV(GenConfig{Rows: parallelThreshold + 1000, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Both runs are broad (state 1..49 holds about 46k of the 66.5k rows),
	// so Count scans instead of refining the narrowest run.
	preds := []Predicate{
		{Col: "state", Op: OpRange, Lo: 1, Hi: 49},
		{Col: "model_year", Op: OpRange, Lo: 30, Hi: 100},
	}
	got, err := tab.Count(preds)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := tab.compile(preds)
	if err != nil {
		t.Fatal(err)
	}
	want := countChunk(bounds, 0, tab.NumRows())
	if got != want {
		t.Fatalf("parallel count %d != sequential %d", got, want)
	}
}
