package scenario

import (
	"slices"
	"testing"

	"cardpi/internal/dataset"
)

// testTable builds a small two-column table: one categorical (domain 50) and
// one numeric ([0, 99]).
func testTable(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	cat := make([]int64, rows)
	num := make([]int64, rows)
	for i := 0; i < rows; i++ {
		cat[i] = int64(i % 50)
		num[i] = int64(i % 100)
	}
	return dataset.MustNewTable("drill", []*dataset.Column{
		{Name: "region", Type: dataset.Categorical, Values: cat, DomainSize: 50},
		{Name: "year", Type: dataset.Numeric, Values: num, Min: 0, Max: 99},
	})
}

// inHotDecile reports whether v falls in the column's top domain decile —
// the region every mutator draws from.
func inHotDecile(c *dataset.Column, v int64) bool {
	dec := c.DomainWidth() / 10
	if dec < 1 {
		dec = 1
	}
	if c.Type == dataset.Categorical {
		return v >= c.DomainSize-dec && v < c.DomainSize
	}
	return v >= c.Max-dec+1 && v <= c.Max
}

func TestCloneIsIndependent(t *testing.T) {
	orig := testTable(t, 100)
	clone := dataset.MustNewTable(orig.Name, columns(orig, 1, all))
	if clone.NumRows() != orig.NumRows() {
		t.Fatalf("clone rows %d != %d", clone.NumRows(), orig.NumRows())
	}
	clone.Cols[0].Values[0] = 49
	clone.Cols[1].Values = append(clone.Cols[1].Values, 7)
	if orig.Cols[0].Values[0] == 49 {
		t.Error("mutating the clone's values leaked into the original")
	}
	if orig.NumRows() != 100 {
		t.Errorf("appending to the clone changed the original's row count to %d", orig.NumRows())
	}
	// Domain metadata must survive the copy so parsing stays valid.
	if clone.Column("region").DomainSize != 50 || clone.Column("year").Max != 99 {
		t.Error("clone lost column domain metadata")
	}
}

func TestDegradeRewritesExactFraction(t *testing.T) {
	orig := testTable(t, 200)
	for _, health := range []int{100, 90, 50, 0} {
		tab, changed, err := Degrade(orig, health, 42)
		if err != nil {
			t.Fatalf("Degrade(health=%d): %v", health, err)
		}
		want := 200 * (100 - health) / 100
		if changed != want {
			t.Errorf("health %d: rewrote %d rows, want %d", health, changed, want)
		}
		// Count rows that differ from the original in any column.
		differ := 0
		for i := 0; i < tab.NumRows(); i++ {
			if tab.Cols[0].Values[i] != orig.Cols[0].Values[i] ||
				tab.Cols[1].Values[i] != orig.Cols[1].Values[i] {
				differ++
			}
		}
		if differ > want {
			t.Errorf("health %d: %d rows differ, want at most %d", health, differ, want)
		}
		// Every rewritten value must land in the hot decile and in-domain.
		for _, c := range tab.Cols {
			oc := orig.Column(c.Name)
			for i, v := range c.Values {
				if v == oc.Values[i] {
					continue
				}
				if !inHotDecile(c, v) {
					t.Fatalf("health %d: column %s row %d rewritten to %d outside the hot decile",
						health, c.Name, i, v)
				}
			}
		}
	}
}

func TestDegradeValidatesHealth(t *testing.T) {
	tab := testTable(t, 10)
	for _, health := range []int{-1, 101} {
		if _, _, err := Degrade(tab, health, 1); err == nil {
			t.Errorf("Degrade accepted health %d", health)
		}
	}
}

func TestDegradeIsSeedDeterministic(t *testing.T) {
	orig := testTable(t, 100)
	a, _, err := Degrade(orig, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Degrade(orig, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range a.Cols {
		for i := range a.Cols[ci].Values {
			if a.Cols[ci].Values[i] != b.Cols[ci].Values[i] {
				t.Fatalf("same seed diverged at column %d row %d", ci, i)
			}
		}
	}
}

func TestInsertSkewedGrowsAllColumns(t *testing.T) {
	orig := testTable(t, 100)
	tab, changed, err := InsertSkewed(orig, 40, 9)
	if err != nil {
		t.Fatalf("InsertSkewed: %v", err)
	}
	if changed != 40 || tab.NumRows() != 140 {
		t.Fatalf("inserted %d rows, table now %d, want 40 and 140", changed, tab.NumRows())
	}
	for _, c := range tab.Cols {
		if len(c.Values) != 140 {
			t.Fatalf("column %s has %d values after insert, want 140", c.Name, len(c.Values))
		}
		for i := 100; i < 140; i++ {
			if !inHotDecile(c, c.Values[i]) {
				t.Fatalf("inserted value %d in column %s outside the hot decile", c.Values[i], c.Name)
			}
		}
	}
	if orig.NumRows() != 100 {
		t.Errorf("InsertSkewed grew the original table to %d rows", orig.NumRows())
	}
	if _, _, err := InsertSkewed(tab, 0, 9); err == nil {
		t.Error("InsertSkewed accepted a non-positive row count")
	}
}

func TestSkewColumnTouchesOnlyNamedColumn(t *testing.T) {
	orig := testTable(t, 200)
	tab, changed, err := SkewColumn(orig, "region", 0.5, 3)
	if err != nil {
		t.Fatalf("SkewColumn: %v", err)
	}
	if changed != 100 {
		t.Errorf("rewrote %d values, want 100", changed)
	}
	for i, v := range tab.Column("year").Values {
		if v != orig.Column("year").Values[i] {
			t.Fatalf("SkewColumn(region) mutated column year at row %d", i)
		}
	}
	rewritten := 0
	for i, v := range tab.Column("region").Values {
		if v != orig.Column("region").Values[i] {
			rewritten++
			if !inHotDecile(tab.Column("region"), v) {
				t.Fatalf("rewritten region value %d outside the hot decile", v)
			}
		}
	}
	if rewritten > 100 {
		t.Errorf("%d region values differ, want at most 100", rewritten)
	}
}

func TestSkewColumnValidatesInput(t *testing.T) {
	tab := testTable(t, 10)
	if _, _, err := SkewColumn(tab, "no_such_column", 0.5, 1); err == nil {
		t.Error("SkewColumn accepted an unknown column")
	}
	for _, frac := range []float64{-0.1, 1.1} {
		if _, _, err := SkewColumn(tab, "region", frac, 1); err == nil {
			t.Errorf("SkewColumn accepted frac %v", frac)
		}
	}
}

// rowCount is the row-at-a-time count of preds over tab.
func rowCount(tab *dataset.Table, preds []dataset.Predicate) int64 {
	var n int64
rows:
	for i := 0; i < tab.NumRows(); i++ {
		for _, p := range preds {
			if !p.Matches(tab.Column(p.Col).Values[i]) {
				continue rows
			}
		}
		n++
	}
	return n
}

// TestMutatorsLeaveCountedTableIntact: Count builds a table's value orders
// on first use, so a mutator that wrote the counted table would leave them
// stale. Each mutator must return a table that counts like a row scan of
// its own values, while the original's counts do not move.
func TestMutatorsLeaveCountedTableIntact(t *testing.T) {
	queries := [][]dataset.Predicate{
		{{Col: "region", Op: dataset.OpEq, Lo: 47}},
		{{Col: "year", Op: dataset.OpRange, Lo: 90, Hi: 99}},
		{{Col: "region", Op: dataset.OpRange, Lo: 45, Hi: 49}, {Col: "year", Op: dataset.OpRange, Lo: 0, Hi: 95}},
		{{Col: "region", Op: dataset.OpRange, Lo: 0, Hi: 40}, {Col: "year", Op: dataset.OpRange, Lo: 5, Hi: 99}},
	}
	counts := func(tab *dataset.Table) []int64 {
		t.Helper()
		out := make([]int64, len(queries))
		for i, q := range queries {
			n, err := tab.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := rowCount(tab, q); n != want {
				t.Fatalf("Count(%v) = %d, row scan %d", q, n, want)
			}
			out[i] = n
		}
		return out
	}
	orig := testTable(t, 1000)
	before := counts(orig)
	for _, m := range []struct {
		name string
		run  func(*dataset.Table) (*dataset.Table, int, error)
	}{
		{"degrade", func(tab *dataset.Table) (*dataset.Table, int, error) { return Degrade(tab, 50, 1) }},
		{"insert", func(tab *dataset.Table) (*dataset.Table, int, error) { return InsertSkewed(tab, 300, 2) }},
		{"skew", func(tab *dataset.Table) (*dataset.Table, int, error) { return SkewColumn(tab, "region", 0.5, 3) }},
	} {
		mutated, changed, err := m.run(orig)
		if err != nil || changed == 0 {
			t.Fatalf("%s: changed %d, err %v", m.name, changed, err)
		}
		after := counts(mutated)
		if slices.Equal(after, before) {
			t.Errorf("%s: the returned table counts %v, like the original", m.name, after)
		}
		if got := counts(orig); !slices.Equal(got, before) {
			t.Fatalf("%s: the original's counts moved from %v to %v", m.name, before, got)
		}
	}
}
