package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// countChunk is the readable reference for scan: the row-at-a-time loop
// Count ran before the column-at-a-time kernel. It counts the rows in
// [start, end) that satisfy every bound.
func countChunk(c conjunction, start, end int) int64 {
	bounds := c.bounds()
	var count int64
rows:
	for i := start; i < end; i++ {
		for _, b := range bounds {
			v := b.col[i]
			if v < b.lo || v > b.hi {
				continue rows
			}
		}
		count++
	}
	return count
}

// matchingRowsRef is the row-at-a-time reference for MatchingRows.
func matchingRowsRef(c conjunction, n int) []int {
	bounds := c.bounds()
	var out []int
rows:
	for i := 0; i < n; i++ {
		for _, b := range bounds {
			v := b.col[i]
			if v < b.lo || v > b.hi {
				continue rows
			}
		}
		out = append(out, i)
	}
	return out
}

// extremes are the int64 values where a wrapping v-lo could go wrong.
var extremes = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}

// randomPreds draws k conjuncts over tab's columns (with replacement, so a
// column can be constrained twice). Most are anchored on a row's value like
// a workload query; the rest are empty ranges (hi < lo) or use bounds at
// the ends of int64.
func randomPreds(r *rand.Rand, tab *Table, k int) []Predicate {
	preds := make([]Predicate, 0, k)
	for len(preds) < k {
		c := tab.Cols[r.Intn(len(tab.Cols))]
		v := c.Values[r.Intn(len(c.Values))]
		w := r.Int63n(1 + max(1, c.DomainWidth())/4)
		ext := func() int64 { return extremes[r.Intn(len(extremes))] }
		var p Predicate
		switch r.Intn(8) {
		case 0, 1:
			p = Predicate{Col: c.Name, Op: OpEq, Lo: v}
		case 2, 3:
			p = Predicate{Col: c.Name, Op: OpRange, Lo: v - r.Int63n(w+1), Hi: v + w}
		case 4:
			p = Predicate{Col: c.Name, Op: OpRange, Lo: v + 1 + w, Hi: v}
		case 5:
			p = Predicate{Col: c.Name, Op: OpRange, Lo: math.MinInt64, Hi: v}
		case 6:
			p = Predicate{Col: c.Name, Op: OpRange, Lo: v, Hi: math.MaxInt64}
		default:
			p = Predicate{Col: c.Name, Op: Op(r.Intn(2)), Lo: ext(), Hi: ext()}
		}
		preds = append(preds, p)
		// Constrain the same column a second time now and then.
		if r.Intn(4) == 0 && len(preds) < k {
			preds = append(preds, Predicate{Col: c.Name, Op: OpRange, Lo: v - w, Hi: v + r.Int63n(w+1)})
		}
	}
	return preds
}

// extremeTable is a table whose values sit at and around the ends of int64.
func extremeTable(rows int, seed int64) *Table {
	r := rand.New(rand.NewSource(seed))
	cols := make([]*Column, 3)
	for j := range cols {
		vals := make([]int64, rows)
		for i := range vals {
			if r.Intn(2) == 0 {
				vals[i] = extremes[r.Intn(len(extremes))]
			} else {
				vals[i] = r.Int63n(7) - 3
			}
		}
		cols[j] = numCol(fmt.Sprintf("x%d", j), vals, math.MinInt64, math.MaxInt64)
	}
	return MustNewTable("extremes", cols)
}

// wideTable is a table of uniformly random int64 values: every byte of the
// keys varies, so each radix pass of its value orders moves rows.
func wideTable(rows int, seed int64) *Table {
	r := rand.New(rand.NewSource(seed))
	cols := make([]*Column, 2)
	for j := range cols {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(r.Uint64())
		}
		cols[j] = numCol(fmt.Sprintf("w%d", j), vals, math.MinInt64, math.MaxInt64)
	}
	return MustNewTable("wide", cols)
}

// broadPreds draws k range conjuncts that each hold at least 60% of tab's
// rows: the bounds are column values at or below the 20th and at or above
// the 80th percentile.
func broadPreds(r *rand.Rand, tab *Table, k int) []Predicate {
	preds := make([]Predicate, k)
	for i := range preds {
		c := tab.Cols[r.Intn(len(tab.Cols))]
		sorted := slices.Clone(c.Values)
		slices.Sort(sorted)
		n := len(sorted)
		lo := sorted[r.Intn(n/5+1)]
		hi := sorted[n-1-r.Intn(n/5+1)]
		preds[i] = Predicate{Col: c.Name, Op: OpRange, Lo: lo, Hi: hi}
	}
	return preds
}

// referenceTables returns every table shape the reference tests cover, at
// the block and fan-out edges of the scan.
func referenceTables(t testing.TB) []*Table {
	gens := []struct {
		name string
		gen  func(GenConfig) (*Table, error)
	}{{"dmv", GenerateDMV}, {"census", GenerateCensus}, {"forest", GenerateForest}, {"power", GeneratePower}}
	var tabs []*Table
	for _, rows := range []int{1, blockRows - 1, blockRows, blockRows + 1, parallelThreshold - 1, parallelThreshold + 1} {
		for i, g := range gens {
			tab, err := g.gen(GenConfig{Rows: rows, Seed: int64(rows + i)})
			if err != nil {
				t.Fatal(err)
			}
			tab.Name = fmt.Sprintf("%s-%d", g.name, rows)
			tabs = append(tabs, tab)
		}
		tabs = append(tabs, extremeTable(rows, int64(rows)))
	}
	for _, rows := range []int{1, blockRows + 1, parallelThreshold + 1} {
		tabs = append(tabs, wideTable(rows, int64(rows)))
	}
	return tabs
}

// checkCount compares Count with the row-at-a-time reference.
func checkCount(t testing.TB, tab *Table, preds []Predicate) {
	t.Helper()
	c, err := tab.compile(preds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.Count(preds)
	if err != nil {
		t.Fatal(err)
	}
	if want := countChunk(c, 0, tab.NumRows()); got != want {
		t.Fatalf("%s: Count(%v) = %d, row scan %d", tab.Name, preds, got, want)
	}
}

// checkMatchingRows compares MatchingRows with the row-at-a-time reference.
func checkMatchingRows(t testing.TB, tab *Table, preds []Predicate) {
	t.Helper()
	c, err := tab.compile(preds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.MatchingRows(preds)
	if err != nil {
		t.Fatal(err)
	}
	if want := matchingRowsRef(c, tab.NumRows()); !slices.Equal(got, want) {
		t.Fatalf("%s: MatchingRows(%v) has %d rows, row scan %d", tab.Name, preds, len(got), len(want))
	}
}

func TestCountMatchesRowScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, tab := range referenceTables(t) {
		for q := 0; q < 60; q++ {
			checkCount(t, tab, randomPreds(r, tab, q%5))
		}
	}
	// Every Count path on every table: no conjunct; one conjunct, answered
	// from the value order alone; an equality's narrow run refined by the
	// others; conjuncts all holding over half the table, which fall back
	// to the scan; and more conjuncts than compile inline.
	for _, tab := range referenceTables(t) {
		for q := 0; q < 12; q++ {
			checkCount(t, tab, nil)
			checkCount(t, tab, randomPreds(r, tab, 1))
			c := tab.Cols[r.Intn(len(tab.Cols))]
			eq := Predicate{Col: c.Name, Op: OpEq, Lo: c.Values[r.Intn(len(c.Values))]}
			checkCount(t, tab, append([]Predicate{eq}, randomPreds(r, tab, 1+q%3)...))
			checkCount(t, tab, broadPreds(r, tab, 2+q%3))
			checkCount(t, tab, randomPreds(r, tab, maxInlineBounds+1+q%3))
		}
	}
}

func TestMatchingRowsMatchesRowScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, tab := range referenceTables(t) {
		for q := 0; q < 20; q++ {
			checkMatchingRows(t, tab, randomPreds(r, tab, q%5))
		}
	}
}

// More conjuncts than maxInlineBounds spill to the heap but count the same.
func TestCountManyConjuncts(t *testing.T) {
	tab, err := GenerateCensus(GenConfig{Rows: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for q := 0; q < 50; q++ {
		preds := randomPreds(r, tab, maxInlineBounds+1+q%4)
		checkCount(t, tab, preds)
		checkMatchingRows(t, tab, preds)
	}
}

func TestCountZeroAllocs(t *testing.T) {
	tab, err := GenerateDMV(GenConfig{Rows: parallelThreshold - 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for k := 0; k <= maxInlineBounds; k++ {
		preds := randomPreds(r, tab, k)
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := tab.Count(preds); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("Count with %d conjuncts: %v allocs, want 0", k, allocs)
		}
	}
	// An unknown column still fails, with the same error.
	_, err = tab.Count([]Predicate{{Col: "state", Op: OpEq}, {Col: "nope", Op: OpEq}})
	if want := `dataset: table "dmv" has no column "nope"`; err == nil || err.Error() != want {
		t.Fatalf("unknown column error = %v, want %s", err, want)
	}
}

// manyConjuncts is a FuzzCount query of maxInlineBounds+2 conjuncts that
// cycles through the columns from c and through the fuzzed bounds.
func manyConjuncts(col func(uint8) string, c uint8, lo0, hi0, lo1, hi1 int64) []Predicate {
	preds := make([]Predicate, maxInlineBounds+2)
	for i := range preds {
		preds[i] = Predicate{Col: col(c + uint8(i)), Op: OpRange, Lo: lo0, Hi: hi0}
		if i%2 == 1 {
			preds[i].Lo, preds[i].Hi = lo1, hi1
		}
	}
	return preds
}

// TestCountBuildsOrdersOnce: concurrent first Counts on a fresh table build
// each constrained column's value order exactly once, and all agree.
func TestCountBuildsOrdersOnce(t *testing.T) {
	tab, err := GenerateDMV(GenConfig{Rows: 3 * blockRows, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{
		{Col: "state", Op: OpEq, Lo: 3},
		{Col: "model_year", Op: OpRange, Lo: 30, Hi: 90},
		{Col: "color", Op: OpRange, Lo: 0, Hi: 10},
	}
	c, err := tab.compile(preds)
	if err != nil {
		t.Fatal(err)
	}
	want := countChunk(c, 0, tab.NumRows())
	before := orderBuilds.Load()
	const goroutines = 8
	start := make(chan struct{})
	got := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			n, err := tab.Count(preds)
			if err != nil {
				t.Error(err)
			}
			got[g] = n
		}()
	}
	close(start)
	wg.Wait()
	if built := orderBuilds.Load() - before; built != int64(len(preds)) {
		t.Fatalf("%d concurrent first Counts built %d value orders, want %d", goroutines, built, len(preds))
	}
	for g, n := range got {
		if n != want {
			t.Fatalf("goroutine %d: Count = %d, row scan %d", g, n, want)
		}
	}
}

func FuzzCount(f *testing.F) {
	f.Add(uint16(1), int64(1), uint8(0), uint8(1), int64(0), int64(0), int64(-3), int64(3))
	f.Add(uint16(blockRows-1), int64(2), uint8(0), uint8(0), int64(math.MinInt64), int64(math.MaxInt64), int64(1), int64(0))
	f.Add(uint16(blockRows), int64(3), uint8(1), uint8(2), int64(math.MinInt64), int64(0), int64(0), int64(math.MaxInt64))
	f.Add(uint16(blockRows+1), int64(4), uint8(2), uint8(2), int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MinInt64))
	f.Add(uint16(3*blockRows+7), int64(5), uint8(0), uint8(1), int64(-1), int64(1), int64(math.MinInt64+1), int64(math.MaxInt64-1))
	// A narrow equality run refined by a second conjunct, and two
	// conjuncts over the whole int64 range, which fall back to the scan.
	f.Add(uint16(2*blockRows+3), int64(6), uint8(1), uint8(2), int64(0), int64(0), int64(-3), int64(3))
	f.Add(uint16(4*blockRows-1), int64(7), uint8(2), uint8(0), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(uint16(blockRows+5), int64(8), uint8(0), uint8(0), int64(math.MaxInt64), int64(math.MaxInt64), int64(-1), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, rows uint16, seed int64, c0, c1 uint8, lo0, hi0, lo1, hi1 int64) {
		tab := extremeTable(1+int(rows)%(4*blockRows), seed)
		col := func(c uint8) string { return tab.Cols[int(c)%len(tab.Cols)].Name }
		for _, preds := range [][]Predicate{
			nil,
			{{Col: col(c0), Op: OpRange, Lo: lo0, Hi: hi0}},
			{{Col: col(c0), Op: OpEq, Lo: lo0}, {Col: col(c1), Op: OpRange, Lo: lo1, Hi: hi1}},
			{{Col: col(c0), Op: OpRange, Lo: lo0, Hi: hi0}, {Col: col(c1), Op: OpRange, Lo: lo1, Hi: hi1}, {Col: col(c0 + 1), Op: OpEq, Lo: hi0}},
			manyConjuncts(col, c0, lo0, hi0, lo1, hi1),
		} {
			checkCount(t, tab, preds)
			checkMatchingRows(t, tab, preds)
		}
	})
}
