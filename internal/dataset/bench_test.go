package dataset

import (
	"math/rand"
	"testing"
)

// servebenchQueries draws n queries shaped like the serve benchmark's query
// universe: 1–3 conjuncts on distinct columns, anchored on one random row,
// with a range on a numeric column 80% of the time and an equality
// otherwise. The serve benchmark is its own module, so the recipe is
// repeated here.
func servebenchQueries(tab *Table, n int, seed int64) [][]Predicate {
	r := rand.New(rand.NewSource(seed))
	cols, rows := tab.Cols, tab.NumRows()
	out := make([][]Predicate, n)
	for q := range out {
		k := 1 + r.Intn(min(3, len(cols)))
		anchor := r.Intn(rows)
		preds := make([]Predicate, 0, k)
		for _, ci := range r.Perm(len(cols))[:k] {
			c := cols[ci]
			v := c.Values[anchor]
			if c.Type == Categorical || r.Float64() >= 0.8 {
				preds = append(preds, Predicate{Col: c.Name, Op: OpEq, Lo: v})
				continue
			}
			w := 1 + r.Int63n(max(1, c.DomainWidth()/4))
			lo := max(c.Min, v-r.Int63n(w+1))
			preds = append(preds, Predicate{Col: c.Name, Op: OpRange, Lo: lo, Hi: min(c.Max, lo+w)})
		}
		out[q] = preds
	}
	return out
}

// countCase is one BenchmarkCount workload: a table and the queries an
// iteration cycles through. broad marks the queries whose narrowest
// conjunct holds over half the table, so Count falls back to the scan.
type countCase struct {
	name    string
	tab     *Table
	queries [][]Predicate
	broad   bool
}

func countCases(b *testing.B) []countCase {
	big, err := GenerateDMV(GenConfig{Rows: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	small, err := GenerateDMV(GenConfig{Rows: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// power's rows are independent draws, so a value order visits rows in
	// random order and a refined run reads the other columns at random.
	power, err := GeneratePower(GenConfig{Rows: 200000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cases := []countCase{
		{name: "dmv-100k", tab: big, queries: [][]Predicate{{
			{Col: "state", Op: OpEq, Lo: 3},
			{Col: "model_year", Op: OpRange, Lo: 40, Hi: 90},
		}}},
		{name: "servebench-shaped", tab: small, queries: servebenchQueries(small, 4096, 3)},
		{name: "dmv-20k-broad", tab: small, broad: true, queries: [][]Predicate{{
			{Col: "model_year", Op: OpRange, Lo: 20, Hi: 119},
			{Col: "record_type", Op: OpRange, Lo: 0, Hi: 40},
			{Col: "state", Op: OpRange, Lo: 0, Hi: 40},
			{Col: "color", Op: OpRange, Lo: 0, Hi: 15},
		}}},
		{name: "power-200k-narrow", tab: power, queries: [][]Predicate{{
			{Col: "global_active_power", Op: OpRange, Lo: 100, Hi: 120},
			{Col: "voltage", Op: OpRange, Lo: 400, Hi: 550},
			{Col: "sub_metering_3", Op: OpRange, Lo: 0, Hi: 200},
		}}},
		{name: "power-200k-broad", tab: power, broad: true, queries: [][]Predicate{{
			{Col: "global_active_power", Op: OpRange, Lo: 0, Hi: 800},
			{Col: "voltage", Op: OpRange, Lo: 330, Hi: 650},
			{Col: "sub_metering_3", Op: OpRange, Lo: 0, Hi: 300},
		}}},
	}
	// A fixed-query case must take the path its name says.
	for _, cc := range cases {
		if len(cc.queries) != 1 {
			continue
		}
		c, err := cc.tab.compile(cc.queries[0])
		if err != nil {
			b.Fatal(err)
		}
		narrowest := cc.tab.NumRows()
		for _, bd := range c.bounds() {
			narrowest = min(narrowest, len(bd.matchRange(cc.tab.order(bd.ci))))
		}
		if broad := 2*narrowest > cc.tab.NumRows(); broad != cc.broad {
			b.Fatalf("%s: narrowest conjunct holds %d of %d rows, broad = %v", cc.name, narrowest, cc.tab.NumRows(), broad)
		}
	}
	return cases
}

// BenchmarkCount times Table.Count, which answers from the value orders
// (built before the timer starts) unless the case is broad.
func BenchmarkCount(b *testing.B) {
	for _, cc := range countCases(b) {
		b.Run(cc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cc.tab.Count(cc.queries[i%len(cc.queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountScan times the column-at-a-time scan on the same workloads:
// what Count ran for every query before the value orders, fanned out across
// GOMAXPROCS goroutines above parallelThreshold, and what it still runs for
// broad ones.
func BenchmarkCountScan(b *testing.B) {
	for _, cc := range countCases(b) {
		b.Run(cc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := cc.tab.compile(cc.queries[i%len(cc.queries)])
				if err != nil {
					b.Fatal(err)
				}
				scanCount(c.bounds(), cc.tab.NumRows())
			}
		})
	}
}

// BenchmarkCountRowScan times the row-at-a-time reference on the same
// workloads, one goroutine.
func BenchmarkCountRowScan(b *testing.B) {
	for _, cc := range countCases(b) {
		b.Run(cc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := cc.tab.compile(cc.queries[i%len(cc.queries)])
				if err != nil {
					b.Fatal(err)
				}
				countChunk(c, 0, cc.tab.NumRows())
			}
		})
	}
}

// BenchmarkCountIndexBuild times building every column's value order of a
// table, as the first Counts over all its columns do. B/op is the
// allocation, scratch included; index-bytes is what the table keeps.
func BenchmarkCountIndexBuild(b *testing.B) {
	for _, g := range []struct {
		name string
		gen  func(GenConfig) (*Table, error)
		rows int
	}{{"dmv-20k", GenerateDMV, 20000}, {"power-200k", GeneratePower, 200000}} {
		tab, err := g.gen(GenConfig{Rows: g.rows, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range tab.Cols {
					sortRows(c.Values)
				}
			}
			b.ReportMetric(float64(4*tab.NumRows()*tab.NumCols()), "index-bytes")
		})
	}
}

func BenchmarkJoinCount(b *testing.B) {
	sch, err := GenerateJOB(GenConfig{Rows: 5000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	q := JoinQuery{
		Tables: []string{"cast_info", "movie_info"},
		Preds: map[string][]Predicate{
			"title":     {{Col: "kind_id", Op: OpEq, Lo: 0}},
			"cast_info": {{Col: "ci_role_id", Op: OpRange, Lo: 0, Hi: 4}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.JoinCount(q); err != nil {
			b.Fatal(err)
		}
	}
}
