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
// iteration cycles through.
type countCase struct {
	name    string
	tab     *Table
	queries [][]Predicate
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
	return []countCase{
		{"dmv-100k", big, [][]Predicate{{
			{Col: "state", Op: OpEq, Lo: 3},
			{Col: "model_year", Op: OpRange, Lo: 40, Hi: 90},
		}}},
		{"servebench-shaped", small, servebenchQueries(small, 4096, 3)},
	}
}

// BenchmarkCount times Table.Count. dmv-100k is above parallelThreshold, so
// it fans out across GOMAXPROCS goroutines; dmv-100k-one-goroutine runs the
// same scan on the calling goroutine, to show whether the fan-out pays.
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
		if cc.tab.NumRows() < parallelThreshold {
			continue
		}
		b.Run(cc.name+"-one-goroutine", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := cc.tab.compile(cc.queries[i%len(cc.queries)])
				if err != nil {
					b.Fatal(err)
				}
				scan(c.bounds(), 0, cc.tab.NumRows(), nil)
			}
		})
	}
}

// BenchmarkCountRowScan times the row-at-a-time reference on the same
// workloads, one goroutine, as the before side of BenchmarkCount.
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
