package workload

import (
	"math/rand"
	"testing"

	"cardpi/internal/dataset"
)

// servebenchLines returns DMV at 20k rows (the serve benchmark's table) and
// n distinct query lines drawn with the serve benchmark's universe recipe:
// 1–3 conjuncts on distinct columns anchored on one random row, a range on
// a numeric column 80% of the time and an equality otherwise, rendered
// canonically. The serve benchmark is its own module, so the recipe is
// repeated here.
func servebenchLines(tb testing.TB, n int) (*dataset.Table, []string) {
	tb.Helper()
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 20000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	cols, rows := tab.Cols, tab.NumRows()
	seen := make(map[string]bool, n)
	lines := make([]string, 0, n)
	for len(lines) < n {
		k := 1 + r.Intn(min(3, len(cols)))
		anchor := r.Intn(rows)
		preds := make([]dataset.Predicate, 0, k)
		for _, ci := range r.Perm(len(cols))[:k] {
			c := cols[ci]
			v := c.Values[anchor]
			if c.Type == dataset.Categorical || r.Float64() >= 0.8 {
				preds = append(preds, dataset.Predicate{Col: c.Name, Op: dataset.OpEq, Lo: v})
				continue
			}
			w := 1 + r.Int63n(max(1, c.DomainWidth()/4))
			lo := max(c.Min, v-r.Int63n(w+1))
			preds = append(preds, dataset.Predicate{Col: c.Name, Op: dataset.OpRange, Lo: lo, Hi: min(c.Max, lo+w)})
		}
		line := QueryText(Canonicalize(Query{Preds: preds}))
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	return tab, lines
}

// parseCase is one parser benchmark workload: the lines an iteration cycles
// through and the parser under test.
type parseCase struct {
	name  string
	lines []string
	parse func(string) (Query, error)
}

// parseCases builds the benchmark workloads for the production parser, or
// for the test reference when ref is set: servebench-shaped lines, the same
// lines behind a "SELECT COUNT(*) FROM dmv WHERE" header, and join queries
// over the JOB snowflake.
func parseCases(b *testing.B, ref bool) []parseCase {
	tab, lines := servebenchLines(b, 1024)
	header := make([]string, len(lines))
	for i, line := range lines {
		header[i] = "SELECT COUNT(*) FROM dmv WHERE " + line
	}
	sch, err := dataset.GenerateJOB(dataset.GenConfig{Rows: 300, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	joins := []string{
		"SELECT COUNT(*) FROM title, cast_info WHERE kind_id = 1 AND cast_info.ci_role_id <= 4",
		"SELECT COUNT(*) FROM title, movie_info WHERE production_year BETWEEN 30 AND 90 AND mi_value <= 10",
		"SELECT COUNT(*) FROM movie_keyword, movie_companies WHERE mk_keyword_id = 4 AND mc_company_type >= 1",
	}
	single, join := ParseQuery, ParseJoinQuery
	if ref {
		single, join = refParseQuery, refParseJoinQuery
	}
	one := func(line string) (Query, error) { return single(tab, line) }
	return []parseCase{
		{"servebench-shaped", lines, one},
		{"header-form", header, one},
		{"join", joins, func(line string) (Query, error) { return join(sch, line) }},
	}
}

func benchParse(b *testing.B, ref bool) {
	for _, pc := range parseCases(b, ref) {
		b.Run(pc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pc.parse(pc.lines[i%len(pc.lines)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParseQuery times the production parser.
func BenchmarkParseQuery(b *testing.B) { benchParse(b, false) }

// BenchmarkParseQueryRef times the test reference (the previous lexer and
// map merge) on the same lines, as the before side of BenchmarkParseQuery.
func BenchmarkParseQueryRef(b *testing.B) { benchParse(b, true) }
