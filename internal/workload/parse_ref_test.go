package workload

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"cardpi/internal/dataset"
)

// This file keeps the query parser's previous lexer and conjunction merge
// as a test reference: a heap token slice with unicode calls per byte, and
// bounds merged in a map keyed "table.column" whose keys are then sorted.
// The production parser must agree with it on every input — the same Query
// or the same error text (TestParseQueryMatchesReference, FuzzParseQuery).
// The header, predicate and column-resolution steps are shared.

// refParseQuery is ParseQuery over the reference lexer and merge.
func refParseQuery(t *dataset.Table, input string) (Query, error) {
	toks, err := refLex(input)
	if err != nil {
		return Query{}, err
	}
	p := &parser{toks: toks}
	if err := p.header(t.Name); err != nil {
		return Query{}, err
	}
	preds, err := refConjunction(p, &scope{table: t})
	if err != nil {
		return Query{}, err
	}
	return Query{Preds: preds[t.Name]}, nil
}

// refParseJoinQuery is ParseJoinQuery over the reference lexer and merge.
func refParseJoinQuery(s *dataset.Schema, input string) (Query, error) {
	toks, err := refLex(input)
	if err != nil {
		return Query{}, err
	}
	p := &parser{toks: toks}
	tables, err := p.joinHeader(s)
	if err != nil {
		return Query{}, err
	}
	participating := map[string]*dataset.Table{s.Center.Name: s.Center}
	var joined []string
	for _, name := range tables {
		if name == s.Center.Name {
			continue
		}
		jt, ok := s.Joins[name]
		if !ok {
			return Query{}, fmt.Errorf("workload: schema has no table %q", name)
		}
		participating[name] = jt.Table
		joined = append(joined, name)
	}
	preds, err := refConjunction(p, &scope{participating: participating})
	if err != nil {
		return Query{}, err
	}
	return Query{Join: &dataset.JoinQuery{Tables: joined, Preds: preds}}, nil
}

func refLex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		ch := rune(input[i])
		switch {
		case unicode.IsSpace(ch):
			i++
		case ch == '(' || ch == ')' || ch == ',' || ch == '.' || ch == '*' || ch == '=':
			toks = append(toks, token{tokOp, string(ch)})
			i++
		case ch == '<' || ch == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokOp, input[i : i+2]})
				i += 2
			} else {
				toks = append(toks, token{tokOp, string(ch)})
				i++
			}
		case ch == '\'' || ch == '"':
			quote := byte(ch)
			j := i + 1
			for j < len(input) && input[j] != quote {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("workload: unterminated string literal at position %d", i)
			}
			toks = append(toks, token{tokString, input[i+1 : j]})
			i = j + 1
		case ch == '-' || unicode.IsDigit(ch):
			j := i + 1
			for j < len(input) && unicode.IsDigit(rune(input[j])) {
				j++
			}
			if j == i+1 && ch == '-' {
				return nil, fmt.Errorf("workload: stray '-' at position %d", i)
			}
			toks = append(toks, token{tokNumber, input[i:j]})
			i = j
		case unicode.IsLetter(ch) || ch == '_':
			j := i + 1
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("workload: unexpected character %q at position %d", ch, i)
		}
	}
	return toks, nil
}

// refConjunction parses "pred AND pred AND ..." into per-table predicates,
// merging multiple constraints on the same column into one range.
func refConjunction(p *parser, sc *scope) (map[string][]dataset.Predicate, error) {
	type bound struct {
		table  string
		name   string
		lo, hi int64
	}
	bounds := make(map[string]*bound) // keyed table.col
	if _, any := p.peek(); !any {
		return map[string][]dataset.Predicate{}, nil
	}
	for {
		lo, hi, table, name, err := p.predicate(sc)
		if err != nil {
			return nil, err
		}
		key := table + "." + name
		if b, seen := bounds[key]; seen {
			if lo > b.lo {
				b.lo = lo
			}
			if hi < b.hi {
				b.hi = hi
			}
		} else {
			bounds[key] = &bound{table: table, name: name, lo: lo, hi: hi}
		}
		if !p.acceptKeyword("and") {
			break
		}
	}
	if t, extra := p.peek(); extra {
		return nil, fmt.Errorf("workload: unexpected trailing token %q", t.text)
	}
	out := make(map[string][]dataset.Predicate)
	keys := make([]string, 0, len(bounds))
	for k := range bounds {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		b := bounds[k]
		pr := dataset.Predicate{Col: b.name, Op: dataset.OpRange, Lo: b.lo, Hi: b.hi}
		if b.lo == b.hi {
			pr = dataset.Predicate{Col: b.name, Op: dataset.OpEq, Lo: b.lo}
		}
		out[b.table] = append(out[b.table], pr)
	}
	return out, nil
}

// refCases are single-table inputs the two parsers must agree on: every
// form of the ParseQuery doc comment, the header, qualifiers, string
// literals, repeated columns, empty ranges, int64 extremes, bytes >= 0x80,
// inputs beyond the stack token buffer, and a spread of malformed ones.
var refCases = []string{
	// Documented forms.
	"age = 30",
	"age BETWEEN 20 AND 40",
	"20 <= age AND age <= 40",
	"age >= 20 AND age < 65 AND sex = 1",
	"20 <= age <= 40",
	"20 < age < 41",
	"age <= 40", "age < 40", "age > 40", "age >= 40",
	"age = 30 AND sex = 1 AND education = 2",
	"education = 2 AND age = 30",
	"age=30 and sex=1",
	// Header form.
	"SELECT COUNT(*) FROM census WHERE sex = 0",
	"select count(*) from census",
	"SELECT COUNT(*) FROM census",
	"SELECT COUNT ( * ) FROM Census WHERE age = 3",
	"SELECT COUNT(*) FROM other WHERE sex = 1",
	"SELECT COUNT(x) FROM census",
	"SELECT COUNT(*) census",
	"SELECT COUNT(*) FROM",
	"SELECT COUNT(*) FROM census sex = 1",
	"SELECT COUNT(*) FROM census WHERE",
	"SELECT", "SELECT COUNT", "SELECT COUNT(*", "SELECT COUNT(*) FROM 5",
	// a.b qualifiers.
	"census.age = 3",
	"CENSUS.age = 3 AND census.age <= 9",
	"other.age = 3",
	"census. = 3",
	"census.age.x = 1",
	"census.ghost = 1",
	// String literals (only the cities table has dictionaries).
	"city = 'springfield' AND population >= 25000",
	`city = "shelbyville"`,
	"city = 'nowhere'",
	"city <= 'springfield'",
	"city = 'unterminated",
	`city = "mixed'`,
	"age = 'x'",
	"city = ''",
	// Repeated columns, and hi < lo.
	"age >= 20 AND age <= 40 AND age = 30",
	"age = 3 AND age = 4",
	"age > 40 AND age < 20",
	"age BETWEEN 40 AND 20",
	"50 <= age <= 10",
	"age >= 10 AND sex = 1 AND age <= 12 AND sex >= 0",
	"Age = 3 AND age = 4",
	// int64 extremes.
	"age = 9223372036854775807",
	"age > 9223372036854775807",
	"age < -9223372036854775808",
	"age = 9223372036854775808",
	"age = -9223372036854775809",
	"age BETWEEN -9223372036854775808 AND 9223372036854775807",
	"9223372036854775807 < age",
	"0 < age < -9223372036854775808",
	"99999999999999999999 <= age",
	"1 <= age <= 99999999999999999999",
	"age = -0",
	"age = 007",
	"age = 999999999999999999",
	"age = -999999999999999999 AND age <= 100000000000000000",
	"age = 0000000000000000000000000042",
	// Bytes >= 0x80 classify as their Latin-1 code points.
	"age\xa0= 3",
	"age = 3\x85",
	"\xe9 = 3",
	"\xc3\xa9ge = 3",
	"age \xd7 3",
	"\xb2 = 1",
	"age = \xb9",
	"_age = 1",
	"age_\xaa = 1",
	"\xff",
	"\x00",
	// Malformed.
	"", "   ", "\t\n\v\f\r",
	"age", "age =", "= 5", "age - 5", "age ??", "20 = age", "age = 1 extra",
	"age = 1 AND", "age BETWEEN 2", "age BETWEEN 1 OR 2", "age BETWEEN 1 AND",
	"age = -", "age = --1", "age = 1-2", "age < = 3", "age <> 3", "age =< 3",
	"(age = 3)", "age = 3,", "*", "age = 3 AND AND sex = 1", "age.", ".age = 1",
	"20 <= age < x", "20 <=", "20 <= 30", "20 age", "ghost = 1", "age = 3 OR sex = 1",
	"age between 1 and 2 and sex = 1",
}

// manyTokens returns inputs with more tokens than ParseQuery's stack token
// buffer, and one with more distinct columns than its stack bound buffer.
func manyTokens() []string {
	var parts []string
	for i := 0; i < 40; i++ {
		parts = append(parts, "age >= "+strconv.Itoa(i))
	}
	var wide []string
	for i := 19; i >= 0; i-- {
		wide = append(wide, "c"+strconv.Itoa(i)+" <= "+strconv.Itoa(i))
	}
	return []string{
		strings.Join(parts, " AND "),
		strings.Join(wide, " AND "),
		strings.Join(wide, " AND ") + " AND c3 >= 1 AND c17 = 2",
		strings.Repeat("( ", 40),
	}
}

// refTables are the tables the single-table cases run against: census
// (numeric and categorical domains), a CSV table with dictionary columns,
// and a 20-column table for the bound buffer's spill path.
func refTables(tb testing.TB) []*dataset.Table {
	tb.Helper()
	census, err := dataset.GenerateCensus(dataset.GenConfig{Rows: 200, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cities, err := dataset.FromCSV("cities", strings.NewReader(
		"city,population,age\nspringfield,30000,3\nshelbyville,21000,40\nspringfield,29000,7\n"))
	if err != nil {
		tb.Fatal(err)
	}
	var cols []*dataset.Column
	for i := 0; i < 20; i++ {
		cols = append(cols, &dataset.Column{Name: "c" + strconv.Itoa(i), Type: dataset.Numeric,
			Values: []int64{0, 1, 2}, Max: 2})
	}
	wide, err := dataset.NewTable("wide", cols)
	if err != nil {
		tb.Fatal(err)
	}
	return []*dataset.Table{census, cities, wide}
}

// refSchemas are the schemas the join cases run against: the JOB snowflake,
// and a small star whose tables share column names (ambiguity) and whose
// center name sorts differently from its "table.column" keys.
func refSchemas(tb testing.TB) []*dataset.Schema {
	tb.Helper()
	job, err := dataset.GenerateJOB(dataset.GenConfig{Rows: 100, Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	col := func(name string) *dataset.Column {
		return &dataset.Column{Name: name, Type: dataset.Numeric, Values: []int64{0, 5, 9}, Max: 9}
	}
	center := dataset.MustNewTable("t-x", []*dataset.Column{col("k"), col("x"), col("shared")})
	sat := dataset.MustNewTable("t", []*dataset.Column{col("k"), col("y"), col("shared")})
	star := &dataset.Schema{Center: center, Joins: map[string]dataset.JoinTable{
		"t": {Table: sat, Rel: dataset.SatelliteOfCenter, FKCol: "k"},
	}}
	return []*dataset.Schema{job, star}
}

var refJoinCases = []string{
	"SELECT COUNT(*) FROM title, cast_info WHERE kind_id = 1 AND cast_info.ci_role_id <= 4",
	"SELECT COUNT(*) FROM title",
	"SELECT COUNT(*) FROM cast_info",
	"SELECT COUNT(*) FROM cast_info, cast_info WHERE ci_role_id = 2",
	"SELECT COUNT(*) FROM title, movie_info WHERE mi_value <= 10",
	"SELECT COUNT(*) FROM cast_info, movie_info WHERE mi_value <= 10 AND ci_role_id = 2 AND title.kind_id >= 1 AND kind_id <= 5 AND mi_value > 3",
	"SELECT COUNT(*) FROM movie_keyword, movie_companies, cast_info WHERE mk_keyword_id = 4 AND mc_company_type BETWEEN 1 AND 2 AND production_year > 50",
	"kind_id = 1",
	"SELECT COUNT(*) FROM ghost WHERE kind_id = 1",
	"SELECT COUNT(*) FROM title, cast_info WHERE nope = 1",
	"SELECT COUNT(*) FROM title WHERE movie_info.mi_value = 1",
	"SELECT COUNT(*) FROM title, WHERE kind_id = 1",
	"SELECT COUNT(*) FROM title cast_info",
	"SELECT COUNT(*) FROM title WHERE kind_id = 1 extra",
	"SELECT COUNT(*) FROM title WHERE title.ghost = 1",
	// The star schema: shared columns and a center named "t-x".
	"SELECT COUNT(*) FROM t WHERE shared = 1",
	"SELECT COUNT(*) FROM t WHERE t.shared = 1 AND x = 2 AND y >= 3 AND k = 4",
	"SELECT COUNT(*) FROM t WHERE y = 1 AND x = 2",
	"SELECT COUNT(*) FROM t WHERE t.y = 1 AND y <= 0",
}

// sameResult fails the test unless (got, gotErr) and (want, wantErr) are
// the same Query or the same error text — which reaches 400 bodies.
func sameResult(t testing.TB, what, in string, got Query, gotErr error, want Query, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s(%q): error %v, reference error %v", what, in, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s(%q): error %q, reference %q", what, in, gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s(%q) = %s, reference %s", what, in, describe(got), describe(want))
	}
}

func describe(q Query) string {
	if q.Join != nil {
		return fmt.Sprintf("join %+v", *q.Join)
	}
	return fmt.Sprintf("%#v", q.Preds)
}

func TestParseQueryMatchesReference(t *testing.T) {
	tabs := refTables(t)
	cases := append(append([]string{}, refCases...), manyTokens()...)
	for _, tab := range tabs {
		for _, in := range cases {
			got, gotErr := ParseQuery(tab, in)
			want, wantErr := refParseQuery(tab, in)
			sameResult(t, "ParseQuery/"+tab.Name, in, got, gotErr, want, wantErr)
		}
	}
}

func TestParseJoinQueryMatchesReference(t *testing.T) {
	cases := append(append([]string{}, refJoinCases...), refCases...)
	for _, sch := range refSchemas(t) {
		for _, in := range cases {
			got, gotErr := ParseJoinQuery(sch, in)
			// The reference resolves unqualified columns by map iteration;
			// run it a few times so an order dependence would show.
			for range 4 {
				want, wantErr := refParseJoinQuery(sch, in)
				sameResult(t, "ParseJoinQuery/"+sch.Center.Name, in, got, gotErr, want, wantErr)
			}
		}
	}
}

// FuzzParseQuery checks, for any input, that the parser and its reference
// return the same Query or the same error text, on every reference table
// and schema.
func FuzzParseQuery(f *testing.F) {
	for _, in := range refCases {
		f.Add(in)
	}
	for _, in := range refJoinCases {
		f.Add(in)
	}
	for _, in := range manyTokens() {
		f.Add(in)
	}
	tabs, schemas := refTables(f), refSchemas(f)
	f.Fuzz(func(t *testing.T, in string) {
		for _, tab := range tabs {
			got, gotErr := ParseQuery(tab, in)
			want, wantErr := refParseQuery(tab, in)
			sameResult(t, "ParseQuery/"+tab.Name, in, got, gotErr, want, wantErr)
		}
		for _, sch := range schemas {
			got, gotErr := ParseJoinQuery(sch, in)
			want, wantErr := refParseJoinQuery(sch, in)
			sameResult(t, "ParseJoinQuery/"+sch.Center.Name, in, got, gotErr, want, wantErr)
		}
	})
}

// TestParseQueryAllocs pins ParseQuery's allocation budget on lines shaped
// like the serve benchmark's: one allocation, the returned predicate slice.
func TestParseQueryAllocs(t *testing.T) {
	tab, lines := servebenchLines(t, 64)
	for _, line := range append(lines, "SELECT COUNT(*) FROM dmv WHERE state = 3 AND 20 <= model_year < 90") {
		if a := testing.AllocsPerRun(20, func() {
			if _, err := ParseQuery(tab, line); err != nil {
				t.Fatal(err)
			}
		}); a > 1 {
			t.Fatalf("ParseQuery(%q): %.1f allocs, want at most 1", line, a)
		}
	}
}
