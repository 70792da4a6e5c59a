package cache

import (
	"fmt"
	"testing"

	"cardpi/internal/dataset"
	"cardpi/internal/workload"
)

func eq(col string, v int64) dataset.Predicate {
	return dataset.Predicate{Col: col, Op: dataset.OpEq, Lo: v}
}

func rng(col string, lo, hi int64) dataset.Predicate {
	return dataset.Predicate{Col: col, Op: dataset.OpRange, Lo: lo, Hi: hi}
}

func q(preds ...dataset.Predicate) workload.Query {
	return workload.Query{Preds: preds}
}

// TestKeyCanonicalEquivalence drives the canonical-key contract: every
// syntactic variant of one semantic query must hash to the same key, and
// semantically different queries must not (collision sanity is covered
// separately at scale).
func TestKeyCanonicalEquivalence(t *testing.T) {
	cases := []struct {
		name string
		a, b workload.Query
		same bool
	}{
		{"identical", q(eq("a", 5)), q(eq("a", 5)), true},
		{"predicate order", q(eq("a", 5), rng("b", 1, 9)), q(rng("b", 1, 9), eq("a", 5)), true},
		{"three-way order", q(eq("a", 1), eq("b", 2), eq("c", 3)), q(eq("c", 3), eq("a", 1), eq("b", 2)), true},
		{"eq vs degenerate range", q(eq("a", 5)), q(rng("a", 5, 5)), true},
		{"eq with garbage Hi", q(dataset.Predicate{Col: "a", Op: dataset.OpEq, Lo: 5, Hi: 99}), q(eq("a", 5)), true},
		{"duplicate predicate", q(eq("a", 5), eq("a", 5)), q(eq("a", 5)), true},
		{"same-column intersection", q(rng("a", 0, 10), rng("a", 5, 20)), q(rng("a", 5, 10)), true},
		{"intersection to a point", q(rng("a", 0, 7), rng("a", 7, 20)), q(eq("a", 7)), true},
		{"empty intersections alias", q(rng("a", 10, 2)), q(rng("a", 9, 3)), true},
		{"different value", q(eq("a", 5)), q(eq("a", 6)), false},
		{"different column", q(eq("a", 5)), q(eq("b", 5)), false},
		{"point vs wider range", q(eq("a", 5)), q(rng("a", 5, 6)), false},
		{"subset of predicates", q(eq("a", 5), eq("b", 2)), q(eq("a", 5)), false},
		{"swapped bounds vs values", q(rng("a", 1, 2), rng("b", 3, 4)), q(rng("a", 3, 4), rng("b", 1, 2)), false},
		{"column name concatenation", q(eq("ab", 1), eq("c", 2)), q(eq("a", 1), eq("bc", 2)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := KeyOf(tc.a), KeyOf(tc.b)
			if (ka == kb) != tc.same {
				t.Fatalf("KeyOf(%v)=%v, KeyOf(%v)=%v; want same=%v", tc.a.Preds, ka, tc.b.Preds, kb, tc.same)
			}
		})
	}
}

// TestKeyMatchesCanonicalizedQuery verifies the property the serve path
// relies on: hashing a raw query equals hashing its canonical form, so
// callers never need to canonicalize before probing.
func TestKeyMatchesCanonicalizedQuery(t *testing.T) {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, lq := range wl.Queries {
		canon := workload.Canonicalize(lq.Query)
		if KeyOf(lq.Query) != KeyOf(canon) {
			t.Fatalf("KeyOf(q) != KeyOf(Canonicalize(q)) for %v", lq.Query.Preds)
		}
	}
	// And for synthetic permuted/duplicated variants the generator never
	// emits (it produces one pred per column, sorted).
	base := q(rng("x", 1, 50), eq("y", 3), rng("z", -4, 4))
	variants := []workload.Query{
		q(eq("y", 3), rng("z", -4, 4), rng("x", 1, 50)),
		q(rng("z", -4, 4), rng("x", 1, 50), rng("y", 3, 3), eq("y", 3)),
		q(rng("x", 1, 80), rng("x", 0, 50), eq("y", 3), rng("z", -4, 4)),
	}
	want := KeyOf(base)
	for i, v := range variants {
		if KeyOf(v) != want {
			t.Fatalf("variant %d hashed differently", i)
		}
	}
}

// TestKeyCollisionSanity hashes a large population of distinct canonical
// queries and requires zero 128-bit collisions — a smoke check that the
// mixer has no gross structural weakness (a birthday collision among tens
// of thousands of keys would indicate one).
func TestKeyCollisionSanity(t *testing.T) {
	seen := make(map[Key]string, 100000)
	text := make(map[string]bool, 100000)
	check := func(id string, qq workload.Query) {
		// Distinct workloads can legitimately regenerate the same query;
		// dedupe by canonical text so only true hash collisions fail.
		canon := workload.Canonicalize(qq).Key()
		if text[canon] {
			return
		}
		text[canon] = true
		k := KeyOf(qq)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s: %v", prev, id, k)
		}
		seen[k] = id
	}
	// Dense grid of small queries: adjacent values and bounds, the worst
	// case for weak mixers.
	for v := int64(-100); v < 100; v++ {
		for _, col := range []string{"a", "b", "ab", "ba"} {
			check(fmt.Sprintf("eq-%s-%d", col, v), q(eq(col, v)))
		}
	}
	for lo := int64(0); lo < 60; lo++ {
		for hi := lo + 1; hi < 60; hi++ {
			check(fmt.Sprintf("rng-%d-%d", lo, hi), q(rng("a", lo, hi)))
			check(fmt.Sprintf("rng2-%d-%d", lo, hi), q(rng("b", lo, hi), eq("a", 1)))
		}
	}
	// Two generated workloads over different tables.
	for i, rows := range []int{400, 900} {
		tab, err := dataset.GenerateCensus(dataset.GenConfig{Rows: rows, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		wl, err := workload.Generate(tab, workload.Config{Count: 2000, Seed: int64(21 + i), MaxPreds: 6})
		if err != nil {
			t.Fatal(err)
		}
		for j, lq := range wl.Queries {
			// The generator dedupes by Query.Key, so every query is
			// canonically distinct.
			check(fmt.Sprintf("wl%d-%d", i, j), lq.Query)
		}
	}
	if len(seen) < 5000 {
		t.Fatalf("population too small for a collision check: %d", len(seen))
	}
}

// TestKeyOfAllocs pins the zero-allocation contract of the hot-path probe:
// hashing a parsed single-table query must not touch the heap.
func TestKeyOfAllocs(t *testing.T) {
	query := q(rng("b", 2, 8), eq("a", 5), rng("c", -3, 3), eq("d", 0))
	if n := testing.AllocsPerRun(200, func() { _ = KeyOf(query) }); n != 0 {
		t.Fatalf("KeyOf allocates %v times per run; want 0", n)
	}
}

// TestKeyOfTextMatchesCanonicalText: a line byte-equal to a query's
// canonical text hashes to the query's key, so it finds the query's entry
// before it is parsed; any other spelling of the same query does not.
func TestKeyOfTextMatchesCanonicalText(t *testing.T) {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, lq := range wl.Queries {
		text := workload.QueryText(workload.Canonicalize(lq.Query))
		if KeyOfText(text) != KeyOf(lq.Query) {
			t.Fatalf("KeyOfText(%q) != KeyOf(q)", text)
		}
	}
	base := q(rng("x", 1, 50), eq("y", 3))
	if got, want := KeyOfText("x BETWEEN 1 AND 50 AND y = 3"), KeyOf(base); got != want {
		t.Fatal("canonical text hashed differently from its query")
	}
	for _, other := range []string{
		"y = 3 AND x BETWEEN 1 AND 50", // reordered
		"x BETWEEN 1 AND 50 AND y BETWEEN 3 AND 3",
		"x BETWEEN 1 AND 50 AND y = 3 ", // trailing space
		"x between 1 and 50 and y = 3",
		"x >= 1 AND x <= 50 AND y = 3",
	} {
		if KeyOfText(other) == KeyOf(base) {
			t.Fatalf("non-canonical spelling %q matched the canonical key", other)
		}
	}
}

// TestKeyOfTextAllocs pins the allocation-free text key.
func TestKeyOfTextAllocs(t *testing.T) {
	const line = "a = 5 AND b BETWEEN 2 AND 8 AND c BETWEEN -3 AND 3 AND d = 0"
	if n := testing.AllocsPerRun(200, func() { _ = KeyOfText(line) }); n != 0 {
		t.Fatalf("KeyOfText allocates %v times per run; want 0", n)
	}
}

// BenchmarkKeyOf times the key of a parsed row, the cost every row the
// text probe misses pays before its canonical probe: canonicalize, render
// the canonical text, hash it. Queries are 1–3 conjuncts over DMV at 20k
// rows, the serve benchmark's table and query sizes.
func BenchmarkKeyOf(b *testing.B) {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 1024, Seed: 3, MinPreds: 1, MaxPreds: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KeyOf(wl.Queries[i%len(wl.Queries)].Query)
	}
}
