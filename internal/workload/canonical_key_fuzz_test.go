package workload_test

import (
	"reflect"
	"testing"

	"cardpi/internal/cache"
	"cardpi/internal/workload"
)

// FuzzCanonicalTextKey checks that the serve path's text probe is safe: a
// raw line is answered from the cache without parsing only when its
// cache.KeyOfText equals a cached query's KeyOf. For every input ParseQuery
// accepts on the reference tables (and the serve benchmark's DMV table),
// with text = QueryText(Canonicalize(q)):
//
//  1. text parses back to the same canonical form, so a line byte-equal to
//     it is one parsing would accept and read the same way;
//  2. KeyOfText(text) == KeyOf(q), so such a line finds q's entry;
//  3. KeyOfText(input) == KeyOf(q) only when input is byte-equal to text,
//     so any other spelling is parsed and probed by KeyOf.
//
// A query with no predicates ("SELECT COUNT(*) FROM census") has the empty
// canonical text, which ParseQuery rejects; the serve path rejects an empty
// line before it probes, so that text never reaches the cache.
func FuzzCanonicalTextKey(f *testing.F) {
	tabs := workload.RefTables(f)
	dmv, lines := workload.ServebenchLines(f, 64)
	tabs = append(tabs, dmv)
	seeds := append(append(append([]string{}, workload.RefCases...), workload.ManyTokens()...), lines...)
	for _, in := range seeds {
		f.Add(in)
		for _, tab := range tabs {
			if q, err := workload.ParseQuery(tab, in); err == nil {
				f.Add(workload.QueryText(workload.Canonicalize(q)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, tab := range tabs {
			q, err := workload.ParseQuery(tab, in)
			if err != nil {
				continue
			}
			canon := workload.Canonicalize(q)
			text := workload.QueryText(canon)
			key := cache.KeyOf(q)
			if cache.KeyOfText(text) != key {
				t.Fatalf("%s: KeyOfText(%q) != KeyOf(ParseQuery(%q))", tab.Name, text, in)
			}
			if (cache.KeyOfText(in) == key) != (in == text) {
				t.Fatalf("%s: KeyOfText(%q) == KeyOf(q) is %v, but the input is byte-equal to the canonical text %q: %v",
					tab.Name, in, cache.KeyOfText(in) == key, text, in == text)
			}
			if len(canon.Preds) == 0 {
				if text != "" {
					t.Fatalf("%s: %q has no predicates but canonical text %q", tab.Name, in, text)
				}
				continue
			}
			back, err := workload.ParseQuery(tab, text)
			if err != nil {
				t.Fatalf("%s: canonical text %q of %q does not parse: %v", tab.Name, text, in, err)
			}
			if got := workload.Canonicalize(back); !reflect.DeepEqual(got, canon) {
				t.Fatalf("%s: canonical text %q of %q parses to %#v, want %#v", tab.Name, text, in, got.Preds, canon.Preds)
			}
		}
	})
}
