package main

import (
	"testing"

	"cardpi/internal/cache"
	"cardpi/internal/dataset"
	"cardpi/internal/workload"
)

// BenchmarkServeHitRow times one warm cache hit per row, over loadgen's
// universe on DMV at 20k rows (1–3 conjuncts, canonical text: the serve
// benchmark's table and line shape). "text" is the path a canonically
// spelled row takes — KeyOfText, Peek, and the Touch that counts it;
// "parse" is the path every row took before, and other spellings still
// take — ParseQuery, KeyOf, Get.
func BenchmarkServeHitRow(b *testing.B) {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	universe, err := loadgenUniverse("dmv", 20000, 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Sized well past the universe so no 8-way set overflows: every row
	// stays resident and every probe is a hit.
	c := cache.New(cache.Config{Entries: 32 * len(universe)})
	epoch := c.Epoch().Load()
	lines := make([]string, len(universe))
	for i, line := range universe {
		q, err := workload.ParseQuery(tab, line)
		if err != nil {
			b.Fatal(err)
		}
		lines[i] = workload.QueryText(workload.Canonicalize(q))
		c.Put(cache.KeyOf(q), epoch, cache.Result{Est: 0.5, Lo: 0.25, Hi: 0.75, TrueRows: 10, HasTruth: true})
	}
	b.Run("text", func(b *testing.B) {
		keys := make([]cache.Key, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := cache.KeyOfText(lines[i%len(lines)])
			if _, ok := c.Peek(k); !ok {
				b.Fatal("warm row missed the text probe")
			}
			keys[0] = k
			c.Touch(keys)
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := workload.ParseQuery(tab, lines[i%len(lines)])
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := c.Get(cache.KeyOf(q)); !ok {
				b.Fatal("warm row missed the cache")
			}
		}
	})
}
