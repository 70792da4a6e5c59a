package main

import (
	"slices"
	"testing"

	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

func TestScheduleDeterministic(t *testing.T) {
	tab, err := pipeline.BuildTable(dsName, "", 2000, dataSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range specs {
		w := *w
		w.universe = 300
		a, err := newSchedule(tab, &w, 7, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newSchedule(tab, &w, 7, 50)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newSchedule(tab, &w, 8, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.lines, b.lines) || !slices.Equal(a.warm, b.warm) || !slices.Equal(a.timed, b.timed) {
			t.Errorf("%s: same seed gave different schedules", name)
		}
		if slices.Equal(a.lines, c.lines) || slices.Equal(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
		if a.requests(a.timed) != 50 || len(a.timed)%a.batch != 0 || len(a.warm)%a.batch != 0 {
			t.Errorf("%s: %d timed requests of %d rows, %d warm rows", name, a.requests(a.timed), a.batch, len(a.warm))
		}
		if w.fillWarm && !slices.Equal(a.warm[:len(a.lines)], seq(len(a.lines))) {
			t.Errorf("%s: warm phase does not start with the whole universe", name)
		}
	}
}

func TestUniverseDistinctAndParses(t *testing.T) {
	tab, err := pipeline.BuildTable(dsName, "", 2000, dataSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := universe(tab, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range lines {
		if seen[line] {
			t.Fatalf("duplicate query %q", line)
		}
		seen[line] = true
		q, err := workload.ParseQuery(tab, line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if n, err := tab.Count(q.Preds); err != nil || n == 0 {
			t.Fatalf("%q: %d rows, %v (queries are anchored at a row)", line, n, err)
		}
		if back := workload.QueryText(workload.Canonicalize(q)); back != line {
			t.Fatalf("%q is not canonical: %q", line, back)
		}
	}
}

// Zipf ranks go to queries in order of their distance from the median
// text length, so the popular queries are of typical size for every seed.
func TestPopularRanksAreTypical(t *testing.T) {
	tab, err := pipeline.BuildTable(dsName, "", 2000, dataSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := universe(tab, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	lens := make([]int, len(lines))
	for i, line := range lines {
		lens[i] = len(line)
	}
	slices.Sort(lens)
	med := lens[len(lens)/2]
	dist := func(i int) int { return max(len(lines[i])-med, med-len(lines[i])) }
	p := newPopularity(lines, 1.1, 6)
	got := slices.Clone(p.perm)
	slices.Sort(got)
	if !slices.Equal(got, seq0(len(lines))) {
		t.Fatal("rank order is not a permutation of the universe")
	}
	for r := 1; r < len(p.perm); r++ {
		if dist(p.perm[r]) < dist(p.perm[r-1]) {
			t.Fatalf("rank %d is %d from the median length, rank %d only %d", r-1, dist(p.perm[r-1]), r, dist(p.perm[r]))
		}
	}
}

func seq0(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func seq(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}
