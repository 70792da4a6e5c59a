package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"cardpi/internal/dataset"
	"cardpi/internal/workload"
)

// schedule is a fixed, seeded request plan: the query universe and, for the
// warm and the timed phase, the universe index of every row of every
// request, in send order. Request i of a phase is rows [i*batch, (i+1)*batch).
type schedule struct {
	lines []string
	batch int
	warm  []int32
	timed []int32
}

func (s *schedule) requests(rows []int32) int { return len(rows) / s.batch }

// request returns the universe indices of request i.
func (s *schedule) request(rows []int32, i int) []int32 {
	return rows[i*s.batch : (i+1)*s.batch]
}

// universe draws n distinct queries over tab from seed, shaped like the
// pipeline's training workloads: 1–3 conjuncts on distinct columns, each
// anchored at one row's value so no query region is empty, ranges on
// numeric columns 80% of the time with widths up to a quarter of the
// domain. Queries are canonicalised before rendering, so distinct lines are
// distinct interval-cache keys. No query is counted here; the benchmark
// counts true rows only for the queries it sent, after the timed phase.
func universe(tab *dataset.Table, n int, seed int64) ([]string, error) {
	r := rand.New(rand.NewSource(seed))
	cols, rows := tab.Cols, tab.NumRows()
	seen := make(map[string]bool, n)
	lines := make([]string, 0, n)
	for tries := 0; len(lines) < n; tries++ {
		if tries > 50*n {
			return nil, fmt.Errorf("universe: only %d of %d distinct queries after %d draws", len(lines), n, tries)
		}
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
		line := workload.QueryText(workload.Canonicalize(workload.Query{Preds: preds}))
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	return lines, nil
}

// popularity draws universe indices: uniform when zipfS is 0, otherwise
// Zipf(zipfS) over ranks. Ranks go to queries in order of how close their
// text's length is to the universe's median length, ties in a seeded order.
// Under Zipf 1.1 the ten most popular queries carry about half of all rows,
// so were they drawn at random the per-row parsing cost would move with the
// seed by ±10%; this way every seed's popular queries are of typical size,
// and popularity stays independent of generation order.
type popularity struct {
	r    *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newPopularity(lines []string, zipfS float64, seed int64) *popularity {
	r := rand.New(rand.NewSource(seed))
	p := &popularity{r: r, perm: r.Perm(len(lines))}
	if zipfS > 0 {
		lens := make([]int, len(lines))
		for i, line := range lines {
			lens[i] = len(line)
		}
		slices.Sort(lens)
		med := lens[len(lens)/2]
		dist := func(i int) int { return max(len(lines[i])-med, med-len(lines[i])) }
		slices.SortStableFunc(p.perm, func(a, b int) int { return cmp.Compare(dist(a), dist(b)) })
		p.zipf = rand.NewZipf(r, zipfS, 1, uint64(len(lines)-1))
	}
	return p
}

func (p *popularity) next() int32 {
	if p.zipf == nil {
		return int32(p.perm[p.r.Intn(len(p.perm))])
	}
	return int32(p.perm[p.zipf.Uint64()])
}

// newSchedule builds the plan for workload w from seed: the universe, then
// warm and timed rows drawn from one popularity stream. With fillWarm the
// warm phase first sends every universe query once, so the cache starts the
// timed phase full.
func newSchedule(tab *dataset.Table, w *spec, seed int64, timedRequests int) (*schedule, error) {
	lines, err := universe(tab, w.universe, seed)
	if err != nil {
		return nil, err
	}
	s := &schedule{lines: lines, batch: max(1, w.batch)}
	pop := newPopularity(lines, w.zipfS, seed+1)
	if w.fillWarm {
		for i := range lines {
			s.warm = append(s.warm, int32(i))
		}
		for len(s.warm)%s.batch != 0 {
			s.warm = append(s.warm, pop.next())
		}
	}
	for i := 0; i < w.warmRequests*s.batch; i++ {
		s.warm = append(s.warm, pop.next())
	}
	s.timed = make([]int32, timedRequests*s.batch)
	for i := range s.timed {
		s.timed[i] = pop.next()
	}
	return s, nil
}
