package dataset

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Op is a predicate operator. The paper evaluates conjunctive queries whose
// predicates are either point (A = v) or range (lb <= A <= ub).
type Op int

const (
	// OpEq matches rows where the column equals Lo.
	OpEq Op = iota
	// OpRange matches rows where Lo <= value <= Hi.
	OpRange
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpRange:
		return "between"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is a single conjunct over one column of one table.
type Predicate struct {
	Col string
	Op  Op
	// Lo is the point value for OpEq, or the lower bound for OpRange.
	Lo int64
	// Hi is the upper bound for OpRange (ignored for OpEq).
	Hi int64
}

// Matches reports whether value v satisfies the predicate.
func (p Predicate) Matches(v int64) bool {
	if p.Op == OpEq {
		return v == p.Lo
	}
	return v >= p.Lo && v <= p.Hi
}

func (p Predicate) String() string {
	if p.Op == OpEq {
		return fmt.Sprintf("%s = %d", p.Col, p.Lo)
	}
	return fmt.Sprintf("%d <= %s <= %d", p.Lo, p.Col, p.Hi)
}

// bound is a compiled per-column range check, lo <= v <= hi, on the
// table's column ci.
type bound struct {
	col    []int64
	ci     int
	lo, hi int64
}

// maxInlineBounds conjuncts compile into an array inside the conjunction
// itself, so compiling a typical query allocates nothing.
const maxInlineBounds = 8

// conjunction is a compiled predicate list.
type conjunction struct {
	inline [maxInlineBounds]bound
	spill  []bound // every bound, when there are more than maxInlineBounds
	n      int
	// empty is set when some conjunct has hi < lo, so no row can match.
	empty bool
}

func (c *conjunction) bounds() []bound {
	if c.spill != nil {
		return c.spill
	}
	return c.inline[:c.n]
}

func (t *Table) compile(preds []Predicate) (conjunction, error) {
	c := conjunction{n: len(preds)}
	if c.n > maxInlineBounds {
		c.spill = make([]bound, c.n)
	}
	bounds := c.bounds()
	for i, p := range preds {
		ci, ok := t.byName[p.Col]
		if !ok {
			return conjunction{}, fmt.Errorf("dataset: table %q has no column %q", t.Name, p.Col)
		}
		lo, hi := p.Lo, p.Hi
		if p.Op == OpEq {
			hi = p.Lo
		}
		c.empty = c.empty || hi < lo
		bounds[i] = bound{col: t.Cols[ci].Values, ci: ci, lo: lo, hi: hi}
	}
	return c, nil
}

// blockRows is the scan kernel's block: one selection vector of int32 row
// offsets, 4 KiB on the stack.
const blockRows = 1024

// scan evaluates the conjunction over rows [start, end) one column at a time
// and returns how many rows match. When rows is non-nil the matching row
// indexes are also appended to it, in ascending order.
//
// Each block of blockRows rows keeps a selection vector of the offsets that
// are still candidates. The first bound fills it without a branch, every
// later bound compacts it in place, and a block stops early once it is
// empty. A range check is one unsigned compare, exact for every int64 when
// lo <= hi: for v >= lo, uint64(v-lo) is the true difference, which is at
// most uint64(hi-lo) exactly when v <= hi; for v < lo, v-lo wraps to
// 2^64 + v - lo, which exceeds hi - lo because hi - v < 2^64. Callers
// return 0 before scanning when some bound has hi < lo.
func scan(bounds []bound, start, end int, rows *[]int) int64 {
	if len(bounds) == 0 {
		if rows != nil {
			for i := start; i < end; i++ {
				*rows = append(*rows, i)
			}
		}
		return int64(end - start)
	}
	var sel [blockRows]int32
	var total int64
	for base := start; base < end; base += blockRows {
		k := bounds[0].fill(&sel, bounds[0].col[base:min(base+blockRows, end)])
		for _, b := range bounds[1:] {
			if k == 0 {
				break
			}
			k = b.refine(&sel, k, b.col[base:])
		}
		total += int64(k)
		if rows != nil {
			for _, i := range sel[:k] {
				*rows = append(*rows, base+int(i))
			}
		}
	}
	return total
}

// fill writes into sel the offsets of the values (at most blockRows) that
// satisfy b and returns their number. fill and refine stay out of line:
// inlined into scan, their counters spill to the stack and servebench-shaped
// counts run about 1.5x slower.
//
//go:noinline
func (b bound) fill(sel *[blockRows]int32, vals []int64) int {
	lo, span := b.lo, uint64(b.hi-b.lo)
	k := 0
	for i, v := range vals {
		// k <= i < blockRows, so the mask never changes k; it only lets the
		// compiler drop the bounds check.
		sel[k&(blockRows-1)] = int32(i)
		if uint64(v-lo) <= span {
			k++
		}
	}
	return k
}

// refine keeps, in place, the first k offsets in sel whose value in vals
// satisfies b and returns how many remain.
//
//go:noinline
func (b bound) refine(sel *[blockRows]int32, k int, vals []int64) int {
	lo, span := b.lo, uint64(b.hi-b.lo)
	j := 0
	for _, i := range sel[:k] {
		sel[j&(blockRows-1)] = i
		if uint64(vals[i]-lo) <= span {
			j++
		}
	}
	return j
}

// parallelThreshold is the row count above which scans fan out across CPUs;
// below it goroutine overhead dominates.
const parallelThreshold = 65536

// Count returns the exact number of rows in t satisfying the conjunction of
// preds. Predicates naming columns absent from t yield an error.
//
// Each conjunct matches one contiguous run of its column's value order (see
// order.go), found by two binary searches. One conjunct is answered by its
// run's length, with no scan. Otherwise the narrowest run seeds
// the selection vector and the other conjuncts refine it, unless that run
// covers more than half the table: then a full scan, fanned out across CPUs
// on large tables, reads less. The result is exact either way.
func (t *Table) Count(preds []Predicate) (int64, error) {
	c, err := t.compile(preds)
	if err != nil || c.empty {
		return 0, err
	}
	bounds, n := c.bounds(), t.NumRows()
	if len(bounds) == 0 {
		return int64(n), nil
	}
	if n > math.MaxInt32 {
		return scanCount(bounds, n), nil // row ids would not fit the int32 orders
	}
	seed, ids := 0, []int32(nil)
	for i, b := range bounds {
		run := b.matchRange(t.order(b.ci))
		if i == 0 || len(run) < len(ids) {
			seed, ids = i, run
		}
	}
	switch {
	case len(bounds) == 1:
		return int64(len(ids)), nil
	case 2*len(ids) > n:
		return scanCount(bounds, n), nil
	}
	return refineRun(bounds, seed, ids), nil
}

// refineRun counts the rows of ids, the run of bounds[seed], that satisfy
// every other bound: each block of ids is copied into the selection vector
// as absolute row ids and compacted by refine against the whole column.
func refineRun(bounds []bound, seed int, ids []int32) int64 {
	var sel [blockRows]int32
	var total int64
	for len(ids) > 0 {
		k := copy(sel[:], ids)
		ids = ids[k:]
		for i, b := range bounds {
			if k == 0 {
				break
			}
			if i != seed {
				k = b.refine(&sel, k, b.col)
			}
		}
		total += int64(k)
	}
	return total
}

// scanCount scans all n rows, in parallel chunks above parallelThreshold.
func scanCount(bounds []bound, n int) int64 {
	if n < parallelThreshold {
		return scan(bounds, 0, n, nil)
	}
	// The chunk goroutines get their own copy, so the caller's bounds stay
	// on its stack.
	shared := slices.Clone(bounds)
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	partial := make([]int64, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			partial[w] = scan(shared, start, end, nil)
		}(w, start, end)
	}
	wg.Wait()
	var total int64
	for _, c := range partial {
		total += c
	}
	return total
}

// Selectivity returns Count(preds) normalised by the table size.
func (t *Table) Selectivity(preds []Predicate) (float64, error) {
	c, err := t.Count(preds)
	if err != nil {
		return 0, err
	}
	return float64(c) / float64(t.NumRows()), nil
}

// MatchingRows returns the indexes of all rows satisfying the conjunction,
// in ascending order. It always scans: the value orders list a conjunct's
// rows by value, not by row.
func (t *Table) MatchingRows(preds []Predicate) ([]int, error) {
	c, err := t.compile(preds)
	if err != nil || c.empty {
		return nil, err
	}
	var out []int
	scan(c.bounds(), 0, t.NumRows(), &out)
	return out, nil
}
