// Package scenario is the dataset-mutation harness behind the self-healing
// serving tests: it produces the distribution shifts a deployed estimator
// actually faces — bulk inserts, value-skew rewrites, and the graded
// stats-staleness levels (100/90/50/0% health, the fraction of rows left
// untouched) used by the TiDB cardinality-estimation evaluation — so a test
// can collapse a frozen model's coverage under a live server and assert the
// closed recalibration loop recovers it without a restart.
//
// Every mutator leaves the table it is given untouched and returns a
// mutated copy: a dataset.Table is immutable once built (Count keeps a
// per-column value order of it), so a live server publishes the returned
// table with one atomic pointer store while requests finish on the old one
// (see the /admin/scenario handler in cmd/cardpi). Every mutator is
// deterministic in its seed and keeps all values inside the column's
// declared domain, so existing predicates and query parsing stay valid.
package scenario

import (
	"fmt"
	"math/rand"

	"cardpi/internal/dataset"
)

// columns returns copies of t's column descriptors. A column for which
// private holds gets its own copy of the values, with capacity for extra
// more rows; the others share t's values, which nothing writes. Read-only
// column metadata (Dict, the code lookup) is always shared.
func columns(t *dataset.Table, extra int, private func(*dataset.Column) bool) []*dataset.Column {
	cols := make([]*dataset.Column, len(t.Cols))
	for i, c := range t.Cols {
		nc := *c
		if private(c) {
			nc.Values = append(make([]int64, 0, len(c.Values)+extra), c.Values...)
		}
		cols[i] = &nc
	}
	return cols
}

func all(*dataset.Column) bool { return true }

// Degrade returns a copy of t in which every column of a uniform sample of
// (100-health)% of the rows is redrawn from the hot decile of its column's
// domain. health follows the TiDB stats-health convention — 100 leaves the
// values untouched, 0 rewrites every row — and the rewritten mass piles
// onto a narrow hot region, so statistics frozen on the old distribution
// misprice both the exploded hot values and the depleted rest. Also returns
// the number of rows rewritten.
func Degrade(t *dataset.Table, health int, seed int64) (*dataset.Table, int, error) {
	if health < 0 || health > 100 {
		return nil, 0, fmt.Errorf("scenario: health %d outside [0, 100]", health)
	}
	cols := columns(t, 0, all)
	n := t.NumRows()
	k := n * (100 - health) / 100
	if k > 0 {
		r := rand.New(rand.NewSource(seed))
		for _, ri := range r.Perm(n)[:k] {
			for _, c := range cols {
				c.Values[ri] = hotValue(c, r)
			}
		}
	}
	return dataset.MustNewTable(t.Name, cols), k, nil
}

// InsertSkewed returns a copy of t with n rows appended, drawn entirely
// from each column's hot decile — the bulk-insert drift regime where new
// data concentrates where old data was rare. Also returns the number of
// rows appended.
func InsertSkewed(t *dataset.Table, n int, seed int64) (*dataset.Table, int, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("scenario: insert count %d must be positive", n)
	}
	cols := columns(t, n, all)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for _, c := range cols {
			c.Values = append(c.Values, hotValue(c, r))
		}
	}
	return dataset.MustNewTable(t.Name, cols), n, nil
}

// SkewColumn returns a copy of t in which a uniform sample of frac of the
// named column's values is rewritten to its hot decile; the other columns
// keep t's values — a single-attribute skew shift (e.g. one tenant's
// traffic concentrating on one region). Also returns the number of values
// rewritten.
func SkewColumn(t *dataset.Table, col string, frac float64, seed int64) (*dataset.Table, int, error) {
	ci, ok := t.ColumnIndex(col)
	if !ok {
		return nil, 0, fmt.Errorf("scenario: table %q has no column %q", t.Name, col)
	}
	if frac < 0 || frac > 1 {
		return nil, 0, fmt.Errorf("scenario: frac %v outside [0, 1]", frac)
	}
	cols := columns(t, 0, func(c *dataset.Column) bool { return c.Name == col })
	c := cols[ci]
	n := len(c.Values)
	k := int(frac * float64(n))
	if k > 0 {
		r := rand.New(rand.NewSource(seed))
		for _, ri := range r.Perm(n)[:k] {
			c.Values[ri] = hotValue(c, r)
		}
	}
	return dataset.MustNewTable(t.Name, cols), k, nil
}

// hotValue draws uniformly from the top decile of the column's declared
// domain (at least one value wide), always inside [0, DomainSize) for
// categorical columns and [Min, Max] for numeric ones.
func hotValue(c *dataset.Column, r *rand.Rand) int64 {
	dec := c.DomainWidth() / 10
	if dec < 1 {
		dec = 1
	}
	var lo int64
	if c.Type == dataset.Categorical {
		lo = c.DomainSize - dec
	} else {
		lo = c.Max - dec + 1
	}
	return lo + r.Int63n(dec)
}
