package dataset

import (
	"math"
	"sync"
	"sync/atomic"
)

// valueOrder is one column's row permutation: its row ids sorted by
// (value, row). A conjunct lo <= v <= hi then matches one contiguous run of
// it. It is built on the first Count that constrains the column and never
// changes afterwards, which is why a Table's values must not change once it
// has been counted.
type valueOrder struct {
	once sync.Once
	ids  []int32
}

// orderBuilds counts value orders built, so a test can check that
// concurrent first Counts build each one exactly once.
var orderBuilds atomic.Int64

// order returns column ci's rows in (value, row) order, building it on
// first use. Concurrent first calls build it once; the others wait.
func (t *Table) order(ci int) []int32 {
	o := &t.orders[ci]
	o.once.Do(func() {
		o.ids = sortRows(t.Cols[ci].Values)
		orderBuilds.Add(1)
	})
	return o.ids
}

// matchRange returns the run of ids, a column's value order, whose values
// lie in [b.lo, b.hi]: two binary searches, for the first id with value
// >= lo and the first with value > hi. Callers guarantee lo <= hi.
func (b bound) matchRange(ids []int32) []int32 {
	lo := searchGE(ids, b.col, b.lo)
	if b.hi == math.MaxInt64 {
		return ids[lo:]
	}
	return ids[lo:searchGE(ids, b.col, b.hi+1)]
}

// searchGE returns the first position in ids, a value order of vals, whose
// value is >= x (len(ids) if none is).
func searchGE(ids []int32, vals []int64, x int64) int {
	i, j := 0, len(ids)
	for i < j {
		h := int(uint(i+j) >> 1)
		if vals[ids[h]] < x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// sortRows returns the row ids of vals sorted by (value, row). A column
// whose value span is smaller than its row count is placed by one counting
// sort; any other by an LSD radix sort, one stable byte-wide pass per byte
// of the span. Either way the order within one value is ascending row id,
// because both sorts are stable over rows taken in ascending order.
func sortRows(vals []int64) []int32 {
	n := len(vals)
	ids := make([]int32, n)
	if n == 0 {
		return ids
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	// Keys are offsets from the minimum: uint64(v-lo) is exact for every
	// int64 pair with v >= lo, so the unsigned key order is the value order.
	span := uint64(hi - lo)
	if span < uint64(n) {
		next := make([]int32, span+1)
		for _, v := range vals {
			next[uint64(v-lo)]++
		}
		var at int32
		for k, c := range next {
			next[k] = at
			at += c
		}
		for i, v := range vals {
			k := uint64(v - lo)
			ids[next[k]] = int32(i)
			next[k]++
		}
		return ids
	}
	for i := range ids {
		ids[i] = int32(i)
	}
	tmp := make([]int32, n)
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var next [256]int
		for _, id := range ids {
			next[uint64(vals[id]-lo)>>shift&0xff]++
		}
		if next[uint64(vals[ids[0]]-lo)>>shift&0xff] == n {
			continue // every key shares this byte: the pass keeps the order
		}
		at := 0
		for k, c := range next {
			next[k] = at
			at += c
		}
		for _, id := range ids {
			k := uint64(vals[id]-lo) >> shift & 0xff
			tmp[next[k]] = id
			next[k]++
		}
		ids, tmp = tmp, ids
	}
	return ids
}
