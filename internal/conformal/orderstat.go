package conformal

import "math"

// scoreBlockMax is the largest block orderedScores keeps: a block that grows
// past it splits in two. Insertion memmoves at most one block (8 KiB), and
// the block directory stays small enough (n/512 … n/1024 entries) that its
// Fenwick rebuild on a split is noise.
const scoreBlockMax = 1024

// orderedScores is the order-statistic multiset behind PowerMartingale: it
// answers "how many stored scores are greater than / equal to x" and accepts
// insertions in O(log n) comparisons plus one in-block memmove, instead of
// the O(n) scan a plain history slice needs.
//
// Scores live in sorted blocks whose concatenation is the sorted history
// (a blocked sorted list). maxes holds each block's last score, so one
// binary search picks the block and a second one the position inside it; a
// Fenwick tree over the block lengths turns a block index into the number of
// scores before it. The blocks are the only per-score storage, so memory is
// 8–12 bytes per score, depending on block fill. NaN scores are never
// stored: they compare neither greater nor equal to anything, so only their
// count is kept.
//
// The order is Go's < on float64, under which -0 and +0 are equal and ±Inf
// are ordinary extremes — exactly the comparisons a linear scan with > and
// == makes, so counts match it bit for bit.
type orderedScores struct {
	blocks [][]float64
	maxes  []float64
	fen    []int // 1-based Fenwick tree over len(blocks[i])
	sorted int   // non-NaN scores stored
	nans   int
}

// Len returns the number of scores inserted, NaNs included.
func (o *orderedScores) Len() int { return o.sorted + o.nans }

// counts returns how many stored scores are strictly greater than x and how
// many equal it. A NaN x has no greater or equal scores.
func (o *orderedScores) counts(x float64) (greater, equal int) {
	if math.IsNaN(x) {
		return 0, 0
	}
	le := o.rank(x, true)
	return o.sorted - le, le - o.rank(x, false)
}

// rank returns the number of stored scores < x, or <= x when orEqual.
func (o *orderedScores) rank(x float64, orEqual bool) int {
	b := searchAfter(o.maxes, x, orEqual)
	if b == len(o.blocks) {
		return o.sorted
	}
	return o.prefix(b) + searchAfter(o.blocks[b], x, orEqual)
}

// insert adds x to the multiset.
func (o *orderedScores) insert(x float64) {
	if math.IsNaN(x) {
		o.nans++
		return
	}
	o.sorted++
	if len(o.blocks) == 0 {
		o.blocks = append(o.blocks, append(make([]float64, 0, 64), x))
		o.maxes = append(o.maxes, x)
		o.rebuildFenwick()
		return
	}
	// The first block whose max exceeds x takes it after its equal run;
	// past every max, x extends the last block.
	b := searchAfter(o.maxes, x, true)
	if b == len(o.blocks) {
		b--
		o.maxes[b] = x
	}
	blk := o.blocks[b]
	i := searchAfter(blk, x, true)
	blk = append(blk, 0)
	copy(blk[i+1:], blk[i:])
	blk[i] = x
	o.blocks[b] = blk
	for j := b + 1; j <= len(o.blocks); j += j & -j {
		o.fen[j]++
	}
	if len(blk) > scoreBlockMax {
		o.split(b)
	}
}

// split halves block b into two freshly sized blocks, so a block's unused
// capacity never outlives the split that left it half empty.
func (o *orderedScores) split(b int) {
	blk := o.blocks[b]
	h := len(blk) / 2
	lo := append([]float64(nil), blk[:h]...)
	hi := append([]float64(nil), blk[h:]...)
	o.blocks = append(o.blocks, nil)
	copy(o.blocks[b+2:], o.blocks[b+1:])
	o.blocks[b], o.blocks[b+1] = lo, hi
	o.maxes = append(o.maxes, 0)
	copy(o.maxes[b+2:], o.maxes[b+1:])
	o.maxes[b], o.maxes[b+1] = lo[len(lo)-1], hi[len(hi)-1]
	o.rebuildFenwick()
}

// prefix returns the number of scores in blocks[0:b].
func (o *orderedScores) prefix(b int) int {
	s := 0
	for ; b > 0; b -= b & -b {
		s += o.fen[b]
	}
	return s
}

// rebuildFenwick recomputes the block-length tree in O(len(blocks)).
func (o *orderedScores) rebuildFenwick() {
	n := len(o.blocks)
	if cap(o.fen) < n+1 {
		o.fen = make([]int, n+1, 2*n+2)
	}
	o.fen = o.fen[:n+1]
	o.fen[0] = 0
	for i := 1; i <= n; i++ {
		o.fen[i] = len(o.blocks[i-1])
	}
	for i := 1; i <= n; i++ {
		if j := i + i&-i; j <= n {
			o.fen[j] += o.fen[i]
		}
	}
}

// reset empties the multiset and releases its storage.
func (o *orderedScores) reset() { *o = orderedScores{} }

// searchAfter returns the first index i of the sorted slice a with a[i] > x
// (orEqual) or a[i] >= x (otherwise): the count of elements <= x or < x.
func searchAfter(a []float64, x float64, orEqual bool) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] < x || (orEqual && a[m] == x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
