package conformal

import (
	"math"
	"slices"
	"unsafe"
)

// groupWidth is how many consecutive feature dimensions one layout group
// covers: the featurizers encode each column as four values (hasPredicate,
// isEquality, lo, hi), so a group is one column's block.
const groupWidth = 4

// groupLayout is the selection strategy's sparse, group-major view of the
// row-major n×dim calibration block. The dimensions are cut into groups of
// groupWidth (the last group takes the remainder). Every dimension has a
// default — its most frequent finite bit pattern — and each group lists, in
// index order, the rows whose tuple differs bitwise from the default tuple,
// with those rows' coordinates packed one tuple after the other. Featurized
// workloads put a predicate on a few columns per query, so most of a row's
// groups sit at the default and most lists are short.
//
// Distances are accumulated one group at a time into a per-row sum, each
// row adding its terms in dimension order, so every sum is sqDist's:
//
//   - a query group bitwise equal to the default tuple adds an exact +0
//     term (x − x = +0 for finite x, and s + 0 = s for every sum s ≥ +0)
//     on each default row, so only the listed rows are visited;
//   - any other query group adds, on each default row, the group's terms
//     against the default tuple, computed once per query; listed rows
//     compute their own terms.
//
// A remainder group narrower than groupWidth is padded with +0 in the
// default, the packed tuples and the query alike, so its padding adds the
// same exact +0 terms and one four-wide kernel serves every group. The
// listed coordinates are read in order from one packed slice, not gathered
// from rows spread over the block. The layout is built only when at most
// half of the row groups are listed, so the packed tuples take about half
// the block at most (the padding aside); it is derived state, rebuilt with
// the block and never serialised.
type groupLayout struct {
	n, dim int
	groups []featGroup
	// rows holds every group's listed rows back to back, and vals their
	// coordinate tuples.
	rows []int32
	vals [][groupWidth]float64
	// finite records that every packed coordinate is finite (the defaults
	// always are): with a finite query no sum can then be NaN.
	finite bool
}

// featGroup is one group of dimensions [lo, lo+w) with its default tuple;
// its listed rows are rows[start:end] of the layout, their tuples
// vals[start:end].
type featGroup struct {
	lo, w      int
	def        [groupWidth]float64
	start, end int
}

// buildGroupLayout builds the layout over a row-major n×dim block, or
// returns nil when more than half of the row groups differ from their
// default tuple and the layout would not be sparse.
func buildGroupLayout(block []float64, n, dim int) *groupLayout {
	g := &groupLayout{n: n, dim: dim}
	def := make([]float64, dim)
	bits := make([]uint64, 0, n)
	for j := range def {
		bits = bits[:0]
		for i := 0; i < n; i++ {
			if v := block[i*dim+j]; !math.IsInf(v, 0) && !math.IsNaN(v) {
				bits = append(bits, math.Float64bits(v))
			}
		}
		def[j] = modeBits(bits)
	}
	for lo := 0; lo < dim; lo += groupWidth {
		gr := featGroup{lo: lo, w: min(groupWidth, dim-lo), start: len(g.rows)}
		copy(gr.def[:], def[lo:lo+gr.w])
		for i := 0; i < n; i++ {
			if !sameBits(block[i*dim+lo:][:gr.w], gr.def[:gr.w]) {
				g.rows = append(g.rows, int32(i))
			}
		}
		gr.end = len(g.rows)
		g.groups = append(g.groups, gr)
	}
	if 2*len(g.rows) > n*len(g.groups) {
		return nil
	}
	g.rows = slices.Clip(g.rows)
	g.vals = make([][groupWidth]float64, len(g.rows))
	g.finite = true
	for _, gr := range g.groups {
		for m, i := range g.rows[gr.start:gr.end] {
			v := &g.vals[gr.start+m]
			copy(v[:], block[int(i)*dim+gr.lo:][:gr.w])
			g.finite = g.finite && finiteVec(v[:])
		}
	}
	return g
}

// modeBits returns the most frequent of the bit patterns (the smallest on a
// tie) as a float64, or +0 when there are none. It sorts bits.
func modeBits(bits []uint64) float64 {
	slices.Sort(bits)
	var best uint64
	bestRun := 0
	for i := 0; i < len(bits); {
		j := i + 1
		for j < len(bits) && bits[j] == bits[i] {
			j++
		}
		if j-i > bestRun {
			best, bestRun = bits[i], j-i
		}
		i = j
	}
	return math.Float64frombits(best)
}

// sameBits reports whether a and b (of equal length) are bitwise equal.
func sameBits(a, b []float64) bool {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// bytes returns the memory the layout holds beyond the block it describes.
func (g *groupLayout) bytes() int {
	return 4*cap(g.rows) + groupWidth*8*cap(g.vals) + cap(g.groups)*int(unsafe.Sizeof(featGroup{}))
}

// appendDistances appends sqDist(row i, q) for every block row to dst; q
// must have the block's width. Each sum is built group by group in
// dimension order, so it is bit-identical to sqDist's, NaN-to-+Inf mapping
// included; that mapping pass is skipped when every coordinate is finite,
// since squares of finite differences (+Inf at worst) sum to no NaN.
func (g *groupLayout) appendDistances(dst, q []float64) []float64 {
	start := len(dst)
	dst = slices.Grow(dst, g.n)[:start+g.n]
	acc := dst[start:][:g.n]
	clear(acc)
	for k := range g.groups {
		gr := &g.groups[k]
		var qg [groupWidth]float64
		copy(qg[:], q[gr.lo:gr.lo+gr.w])
		addGroup(acc, g.rows[gr.start:gr.end], g.vals[gr.start:gr.end], &gr.def, &qg)
	}
	if !g.finite || !finiteVec(q) {
		for i, s := range acc {
			acc[i] = nanToInf(s)
		}
	}
	return dst
}

// addGroup adds one group's terms against the query tuple q to every row's
// sum; rows and vals are the group's listed rows and their tuples.
func addGroup(acc []float64, rows []int32, vals [][groupWidth]float64, def, q *[groupWidth]float64) {
	vals = vals[:len(rows)]
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	if sameBits(q[:], def[:]) {
		for m, i := range rows {
			r := &vals[m]
			d0, d1, d2, d3 := r[0]-q0, r[1]-q1, r[2]-q2, r[3]-q3
			s := acc[i]
			s += float64(d0 * d0)
			s += float64(d1 * d1)
			s += float64(d2 * d2)
			s += float64(d3 * d3)
			acc[i] = s
		}
		return
	}
	e0, e1, e2, e3 := def[0]-q0, def[1]-q1, def[2]-q2, def[3]-q3
	t0, t1, t2, t3 := float64(e0*e0), float64(e1*e1), float64(e2*e2), float64(e3*e3)
	next := 0
	for m, i := range rows {
		for j := next; j < int(i); j++ {
			s := acc[j]
			s += t0
			s += t1
			s += t2
			s += t3
			acc[j] = s
		}
		r := &vals[m]
		d0, d1, d2, d3 := r[0]-q0, r[1]-q1, r[2]-q2, r[3]-q3
		s := acc[i]
		s += float64(d0 * d0)
		s += float64(d1 * d1)
		s += float64(d2 * d2)
		s += float64(d3 * d3)
		acc[i] = s
		next = int(i) + 1
	}
	for j := next; j < len(acc); j++ {
		s := acc[j]
		s += t0
		s += t1
		s += t2
		s += t3
		acc[j] = s
	}
}
