package conformal

import (
	"math"
	"sort"
)

// Exact k-nearest-neighbour selection over the calibration features under
// the (squared distance, calibration index) lexicographic total order — the
// same order LocalDelta's reference sort produces — so every strategy below
// selects the identical neighbour set and the Localized batch path stays
// bit-identical to the sequential reference.
//
// Three strategies cover the practical regimes, none of which sorts the
// full calibration set per query (Localized.localDelta picks one):
//
//   - a bucketed k-d tree with (distance, index)-aware pruning for
//     low-dimensional all-finite features (dim <= kdMaxDim), built once at
//     calibration or rehydration time — O(log n + k) expected per query on
//     clustered data;
//   - a bounded max-heap scan with early-abandoned distance accumulation
//     when K is small relative to n (8K <= n, the high-dimensional
//     featurizer regime) — O(n) with a small constant because most rows
//     abandon after a few coordinates;
//   - a selection-only pass when K is a large fraction of n, where neither
//     tree pruning nor early abandonment can skip much work (the serving
//     shape: n = 800, K = 200, 44 dims). Every distance goes into a flat
//     []float64 (through the sparse group layout, or row by row when the
//     rows are dense), a radix select over the distances' bit patterns
//     finds the K-th smallest distance t without permuting them, and one
//     branch-free index-order pass keeps the rows closer than t plus the
//     first K − #{d < t} rows at exactly t — O(n), and no candidate is
//     ever ordered.
//
// Whichever strategy runs, the conformal order statistic of the K chosen
// scores is then selected (quantileSelect), not read off a sorted copy.

// kdMaxDim bounds the feature dimensionality the k-d tree is built for;
// above it axis-aligned pruning degenerates and the scan strategies win.
const kdMaxDim = 16

// kdLeafSize is the tree's leaf bucket size: subtrees at most this large
// are scanned linearly instead of split further.
const kdLeafSize = 16

// distIdx is one neighbour candidate: squared distance plus calibration
// index, compared lexicographically (distance first, index second). The
// index tie-break makes the order total, which pins down ties exactly as
// the reference sort does.
type distIdx struct {
	d   float64
	idx int32
}

func lessDistIdx(a, b distIdx) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.idx < b.idx
}

// kdNode is one node of the implicit-array k-d tree. Internal nodes carry
// the split axis/coordinate and child positions; leaves (axis == -1) carry
// an order[start:end) bucket of calibration indices.
type kdNode struct {
	axis        int32
	split       float64
	left, right int32
	start, end  int32
}

// neighborIndex is the prebuilt neighbour-search structure over the
// calibration features. The tree part (nodes/order) is only present when
// the features are eligible (uniform dimension <= kdMaxDim, all finite);
// the scan and selection strategies need nothing beyond the raw features,
// so a nil or tree-less index never blocks the batch path. Immutable after
// construction and therefore safe for concurrent readers.
type neighborIndex struct {
	feats [][]float64
	dim   int
	order []int32
	nodes []kdNode
	root  int32
}

// buildNeighborIndex constructs the index for the calibration features,
// including the k-d tree when the features are tree-eligible. It never
// fails: ineligible features simply yield an index without a tree.
func buildNeighborIndex(feats [][]float64) *neighborIndex {
	ix := &neighborIndex{feats: feats}
	if len(feats) <= kdLeafSize {
		return ix
	}
	dim := len(feats[0])
	if dim == 0 || dim > kdMaxDim {
		return ix
	}
	for _, f := range feats {
		if len(f) != dim || !finiteVec(f) {
			return ix
		}
	}
	ix.dim = dim
	ix.order = make([]int32, len(feats))
	for i := range ix.order {
		ix.order[i] = int32(i)
	}
	ix.root = ix.build(0, int32(len(feats)))
	return ix
}

// build recursively splits order[start:end) on the widest-spread axis at
// the median, returning the node position. Ties in the split coordinate are
// broken by calibration index so construction is deterministic.
func (ix *neighborIndex) build(start, end int32) int32 {
	if end-start <= kdLeafSize {
		ix.nodes = append(ix.nodes, kdNode{axis: -1, start: start, end: end})
		return int32(len(ix.nodes) - 1)
	}
	axis := 0
	widest := -1.0
	for a := 0; a < ix.dim; a++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range ix.order[start:end] {
			v := ix.feats[i][a]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > widest {
			widest = spread
			axis = a
		}
	}
	seg := ix.order[start:end]
	sort.Slice(seg, func(i, j int) bool {
		a, b := seg[i], seg[j]
		av, bv := ix.feats[a][axis], ix.feats[b][axis]
		if av != bv {
			return av < bv
		}
		return a < b
	})
	mid := (start + end) / 2
	pos := int32(len(ix.nodes))
	ix.nodes = append(ix.nodes, kdNode{axis: int32(axis), split: ix.feats[ix.order[mid]][axis]})
	left := ix.build(start, mid)
	right := ix.build(mid, end)
	ix.nodes[pos].left, ix.nodes[pos].right = left, right
	return pos
}

// search descends the tree collecting the k nearest candidates into h.
// The far child is visited whenever farBound does not exceed the current
// worst survivor — a tied far point with a smaller calibration index must
// still win — which keeps the selection exact under the (distance, index)
// order.
func (ix *neighborIndex) search(ni int32, q []float64, h *knnHeap) {
	nd := &ix.nodes[ni]
	if nd.axis < 0 {
		for _, i := range ix.order[nd.start:nd.end] {
			h.consider(distIdx{d: sqDist(ix.feats[i], q), idx: i})
		}
		return
	}
	var qc float64
	if int(nd.axis) < len(q) {
		qc = q[nd.axis]
	}
	near, far := nd.left, nd.right
	if qc > nd.split {
		near, far = far, near
	}
	ix.search(near, q, h)
	if !h.full() || ix.farBound(qc-nd.split, q) <= h.worst() {
		ix.search(far, q, h)
	}
}

// farBound returns a lower bound on the computed sqDist of every point
// beyond a split at signed offset diff from the query: diff², then the
// squares of the query's dimensions past the tree's, added one by one as
// sqDist adds them. Rounded addition of non-negative terms is monotone, so
// a point's sum, which adds at least diff² on the split axis and then
// those same tail terms, never comes out below it. (Adding the tail as one
// presummed constant is not a bound: the sum rounds differently and can
// exceed an exactly tied distance.)
func (ix *neighborIndex) farBound(diff float64, q []float64) float64 {
	b := float64(diff * diff)
	for _, x := range q[min(ix.dim, len(q)):] {
		b += float64(x * x)
	}
	return b
}

// knnHeap is a bounded max-heap of the k best candidates seen so far under
// the (distance, index) order; the worst survivor sits at the root so
// replacement and pruning bounds are O(1) to read.
type knnHeap struct {
	k     int
	items []distIdx
}

func (h *knnHeap) reset(k int) {
	h.k = k
	h.items = h.items[:0]
}

func (h *knnHeap) full() bool { return len(h.items) >= h.k }

// worst returns the root distance; only valid when the heap is full.
func (h *knnHeap) worst() float64 { return h.items[0].d }

// consider inserts c if the heap is not full, or replaces the worst
// survivor if c beats it.
func (h *knnHeap) consider(c distIdx) {
	if len(h.items) < h.k {
		h.items = append(h.items, c)
		i := len(h.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !lessDistIdx(h.items[p], h.items[i]) {
				break
			}
			h.items[p], h.items[i] = h.items[i], h.items[p]
			i = p
		}
		return
	}
	if !lessDistIdx(c, h.items[0]) {
		return
	}
	h.items[0] = c
	i, n := 0, len(h.items)
	for {
		big := i
		if l := 2*i + 1; l < n && lessDistIdx(h.items[big], h.items[l]) {
			big = l
		}
		if r := 2*i + 2; r < n && lessDistIdx(h.items[big], h.items[r]) {
			big = r
		}
		if big == i {
			break
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}

// scanKNN scans every calibration row keeping the k best candidates in h.
// Once the heap is full, per-row distance accumulation abandons as soon as
// the partial sum strictly exceeds the current worst survivor; rows that
// tie the worst distance are evaluated fully so index tie-breaks stay
// exact.
func scanKNN(feats [][]float64, q []float64, h *knnHeap) {
	for i, f := range feats {
		if h.full() {
			d, ok := sqDistWithin(f, q, h.worst())
			if !ok {
				continue
			}
			h.consider(distIdx{d: d, idx: int32(i)})
		} else {
			h.consider(distIdx{d: sqDist(f, q), idx: int32(i)})
		}
	}
}

// sqDistWithin is sqDist with early abandonment: it reports ok=false as
// soon as the accumulating sum strictly exceeds bound (squared terms only
// grow the sum, so the final distance would be at least as large). Rows
// that run to completion reproduce sqDist bit for bit, including the
// NaN-to-+Inf mapping.
func sqDistWithin(a, b []float64, bound float64) (float64, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += float64(d * d)
		if s > bound {
			return 0, false
		}
	}
	for i := n; i < len(a); i++ {
		s += float64(a[i] * a[i])
		if s > bound {
			return 0, false
		}
	}
	for i := n; i < len(b); i++ {
		s += float64(b[i] * b[i])
		if s > bound {
			return 0, false
		}
	}
	if math.IsNaN(s) {
		return math.Inf(1), true
	}
	return s, true
}

// finiteVec reports whether every coordinate is finite (no NaN, no ±Inf).
func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
