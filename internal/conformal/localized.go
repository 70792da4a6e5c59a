package conformal

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"cardpi/internal/par"
)

// Localized implements localized conformal prediction (LCP; Guan 2021,
// Foygel Barber et al. 2021), the extension the paper's Section V-D singles
// out as promising: instead of one global quantile over the whole
// calibration set, each test query's threshold is computed from the
// calibration points nearest to it in feature space. Queries from
// well-represented workload regions get tighter intervals; outliers get
// wider ones.
//
// This implementation uses the k-nearest-neighbour localisation with a
// conservative quantile (the ⌈(k+1)(1−α)⌉-th smallest local score), which
// preserves approximate validity while adapting the width locally.
type Localized struct {
	// Alpha is the miscoverage level.
	Alpha float64
	// K is the neighbourhood size.
	K int

	score Score
	// feats are the calibration feature rows. When every row has the same
	// width they are views into one row-major n×dim block; rows of mixed
	// width keep their own storage.
	feats  [][]float64
	scores []float64
	// index is the prebuilt neighbour-search structure the batch path uses
	// (built at calibration and rehydration time); nil is tolerated — the
	// batch path then uses its scan strategies over feats directly.
	index *neighborIndex
	// layout is the selection strategy's sparse group-major view of the
	// block, built only when that strategy can run (uniform width, 8K > n)
	// and the rows are sparse enough (see buildGroupLayout); without it the
	// strategy computes sqDist row by row.
	layout *groupLayout
}

// CalibrateLocalized stores the calibration points' features and scores.
// k bounds the neighbourhood; it is clamped to the calibration size.
func CalibrateLocalized(feats [][]float64, preds, truths []float64, score Score, alpha float64, k int) (*Localized, error) {
	if len(feats) != len(preds) || len(preds) != len(truths) {
		return nil, fmt.Errorf("conformal: mismatched lengths %d/%d/%d", len(feats), len(preds), len(truths))
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("conformal: empty calibration set")
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("conformal: alpha must be in (0,1), got %v", alpha)
	}
	if k < 1 {
		return nil, fmt.Errorf("conformal: neighbourhood size must be positive, got %d", k)
	}
	if k > len(feats) {
		k = len(feats)
	}
	scores := make([]float64, len(preds))
	for i := range preds {
		scores[i] = score.Of(preds[i], truths[i])
	}
	l := &Localized{Alpha: alpha, K: k, score: score, scores: scores}
	l.setFeatures(feats)
	return l, nil
}

// setFeatures installs the calibration features: uniform-width rows are
// copied into one row-major block and feats become views into it, so the
// predictor holds a single copy; rows of mixed width are kept as given.
// The neighbour index is rebuilt over the installed rows, and the group
// layout over the block when K selects the selection strategy.
func (l *Localized) setFeatures(feats [][]float64) {
	dim := len(feats[0])
	for _, f := range feats {
		if len(f) != dim {
			l.feats, l.layout = feats, nil
			l.index = buildNeighborIndex(feats)
			return
		}
	}
	block := make([]float64, len(feats)*dim)
	rows := make([][]float64, len(feats))
	for i, f := range feats {
		row := block[i*dim : (i+1)*dim : (i+1)*dim]
		copy(row, f)
		rows[i] = row
	}
	l.feats = rows
	l.index = buildNeighborIndex(rows)
	l.layout = nil
	if 8*l.K > len(rows) {
		l.layout = buildGroupLayout(block, len(rows), dim)
	}
}

// Interval computes the locally calibrated interval for a query with the
// given feature vector and point prediction. It is the batch kernel applied
// to one row: neighbours come from the prebuilt index with a pooled scratch
// buffer set, so a single query never sorts the calibration set and
// allocates nothing once the pool is warm. Bit-identical to the matching
// Intervals row.
func (l *Localized) Interval(feat []float64, pred float64) (Interval, error) {
	s := knnScratchPool.Get().(*knnScratch)
	delta, err := l.localDelta(feat, s)
	knnScratchPool.Put(s)
	if err != nil {
		return Interval{}, err
	}
	return l.score.Interval(pred, delta), nil
}

// knnScratch holds the reusable buffers of the batch kNN path so a whole
// batch (or one worker's row block of it) shares one allocation set;
// per-row allocations are zero once the buffers have grown. Not safe for
// concurrent use — each row-block worker takes its own scratch from
// knnScratchPool.
type knnScratch struct {
	heap knnHeap
	// dist holds every calibration row's distance to the query (selection
	// strategy only).
	dist []float64
	// local receives the chosen neighbours' scores.
	local []float64
}

// knnScratchPool recycles kNN scratch buffer sets across batch calls and
// across the row-block workers inside one call, so batch allocations are
// O(1) in the batch size instead of one scratch growth per call.
var knnScratchPool = sync.Pool{New: func() any { return new(knnScratch) }}

// lcpMinBlock is the smallest per-worker row block when the batch kNN path
// shards: one neighbour probe costs a tree descent or partial scan over the
// calibration set, heavy enough that small blocks amortise the fan-out.
const lcpMinBlock = 8

// Deltas computes the local threshold of every feature row, writing the
// thresholds into out (len(out) must equal len(feats)). Rows are sharded in
// contiguous blocks over the batch worker pool (par.RunBlocks); each block
// worker selects neighbours through the prebuilt index — k-d tree descent,
// early-abandoning bounded-heap scan, or a K-th-distance selection
// depending on dimensionality and K — with its own pooled scratch buffer
// set, and never sorts the calibration set or the neighbours' scores. Per-row
// results are bit-identical to the full-sort reference (LocalDelta in the
// package tests) for any worker count; on failure the lowest-indexed
// failing row's error is returned (every row is still attempted). Safe for
// concurrent use: the calibration state is read-only after construction.
func (l *Localized) Deltas(feats [][]float64, out []float64) error {
	if len(feats) != len(out) {
		return fmt.Errorf("conformal: %d feature rows vs %d outputs", len(feats), len(out))
	}
	if len(feats) <= lcpMinBlock {
		return l.rows(feats, nil, out, nil)
	}
	return par.RunBlocks(len(feats), lcpMinBlock, func(lo, hi int) error {
		return l.rows(feats[lo:hi], nil, out[lo:hi], nil)
	})
}

// Intervals computes the locally calibrated interval for each (feature
// row, point prediction) pair, writing into out (all three slices must have
// equal length). It is the batch analogue of Interval and shares Deltas'
// neighbour index, row-block sharding, and bit-identity guarantee.
func (l *Localized) Intervals(feats [][]float64, preds []float64, out []Interval) error {
	if len(feats) != len(preds) || len(preds) != len(out) {
		return fmt.Errorf("conformal: mismatched lengths %d/%d/%d", len(feats), len(preds), len(out))
	}
	if len(feats) <= lcpMinBlock {
		return l.rows(feats, preds, nil, out)
	}
	return par.RunBlocks(len(feats), lcpMinBlock, func(lo, hi int) error {
		return l.rows(feats[lo:hi], preds[lo:hi], nil, out[lo:hi])
	})
}

// rows computes one row block with one pooled scratch set: the thresholds
// into deltas, or, when ivs is non-nil, the intervals around preds into
// ivs. Deltas and Intervals call it directly for a block too small to
// shard, so a one-row call builds no closure and allocates nothing.
func (l *Localized) rows(feats [][]float64, preds, deltas []float64, ivs []Interval) error {
	s := knnScratchPool.Get().(*knnScratch)
	defer knnScratchPool.Put(s)
	for i, f := range feats {
		d, err := l.localDelta(f, s)
		if err != nil {
			return err
		}
		if ivs != nil {
			ivs[i] = l.score.Interval(preds[i], d)
		} else {
			deltas[i] = d
		}
	}
	return nil
}

// localDelta computes one threshold through the neighbour index using the
// scratch buffers. Every strategy selects the identical K-candidate set
// under the (distance, index) total order, and the conformal order
// statistic of their scores is selected, not sorted for, so the threshold
// matches the reference sort exactly.
func (l *Localized) localDelta(feat []float64, s *knnScratch) (float64, error) {
	n := len(l.feats)
	k := l.K
	if n == 0 {
		return 0, fmt.Errorf("conformal: empty calibration set")
	}
	if k < 1 || k > n {
		return 0, fmt.Errorf("conformal: neighbourhood size %d outside [1, %d]", k, n)
	}
	s.local = s.local[:0]
	switch l.strategy(feat) {
	case strategyTree:
		s.heap.reset(k)
		l.index.search(l.index.root, feat, &s.heap)
		s.local = l.appendHeapScores(s.local, &s.heap)
	case strategyHeap:
		s.heap.reset(k)
		scanKNN(l.feats, feat, &s.heap)
		s.local = l.appendHeapScores(s.local, &s.heap)
	default:
		s.local = l.appendNearestScores(s.local, feat, s)
	}
	return quantileSelect(s.local, l.Alpha), nil
}

// The neighbour strategies localDelta picks between (see knn.go).
const (
	strategyTree = iota
	strategyHeap
	strategySelect
)

// strategy returns the strategy localDelta takes for a query: the k-d tree
// when one is built and the query is finite, the bounded-heap scan when K
// is small against n, and the selection pass otherwise.
func (l *Localized) strategy(feat []float64) int {
	switch {
	case l.index != nil && l.index.nodes != nil && finiteVec(feat):
		return strategyTree
	case 8*l.K <= len(l.feats):
		return strategyHeap
	default:
		return strategySelect
	}
}

// appendHeapScores appends the scores of the heap's K survivors to dst.
func (l *Localized) appendHeapScores(dst []float64, h *knnHeap) []float64 {
	for _, c := range h.items {
		dst = append(dst, l.scores[c.idx])
	}
	return dst
}

// appendNearestScores appends the scores of the K nearest calibration rows
// to dst without ordering any candidates: it selects the K-th smallest
// distance t (kthDist, which also counts the distances below t), then
// keeps every row closer than t and the first K − #{d < t} rows at exactly
// t in index order — the set the (distance, index) order puts first.
// sqDist never returns NaN, so < is a total preorder on the distances. The
// keep pass is branch-free and compares bit patterns, as kthDist does:
// every row's score is written at the next free slot, which only a kept
// row claims, and a row is kept while its pattern is below t's — or at
// t's, while fewer than K − #{d < t} rows at t have come before it.
func (l *Localized) appendNearestScores(dst, feat []float64, s *knnScratch) []float64 {
	s.dist = l.appendDistances(s.dist[:0], feat)
	t, less := kthDist(s.dist, l.K-1)
	ties, tb := l.K-less, absBits(t)
	start := len(dst)
	dst = slices.Grow(dst, l.K+1)[:start+l.K+1]
	out := dst[start:]
	scores := l.scores[:len(s.dist)]
	m, seen := 0, 0
	for i, d := range s.dist {
		b := absBits(d)
		out[m] = scores[i]
		m += b2i(b < tb+uint64(b2i(seen < ties)))
		seen += b2i(b == tb)
	}
	return dst[:start+m]
}

// b2i converts a bool to 0 or 1 without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// appendDistances appends sqDist(feats[i], q) for every calibration row to
// dst: through the group layout when there is one and q has its width, row
// by row otherwise.
func (l *Localized) appendDistances(dst, q []float64) []float64 {
	if l.layout != nil && len(q) == l.layout.dim {
		return l.layout.appendDistances(dst, q)
	}
	for _, f := range l.feats {
		dst = append(dst, sqDist(f, q))
	}
	return dst
}

// kthDist returns the r-th smallest (0-based) of dist and how many of its
// values are strictly smaller, reading dist without permuting it. Every
// distance lies in [+0, +Inf] (sqDist maps NaN to +Inf), and non-negative
// IEEE-754 doubles order exactly like their bit patterns as unsigned
// integers, so this is a radix select on the patterns of |d| (a −0 counts
// as the +0 it equals; sqDist never yields one).
//
// Each pass splits a pattern range [lo, hi] into at most 256 equal digit
// ranges, counts the bucket's values in each — values below lo or above the
// last range clamped into the end ranges — and keeps the range that holds
// rank r as the next bucket. The first pass splits the range of a strided
// sample of dist, so no pass is spent finding the exact bounds; later
// passes split the bucket's exact smallest and largest pattern, and stop
// as soon as those are equal: every value left is then equal, so a tied
// K-th distance ends the select there instead of after all 64 bits.
// Splitting a range, not a byte of the pattern, spreads the values over
// the counters even where their bits share little prefix (distances on
// both sides of a power of two). A bucket of at most kthBufLen values is
// gathered into a stack buffer and finished there (kthBits), so later
// passes read only the bucket.
func kthDist(dist []float64, r int) (t float64, less int) {
	var cnt [256]int32
	// The bucket holds the patterns p with p-base <= span.
	base, span := uint64(0), ^uint64(0)
	lo, hi := ^uint64(0), uint64(0)
	for i := 0; i < len(dist); i += max(len(dist)/kthSample, 1) {
		b := absBits(dist[i])
		lo, hi = min(lo, b), max(hi, b)
	}
	for {
		shift := max(bits.Len64(hi-lo)-8, 0)
		cnt = [256]int32{}
		for _, d := range dist {
			if b := absBits(d); b-base <= span {
				cnt[digit(b, lo, shift)]++
			}
		}
		k := 0
		for r >= int(cnt[k]) {
			r -= int(cnt[k])
			less += int(cnt[k])
			k++
		}
		first, last := lo+uint64(k)<<shift, lo+uint64(k+1)<<shift-1
		if k == 0 {
			first = 0
		}
		if k == 255 {
			last = ^uint64(0)
		}
		first, last = max(first, base), min(last, base+span)
		base, span = first, last-first
		if c := int(cnt[k]); c <= kthBufLen {
			var buf [kthBufLen + 1]uint64
			m := 0
			for _, d := range dist {
				b := absBits(d)
				buf[m] = b
				m += b2i(b-base <= span)
			}
			return kthBits(buf[:c], r, less)
		}
		lo, hi = ^uint64(0), uint64(0)
		for _, d := range dist {
			if b := absBits(d); b-base <= span {
				lo, hi = min(lo, b), max(hi, b)
			}
		}
		if lo == hi {
			return math.Float64frombits(lo), less
		}
	}
}

// kthSample is how many strided values kthDist's first pass takes its
// range from.
const kthSample = 32

// digit returns the counter of pattern b in a pass splitting [lo, …) into
// ranges of 1<<shift patterns: patterns below lo count in the first range,
// and patterns past the 256th range in the last.
func digit(b, lo uint64, shift int) uint8 {
	// Patterns are below 1<<63, so b-lo as an int64 is negative exactly
	// when b < lo.
	return uint8(min(uint64(max(int64(b-lo), 0))>>shift, 255))
}

// absBits returns the bit pattern of |d|.
func absBits(d float64) uint64 { return math.Float64bits(d) &^ (1 << 63) }

// kthBufLen is the largest bucket kthDist gathers for kthBits.
const kthBufLen = 256

// kthBits finishes kthDist's select on a gathered bucket v of patterns,
// compacting it in place pass by pass: it returns the r-th smallest of v
// as a float64 and less plus the count of values below it.
func kthBits(v []uint64, r, less int) (float64, int) {
	var cnt [256]int32
	for {
		lo, hi := ^uint64(0), uint64(0)
		for _, b := range v {
			lo, hi = min(lo, b), max(hi, b)
		}
		if lo == hi {
			return math.Float64frombits(lo), less
		}
		shift := max(bits.Len64(hi-lo)-8, 0)
		cnt = [256]int32{}
		for _, b := range v {
			cnt[uint8((b-lo)>>shift)]++
		}
		k := 0
		for r >= int(cnt[k]) {
			r -= int(cnt[k])
			less += int(cnt[k])
			k++
		}
		m := 0
		for _, b := range v {
			v[m] = b
			m += b2i((b-lo)>>shift == uint64(k))
		}
		v = v[:m]
	}
}

// nanToInf is sqDist's NaN mapping: a NaN distance (from ±Inf coordinates)
// counts as infinitely far.
func nanToInf(s float64) float64 {
	if s != s {
		return math.Inf(1)
	}
	return s
}

// sqDist is the squared Euclidean distance every neighbour strategy and
// the reference sort share. Each squared term is rounded on its own
// (float64(d*d)) before it is added, so no platform fuses the add into a
// multiply-add; the group layout adds precomputed terms and relies on it.
func sqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	// Dimensions present in only one vector count fully.
	for i := n; i < len(a); i++ {
		s += float64(a[i] * a[i])
	}
	for i := n; i < len(b); i++ {
		s += float64(b[i] * b[i])
	}
	return nanToInf(s)
}
