package conformal

import (
	"fmt"
	"math"
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
	// width dim they are views into one row-major n×dim block, which the
	// selection strategy's distance pass walks four rows at a time; rows of
	// mixed width keep their own storage and dim is -1.
	feats  [][]float64
	dim    int
	scores []float64
	// index is the prebuilt neighbour-search structure the batch path uses
	// (built at calibration and rehydration time); nil is tolerated — the
	// batch path then uses its scan strategies over feats directly.
	index *neighborIndex
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
// The neighbour index is rebuilt over the installed rows.
func (l *Localized) setFeatures(feats [][]float64) {
	dim := len(feats[0])
	for _, f := range feats {
		if len(f) != dim {
			l.feats, l.dim = feats, -1
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
	l.feats, l.dim = rows, dim
	l.index = buildNeighborIndex(rows)
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
	switch {
	case l.index != nil && l.index.nodes != nil && finiteVec(feat):
		s.heap.reset(k)
		var qTail float64
		for i := l.index.dim; i < len(feat); i++ {
			qTail += feat[i] * feat[i]
		}
		l.index.search(l.index.root, feat, qTail, &s.heap)
		s.local = l.appendHeapScores(s.local, &s.heap)
	case 8*k <= n:
		s.heap.reset(k)
		scanKNN(l.feats, feat, &s.heap)
		s.local = l.appendHeapScores(s.local, &s.heap)
	default:
		s.local = l.appendNearestScores(s.local, feat, s)
	}
	return quantileSelect(s.local, l.Alpha), nil
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
// keeps, in index order, every row closer than t and the first K − #{d < t}
// rows at exactly t — the set the (distance, index) order puts first.
// sqDist never returns NaN, so < is a total preorder on the distances.
func (l *Localized) appendNearestScores(dst, feat []float64, s *knnScratch) []float64 {
	s.dist = l.appendDistances(s.dist[:0], feat)
	t, less := kthDist(s.dist, l.K-1)
	ties := l.K - less
	for i, d := range s.dist {
		switch {
		case d < t:
			dst = append(dst, l.scores[i])
		case d == t && ties > 0:
			dst = append(dst, l.scores[i])
			ties--
		}
	}
	return dst
}

// appendDistances appends sqDist(feats[i], q) for every calibration row to
// dst. When every row has q's width it computes four rows per pass over q:
// each row keeps its own accumulator and adds its terms in sqDist's
// dimension order, so every distance is bit-identical to sqDist's while q's
// coordinates are loaded once per four rows (and the rows, views into one
// row-major block, are read contiguously).
func (l *Localized) appendDistances(dst, q []float64) []float64 {
	if len(q) != l.dim {
		for _, f := range l.feats {
			dst = append(dst, sqDist(f, q))
		}
		return dst
	}
	n := len(l.feats)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:][:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := l.feats[i][:len(q)]
		r1 := l.feats[i+1][:len(q)]
		r2 := l.feats[i+2][:len(q)]
		r3 := l.feats[i+3][:len(q)]
		var s0, s1, s2, s3 float64
		for j, x := range q {
			d0 := r0[j] - x
			d1 := r1[j] - x
			d2 := r2[j] - x
			d3 := r3[j] - x
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		o := out[i : i+4]
		o[0], o[1], o[2], o[3] = nanToInf(s0), nanToInf(s1), nanToInf(s2), nanToInf(s3)
	}
	for ; i < n; i++ {
		out[i] = sqDist(l.feats[i], q)
	}
	return dst
}

// kthDist returns the r-th smallest (0-based) of dist and how many of its
// values are strictly smaller, reading dist without copying or permuting
// it. Every distance lies in [+0, +Inf] (sqDist maps NaN to +Inf and never
// yields −0), and non-negative IEEE-754 doubles order exactly like their bit
// patterns as unsigned integers, so this is a radix select on the patterns,
// most significant byte first: each pass counts the next byte among the
// values that share the bytes fixed so far and fixes the byte whose bucket
// holds rank r. It stops once that bucket holds one value, or after the
// last byte, when the bucket's values are all equal.
func kthDist(dist []float64, r int) (t float64, less int) {
	var cnt [256]int32
	var prefix, mask uint64
	for shift := 56; ; shift -= 8 {
		cnt = [256]int32{}
		for _, d := range dist {
			if b := math.Float64bits(d); b&mask == prefix {
				cnt[b>>shift&0xff]++
			}
		}
		k := 0
		for r >= int(cnt[k]) {
			r -= int(cnt[k])
			less += int(cnt[k])
			k++
		}
		prefix |= uint64(k) << shift
		mask |= 0xff << shift
		if shift == 0 {
			return math.Float64frombits(prefix), less
		}
		if cnt[k] == 1 {
			for _, d := range dist {
				if math.Float64bits(d)&mask == prefix {
					return d, less
				}
			}
		}
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

func sqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	// Dimensions present in only one vector count fully.
	for i := n; i < len(a); i++ {
		s += a[i] * a[i]
	}
	for i := n; i < len(b); i++ {
		s += b[i] * b[i]
	}
	return nanToInf(s)
}
