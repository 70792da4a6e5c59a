package cardpi

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cardpi/internal/conformal"
	"cardpi/internal/par"
	"cardpi/internal/workload"
)

// Evaluation summarises a PI method over a test workload: empirical
// coverage, interval width statistics (in selectivity units), and per-query
// inference latency. A plain PI's Interval calls are timed individually; a
// BatchPI answers the workload in chunks of up to 256 queries, and each
// query is charged its chunk's wall time divided by the chunk size. So
// MeanPITime and P99PITime describe the per-call latency distribution for
// plain PIs and the per-chunk amortised distribution for BatchPIs.
type Evaluation struct {
	// Name is the evaluated method's PI.Name() (e.g. "s-cp/spn").
	Name string
	// Coverage is the empirical fraction of test queries whose true
	// selectivity fell inside the interval (target: 1-alpha).
	Coverage float64
	// Widths summarises the interval-width distribution in normalised
	// selectivity units.
	Widths conformal.WidthStats
	// MeanPITime and P99PITime are the mean and nearest-rank 99th
	// percentile of per-call Interval wall time; see EXPERIMENTS.md
	// ("Reading the numbers") for how to interpret them.
	MeanPITime time.Duration
	// P99PITime is the per-call p99 latency companion to MeanPITime.
	P99PITime time.Duration
	// Intervals are the per-query intervals, aligned with the workload.
	Intervals []Interval
}

// Evaluate runs a PI method over every query of a test workload. Queries are
// dispatched across a bounded worker pool — every PI implementation in this
// package is safe for concurrent Interval calls — and Intervals stays in
// workload order regardless of scheduling. Wrap pi with Instrument to
// record its calls on a metrics registry.
func Evaluate(pi PI, test *workload.Workload) (*Evaluation, error) {
	return EvaluateCtx(context.Background(), pi, test)
}

// EvaluateCtx is Evaluate under a context: each per-query Interval call goes
// through the IntervalCtx shim (context-aware PIs see the deadline), workers
// stop dispatching once ctx is cancelled, and the evaluation returns
// ctx.Err(). Units match Evaluate.
func EvaluateCtx(ctx context.Context, pi PI, test *workload.Workload) (*Evaluation, error) {
	if test == nil || len(test.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty test workload")
	}
	intervals := make([]Interval, len(test.Queries))
	truths := make([]float64, len(test.Queries))
	times := make([]time.Duration, len(test.Queries))
	var err error
	if bp, ok := pi.(BatchPI); ok {
		err = evaluateBatched(ctx, bp, test, intervals, truths, times)
	} else {
		err = par.ForEach(len(test.Queries), func(i int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			lq := test.Queries[i]
			qStart := time.Now()
			iv, err := IntervalCtx(ctx, pi, lq.Query)
			times[i] = time.Since(qStart)
			if err != nil {
				return err
			}
			intervals[i] = iv
			truths[i] = lq.Sel
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	cov, err := conformal.Coverage(intervals, truths)
	if err != nil {
		return nil, err
	}
	widths, err := conformal.Widths(intervals)
	if err != nil {
		return nil, err
	}
	mean, p99 := latencyStats(times)
	return &Evaluation{
		Name:       pi.Name(),
		Coverage:   cov,
		Widths:     widths,
		MeanPITime: mean,
		P99PITime:  p99,
		Intervals:  intervals,
	}, nil
}

// evaluateChunk bounds how many queries EvaluateCtx hands to one
// IntervalBatch call: large enough to amortise the batch path's fixed costs,
// small enough that cancellation is honoured promptly between chunks.
const evaluateChunk = 256

// evaluateBatched drives a BatchPI through the test workload in chunks.
// Per-query wall time is the chunk duration divided by the chunk size —
// IntervalBatch answers all of a chunk's queries at once, so amortised
// latency is the honest per-query figure (and the one serving pays).
func evaluateBatched(ctx context.Context, pi BatchPI, test *workload.Workload,
	intervals []Interval, truths []float64, times []time.Duration) error {
	for start := 0; start < len(test.Queries); start += evaluateChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+evaluateChunk, len(test.Queries))
		chunk := make([]workload.Query, end-start)
		for i := range chunk {
			chunk[i] = test.Queries[start+i].Query
		}
		chunkStart := time.Now()
		ivs, err := pi.IntervalBatch(chunk)
		perQuery := time.Since(chunkStart) / time.Duration(len(chunk))
		if err != nil {
			return err
		}
		for i, iv := range ivs {
			intervals[start+i] = iv
			truths[start+i] = test.Queries[start+i].Sel
			times[start+i] = perQuery
		}
	}
	return nil
}

// latencyStats reduces per-call durations to their mean and p99 (nearest-
// rank, clamped to the maximum for small samples).
func latencyStats(times []time.Duration) (mean, p99 time.Duration) {
	var total time.Duration
	for _, d := range times {
		total += d
	}
	mean = total / time.Duration(len(times))
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := min((99*len(sorted)+99)/100, len(sorted)) - 1
	p99 = sorted[idx]
	return mean, p99
}

// String renders a one-line summary.
func (e *Evaluation) String() string {
	return fmt.Sprintf("%-18s coverage=%.3f meanWidth=%.5f p90Width=%.5f latency=%s p99=%s",
		e.Name, e.Coverage, e.Widths.Mean, e.Widths.P90, e.MeanPITime, e.P99PITime)
}
