package cardpi

import (
	"context"
	"time"

	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// Instrumented decorates a PI with observability: per-method call and error
// counters and a latency histogram, published on an obs.Registry under the
// metric families
//
//	cardpi_pi_calls_total{method=...}
//	cardpi_pi_errors_total{method=...}
//	cardpi_pi_latency_seconds{method=...}   (histogram)
//
// where method is the wrapped PI's Name() (e.g. "s-cp/spn"). Recording is
// allocation-free — three atomic operations around the inner Interval call —
// so wrapping does not disturb the hot path (see BenchmarkInstrumentedInterval).
// Instrumented is safe for concurrent use whenever the wrapped PI is; every
// PI in this package is safe for concurrent Interval calls.
type Instrumented struct {
	pi    PI
	calls *obs.Counter
	errs  *obs.Counter
	lat   *obs.Histogram
}

// Instrument wraps pi with metric recording on reg; a nil reg records
// without exporting (obs.Registry's nil rule). The metric instruments are
// resolved once here, never on the per-query path. Wrapping an
// already-Instrumented PI returns it unchanged rather than double-counting.
func Instrument(pi PI, reg *obs.Registry) *Instrumented {
	if in, ok := pi.(*Instrumented); ok {
		return in
	}
	method := obs.L("method", pi.Name())
	return &Instrumented{
		pi:    pi,
		calls: reg.Counter("cardpi_pi_calls_total", "PI.Interval calls by method.", method),
		errs:  reg.Counter("cardpi_pi_errors_total", "PI.Interval calls that returned an error, by method.", method),
		lat: reg.Histogram("cardpi_pi_latency_seconds",
			"Per-call PI.Interval latency in seconds, by method.", obs.LatencyBuckets, method),
	}
}

// Name implements PI; it reports the wrapped method's name so instrumented
// and bare wrappers are interchangeable in reports.
func (in *Instrumented) Name() string { return in.pi.Name() }

// Interval implements PI: IntervalCtx without a deadline. Units of the
// returned interval are unchanged (normalised selectivity in [0, 1]).
func (in *Instrumented) Interval(q workload.Query) (Interval, error) {
	return in.IntervalCtx(context.Background(), q)
}

// IntervalCtx implements ContextPI: it forwards the context to the wrapped
// PI (via the IntervalCtx shim, so plain PIs keep working) and records the
// call count, latency, and error count. Cancellations and deadline expiries
// count as errors.
func (in *Instrumented) IntervalCtx(ctx context.Context, q workload.Query) (Interval, error) {
	start := time.Now()
	iv, err := IntervalCtx(ctx, in.pi, q)
	in.lat.Observe(time.Since(start).Seconds())
	in.calls.Inc()
	if err != nil {
		in.errs.Inc()
	}
	return iv, err
}

// IntervalBatch implements BatchPI: it forwards the batch to the wrapped PI
// (through intervalBatchEstCtx, so non-batch PIs still work) and records the
// same metrics a sequential loop would — one call count per query and the
// batch's amortised per-query latency into the histogram, keeping latency
// quantiles comparable across serving modes.
func (in *Instrumented) IntervalBatch(qs []workload.Query) ([]Interval, error) {
	ivs, _, err := in.intervalBatchEstCtx(context.Background(), qs)
	return ivs, err
}

// intervalBatchEstCtx is IntervalBatch under ctx that also passes on the
// wrapped PI's point estimates (see the package-level intervalBatchEstCtx).
func (in *Instrumented) intervalBatchEstCtx(ctx context.Context, qs []workload.Query) ([]Interval, []float64, error) {
	if len(qs) == 0 {
		return nil, nil, nil
	}
	start := time.Now()
	ivs, ests, err := intervalBatchEstCtx(ctx, in.pi, qs)
	perQuery := time.Since(start).Seconds() / float64(len(qs))
	for range qs {
		in.lat.Observe(perQuery)
		in.calls.Inc()
	}
	if err != nil {
		in.errs.Inc()
	}
	return ivs, ests, err
}

// Unwrap returns the underlying PI.
func (in *Instrumented) Unwrap() PI { return in.pi }
