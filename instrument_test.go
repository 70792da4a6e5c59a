package cardpi

import (
	"errors"
	"strings"
	"testing"

	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/histogram"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// flakyPI is a minimal PI returning a fixed interval, failing on demand.
type flakyPI struct{ fail bool }

func (f *flakyPI) Name() string { return "flaky/unit" }
func (f *flakyPI) Interval(workload.Query) (Interval, error) {
	if f.fail {
		return Interval{}, errors.New("boom")
	}
	return Interval{Lo: 0.1, Hi: 0.3}, nil
}

func TestInstrumentRecordsCallsErrorsLatency(t *testing.T) {
	reg := obs.NewRegistry()
	fp := &flakyPI{}
	in := Instrument(fp, reg)
	if in.Name() != "flaky/unit" {
		t.Fatalf("name = %q, want the wrapped method's name", in.Name())
	}
	if in.Unwrap() != PI(fp) {
		t.Fatal("Unwrap should return the inner PI")
	}
	var q workload.Query
	for i := 0; i < 5; i++ {
		if _, err := in.Interval(q); err != nil {
			t.Fatal(err)
		}
	}
	fp.fail = true
	if _, err := in.Interval(q); err == nil {
		t.Fatal("expected propagated error")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cardpi_pi_calls_total{method="flaky/unit"} 6`,
		`cardpi_pi_errors_total{method="flaky/unit"} 1`,
		`cardpi_pi_latency_seconds_count{method="flaky/unit"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
}

func TestInstrumentIsIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	in := Instrument(&flakyPI{}, reg)
	if again := Instrument(in, reg); again != in {
		t.Fatal("instrumenting an Instrumented PI must not double-wrap")
	}
}

func TestAdaptiveMetricsExported(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	reg := obs.NewRegistry()
	a, err := NewAdaptive(model, cal.Subset(100), conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 7, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, lq := range test.Queries[:200] {
		if _, err := a.Interval(lq.Query); err != nil {
			t.Fatal(err)
		}
		a.Observe(lq.Query, lq.Sel)
	}
	cov := a.RollingCoverage()
	if cov < 0.8 || cov > 1 {
		t.Fatalf("rolling coverage %v outside sane range for an exchangeable stream", cov)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cardpi_adaptive_observations_total{model="histogram"} 300`, // 100 seed + 200 stream
		`cardpi_adaptive_drift_alarms_total{model="histogram"} 0`,
		`cardpi_adaptive_coverage{model="histogram"}`,
		`cardpi_adaptive_width_mean{model="histogram"}`,
		`cardpi_adaptive_width_p99{model="histogram"}`,
		`cardpi_adaptive_calibration_size{model="histogram"} 300`,
		`cardpi_adaptive_drift_statistic{model="histogram"}`,
		`cardpi_adaptive_drift_threshold{model="histogram"}`,
		`cardpi_adaptive_interval_width_count{model="histogram"} 200`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
}

func TestAdaptiveDriftAlarmCounterEdgeTriggered(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	reg := obs.NewRegistry()
	a, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 2, Significance: 0.01, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Feed wildly wrong truths: the martingale must cross the Ville
	// threshold, and the alarm counter must count the transition once, not
	// once per subsequent observation.
	for _, lq := range test.Queries {
		a.Observe(lq.Query, 1-lq.Sel)
	}
	if !a.Drifted() {
		t.Fatalf("drift not detected; stat %v", a.DriftStatistic())
	}
	alarms := reg.Counter("cardpi_adaptive_drift_alarms_total", "", obs.L("model", model.Name()))
	if alarms.Value() != 1 {
		t.Fatalf("drift alarms = %d, want exactly 1 (edge-triggered)", alarms.Value())
	}
}

// TestIntervalZeroAllocWithMetrics is the acceptance check for the
// observability layer: metric recording must add zero heap allocations per
// Interval call, both for an Instrumented static wrapper and for Adaptive
// with live telemetry.
func TestIntervalZeroAllocWithMetrics(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	q := test.Queries[0].Query

	bare, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(200, func() {
		if _, err := bare.Interval(q); err != nil {
			t.Fatal(err)
		}
	})
	in := Instrument(bare, obs.NewRegistry())
	instrumented := testing.AllocsPerRun(200, func() {
		if _, err := in.Interval(q); err != nil {
			t.Fatal(err)
		}
	})
	if instrumented != base {
		t.Fatalf("Instrument added %v allocs/call (bare %v, instrumented %v)", instrumented-base, base, instrumented)
	}

	// Adaptive: compare a metrics-free baseline with full telemetry. The
	// estimator itself may allocate (the histogram model allocates once per
	// EstimateSelectivity); the telemetry must add nothing on top.
	plain, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plainAllocs := testing.AllocsPerRun(200, func() {
		if _, err := plain.Interval(q); err != nil {
			t.Fatal(err)
		}
	})
	a, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := a.Interval(q); err != nil {
			t.Fatal(err)
		}
	}); n != plainAllocs {
		t.Fatalf("Adaptive telemetry added %v allocs/call (plain %v, with metrics %v)", n-plainAllocs, plainAllocs, n)
	}
}

// benchFixture builds the shared benchmark substrate: a histogram model
// with a calibrated split-conformal wrapper and one probe query.
func benchFixture(b *testing.B) (PI, *Adaptive, workload.Query) {
	b.Helper()
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 600, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	model := histogram.NewSingle(tab, histogram.Config{})
	pi, err := WrapSplitCP(model, wl, conformal.ResidualScore{}, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAdaptive(model, wl, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	return pi, a, wl.Queries[0].Query
}

// BenchmarkIntervalBare is the baseline for BenchmarkInstrumentedInterval:
// the same wrapper and query without metric recording. Compare allocs/op —
// the instrumented numbers must match these exactly.
func BenchmarkIntervalBare(b *testing.B) {
	pi, _, q := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pi.Interval(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentedInterval proves that metric recording (call counter,
// error counter, latency histogram) adds zero allocations to the Interval
// hot path.
func BenchmarkInstrumentedInterval(b *testing.B) {
	pi, _, q := benchFixture(b)
	in := Instrument(pi, obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Interval(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveIntervalWithMetrics exercises the adaptive hot path with
// the full telemetry (width ring + histogram) enabled.
func BenchmarkAdaptiveIntervalWithMetrics(b *testing.B) {
	_, a, q := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Interval(q); err != nil {
			b.Fatal(err)
		}
	}
}
