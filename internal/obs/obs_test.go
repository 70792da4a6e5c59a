package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cardpi_test_total", "test counter", L("k", "v"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// GetOrCreate: same series, same instance.
	if c2 := r.Counter("cardpi_test_total", "ignored", L("k", "v")); c2 != c {
		t.Fatal("GetOrCreate returned a different counter instance")
	}
	// Different labels, different instance.
	if c3 := r.Counter("cardpi_test_total", "test counter", L("k", "w")); c3 == c {
		t.Fatal("different label set returned the same instance")
	}

	g := r.Gauge("cardpi_test_gauge", "test gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}

	ig := r.IntGauge("cardpi_test_depth", "test int gauge")
	ig.Add(7)
	ig.Add(-3)
	if ig.Value() != 4 {
		t.Fatalf("int gauge = %d, want 4", ig.Value())
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cardpi_test_seconds", "test histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.05; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// rank(0.5) = ceil(0.5*5) = 3 → third observation sits in the (0.1,1]
	// bucket → upper bound 1.
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("q50 = %v, want 1", q)
	}
	// rank(0.99) = 5 → +Inf bucket → reported as last finite bound.
	if q := h.Quantile(0.99); q != 10 {
		t.Fatalf("q99 = %v, want 10", q)
	}
	empty := r.Histogram("cardpi_test_empty_seconds", "empty", []float64{1})
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cardpi_enc_total", "calls", L("method", `s-cp/spn`))
	c.Add(3)
	g := r.Gauge("cardpi_enc_gauge", "a gauge")
	g.Set(0.25)
	r.GaugeFunc("cardpi_enc_func", "a func gauge", func() float64 { return 42 })
	h := r.Histogram("cardpi_enc_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP cardpi_enc_total calls",
		"# TYPE cardpi_enc_total counter",
		`cardpi_enc_total{method="s-cp/spn"} 3`,
		"# TYPE cardpi_enc_gauge gauge",
		"cardpi_enc_gauge 0.25",
		"cardpi_enc_func 42",
		"# TYPE cardpi_enc_seconds histogram",
		`cardpi_enc_seconds_bucket{le="0.1"} 1`,
		`cardpi_enc_seconds_bucket{le="1"} 2`,
		`cardpi_enc_seconds_bucket{le="+Inf"} 3`,
		"cardpi_enc_seconds_sum 3.55",
		"cardpi_enc_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("encoding missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramLabeledEncodingMergesLe(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cardpi_lat_seconds", "latency", []float64{1}, L("method", "cqr"))
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `cardpi_lat_seconds_bucket{method="cqr",le="1"} 1`) {
		t.Fatalf("labeled histogram bucket malformed:\n%s", sb.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("cardpi_esc_total", "x", L("q", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `cardpi_esc_total{q="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("cardpi_mismatch", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("cardpi_mismatch", "x")
}

func TestGaugeFuncReplacesCallback(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("cardpi_fn", "x", func() float64 { return 1 })
	r.GaugeFunc("cardpi_fn", "x", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cardpi_fn 2") {
		t.Fatalf("callback not replaced:\n%s", out)
	}
	samples := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cardpi_fn ") {
			samples++
		}
	}
	if samples != 1 {
		t.Fatalf("want exactly 1 sample line after re-registration, got %d:\n%s", samples, out)
	}
}

// TestNilRegistryRecordsWithoutExporting pins the nil rule: a nil
// *Registry hands out working instruments that record normally, renders
// nothing, and serves an empty /metrics body.
func TestNilRegistryRecordsWithoutExporting(t *testing.T) {
	var r *Registry
	c := r.Counter("cardpi_nil_total", "x", L("k", "v"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := r.Gauge("cardpi_nil_gauge", "x")
	g.Set(1.5)
	g.Add(1)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	ig := r.IntGauge("cardpi_nil_depth", "x")
	ig.Add(4)
	if ig.Value() != 4 {
		t.Fatalf("int gauge = %d, want 4", ig.Value())
	}
	h := r.Histogram("cardpi_nil_seconds", "x", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	if h.Count() != 2 || h.Sum() != 5.5 || h.Quantile(1) != 10 {
		t.Fatalf("histogram count %d sum %v q100 %v, want 2, 5.5, 10", h.Count(), h.Sum(), h.Quantile(1))
	}
	gf := r.GaugeFunc("cardpi_nil_fn", "x", func() float64 { return 7 })
	if got := string(gf.write(nil)); got != "cardpi_nil_fn 7\n" {
		t.Fatalf("gauge func renders %q, want %q", got, "cardpi_nil_fn 7\n")
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q, want nothing", sb.String())
	}
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("nil registry handler: status %d body %q, want 200 and empty", rec.Code, rec.Body.String())
	}
}

// TestHandlerRendersRegistriesInOrder checks that Handler concatenates its
// registries' expositions in argument order.
func TestHandlerRendersRegistriesInOrder(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("cardpi_a_total", "a").Inc()
	b.Counter("cardpi_b_total", "b").Add(2)
	rec := httptest.NewRecorder()
	Handler(a, nil, b).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := "# HELP cardpi_a_total a\n# TYPE cardpi_a_total counter\ncardpi_a_total 1\n" +
		"# HELP cardpi_b_total b\n# TYPE cardpi_b_total counter\ncardpi_b_total 2\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("handler body:\n%s\nwant:\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
}

func TestRecordingDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cardpi_alloc_total", "x")
	g := r.Gauge("cardpi_alloc_gauge", "x")
	ig := r.IntGauge("cardpi_alloc_depth", "x")
	h := r.Histogram("cardpi_alloc_seconds", "x", LatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1.5)
		g.Add(0.5)
		ig.Add(1)
		h.Observe(3.2e-4)
	}); n != 0 {
		t.Fatalf("recording allocated %v times per run, want 0", n)
	}
}

func TestConcurrentRecordingAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cardpi_conc_total", "x")
	h := r.Histogram("cardpi_conc_seconds", "x", []float64{0.001, 0.01, 0.1})
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	// Scrape concurrently with the recorders.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}
