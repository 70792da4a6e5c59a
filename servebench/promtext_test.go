package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is /metrics of `cardpi serve -model mscn -method lcp
// -cache-entries 512` after one GET /estimate.
func TestParsePromSample(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`cardpi_cache_misses_total{unit="default"}`:                        1,
		`cardpi_cache_hits_total{unit="default"}`:                          0,
		`cardpi_adaptive_observations_total{model="mscn"}`:                 801,
		`cardpi_serve_request_seconds_count`:                               1,
		`cardpi_serve_requests_total{class="ok"}`:                          1,
		`cardpi_resilient_served_total{pi="resilient/lcp/mscn",stage="0"}`: 1,
	} {
		if got, ok := s[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if v := s[`cardpi_adaptive_width_mean{model="mscn"}`]; !math.IsNaN(v) {
		t.Errorf("width mean = %v, want NaN", v)
	}
	if got := s.sum("cardpi_resilient_served_total"); got != 1 {
		t.Errorf("served over all stages = %v, want 1", got)
	}
	if got := s.sum("cardpi_resilient_served_total", `stage="failsafe"`); got != 0 {
		t.Errorf("failsafe served = %v, want 0", got)
	}
	// A name must match whole: _sum and _count are other series.
	if got := s.sum("cardpi_serve_request_seconds"); got != 0 {
		t.Errorf("bare histogram name matched %v", got)
	}
	if got := s.sum("cardpi_serve_request_seconds_bucket", `le="+Inf"`); got != 1 {
		t.Errorf("+Inf bucket = %v, want 1", got)
	}
}

func TestPromDiff(t *testing.T) {
	before, err := parseProm(strings.NewReader("# HELP x a counter\nx_total{a=\"1\"} 2\nx_total{a=\"2\"} 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader("x_total{a=\"1\"} 7\nx_total{a=\"2\"} 5\ny 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := diff(before, after)
	if d[`x_total{a="1"}`] != 5 || d[`x_total{a="2"}`] != 0 || d["y"] != 3 {
		t.Errorf("diff = %v", d)
	}
	if got := d.sum("x_total"); got != 5 {
		t.Errorf("sum = %v, want 5", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, in := range []string{"novalue\n", "x{a=\"1\"}\n", "x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(in)); err == nil {
			t.Errorf("parseProm(%q) accepted", in)
		}
	}
}
