package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cardpi/internal/pipeline"
)

// testBuild is the CLI tests' shorthand around pipeline.Build.
func testBuild(dsName, csvPath, model, method string, alpha float64, rows, queries int, seed int64) (*pipeline.Setup, error) {
	return pipeline.Build(pipeline.Config{
		Dataset: dsName, CSVPath: csvPath, Model: model, Method: method,
		Alpha: alpha, Rows: rows, Queries: queries, Seed: seed,
	})
}

func TestBuildRejectsInvalidComboBeforeTraining(t *testing.T) {
	// An invalid combo must fail fast — before dataset generation or
	// training — with the actionable message, not an opaque failure later.
	_, err := testBuild("dmv", "", "spn", "cqr", 0.1, 1000, 100, 1)
	if err == nil || !strings.Contains(err.Error(), "pinball") {
		t.Fatalf("want pinball-loss explanation, got %v", err)
	}
	// Case-insensitive, like the rest of the CLI.
	if err := pipeline.ValidateCombo("SPN", "LW-S-CP"); err != nil {
		t.Fatalf("upper-case combo rejected: %v", err)
	}
	_, err = testBuild("nope", "", "spn", "s-cp", 0.1, 1000, 100, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("want unknown-dataset error, got %v", err)
	}
}

func TestCQRBuildsWithPinballModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two quantile networks")
	}
	s, err := testBuild("dmv", "", "lwnn", "cqr", 0.1, 1500, 240, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PI.Name(); !strings.HasPrefix(got, "cqr/") {
		t.Fatalf("pi name = %q, want cqr/*", got)
	}
	iv, err := s.PI.Interval(s.Cal.Queries[0].Query)
	if err != nil {
		t.Fatal(err)
	}
	if !(iv.Lo <= iv.Hi && iv.Lo >= 0 && iv.Hi <= 1) {
		t.Fatalf("malformed interval %+v", iv)
	}
}

// serveFixture builds a small serving stack (histogram model, s-cp) without
// binding a real port.
func serveFixture(t *testing.T) *httptest.Server {
	t.Helper()
	setup, err := testBuild("dmv", "", "histogram", "s-cp", 0.1, 2000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(setup, serveOpts{alpha: 0.1, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts
}

func TestServeEstimateAndMetrics(t *testing.T) {
	ts := serveFixture(t)

	resp, err := http.Get(ts.URL + "/estimate?q=" + "state+%3D+3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate status = %d", resp.StatusCode)
	}
	var er estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Method != "resilient/s-cp/histogram" {
		t.Fatalf("method = %q", er.Method)
	}
	if er.ServedBy != "primary" || er.Degraded {
		t.Fatalf("healthy chain served by %q (degraded=%v), want primary", er.ServedBy, er.Degraded)
	}
	if !(er.LoSel <= er.HiSel && er.LoSel >= 0 && er.HiSel <= 1) {
		t.Fatalf("malformed selectivity interval [%v, %v]", er.LoSel, er.HiSel)
	}
	if er.LoRows > float64(er.TrueRows) && er.Covered {
		t.Fatalf("covered flag inconsistent with interval/truth: %+v", er)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`cardpi_pi_calls_total{method="s-cp/histogram"} 1`,
		`cardpi_pi_latency_seconds_bucket{method="s-cp/histogram",le="+Inf"} 1`,
		`cardpi_adaptive_coverage{model="histogram"}`,
		`cardpi_adaptive_drift_statistic{model="histogram"}`,
		`cardpi_adaptive_drift_alarms_total{model="histogram"}`,
		`cardpi_par_tasks_total`,
		`cardpi_par_queue_depth`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Health endpoint for probes and the smoke test: JSON with the model's
	// provenance. This fixture trains in-process, so no artifact block.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", hresp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ModelSource != "trained" || h.Artifact != nil {
		t.Fatalf("/healthz = %+v, want status ok, model_source trained, no artifact", h)
	}
}

func TestServeEstimateErrors(t *testing.T) {
	ts := serveFixture(t)
	for _, c := range []struct {
		path string
		code int
	}{
		{"/estimate", http.StatusBadRequest},                        // missing q
		{"/estimate?q=definitely+not+sql", http.StatusBadRequest},   // unparsable
		{"/estimate?q=no_such_column+%3D+1", http.StatusBadRequest}, // unknown column
		{"/metrics?ignored=param", http.StatusOK},                   // metrics ignores params
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("GET %s status = %d, want %d", c.path, resp.StatusCode, c.code)
		}
	}
}
