package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cardpi"
	"cardpi/internal/codec"
	"cardpi/internal/workload"
)

// recalOnEstimate wraps a model and, once armed with the serving unit's
// monitor, resets the monitor (what a recalibration swap commits) on every
// point estimate and then reports a non-finite estimate, as a model that
// diverged right after a swap would. serve takes a row's point estimate
// before feeding the monitor, and the monitor drops a non-finite estimate,
// so each row's reset empties the rolling-coverage window and nothing
// refills it before render — the window a concurrent recalibration
// (supervisor swap) can hit, in which the monitor reads NaN.
type recalOnEstimate struct {
	cardpi.Estimator
	adaptive atomic.Pointer[cardpi.Monitor]
}

func (m *recalOnEstimate) EstimateSelectivity(q workload.Query) float64 {
	a := m.adaptive.Load()
	if a == nil {
		return m.Estimator.EstimateSelectivity(q)
	}
	a.Reset()
	return math.NaN()
}

// TestServeRepliesDecodeAfterRecalibration: a reply rendered right after a
// recalibration commit, with the monitor's window still empty, is a
// decodable 200 on both endpoints. JSON replies carry the empty window's
// rolling coverage as the -1 sentinel, the binary wire as NaN.
func TestServeRepliesDecodeAfterRecalibration(t *testing.T) {
	setup := smallSetup(t)
	model := &recalOnEstimate{Estimator: setup.Model}
	setup.Model = model
	ts, srv, reg := startServer(t, setup, serveOpts{})
	model.adaptive.Store(srv.def.adaptive)

	code, er, body := getEstimate(t, ts.URL, "state = 3", "", "")
	if code != http.StatusOK {
		t.Fatalf("/estimate status %d: %s", code, body)
	}
	if er.RollCov != -1 {
		t.Fatalf("/estimate rolling_coverage = %v, want the -1 sentinel", er.RollCov)
	}

	queries := []string{"state = 3", "county = 10 AND body_type = 2"}
	resp := postBatch(t, ts, queries)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate/batch status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("decode /estimate/batch reply: %v (%q)", err, body)
	}
	if br.Count != len(queries) {
		t.Fatalf("batch count = %d, want %d", br.Count, len(queries))
	}
	for i, r := range br.Results {
		if r.RollCov != -1 {
			t.Fatalf("batch row %d rolling_coverage = %v, want the -1 sentinel", i, r.RollCov)
		}
	}

	resp = postBatchBinary(t, ts, codec.AppendWireRequest(nil, queries))
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch status %d: %s", resp.StatusCode, payload)
	}
	_, results, err := codec.DecodeWireResponse(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !math.IsNaN(r.RollCov) {
			t.Fatalf("binary row %d RollCov = %v, want NaN", i, r.RollCov)
		}
	}

	dump := metricsDumpFor(t, reg)
	for _, series := range []string{
		`cardpi_serve_requests_total{class="ok"} 1`,
		`cardpi_serve_requests_total{class="error"} 0`,
		`cardpi_serve_batch_requests_total{class="ok"} 2`,
		`cardpi_serve_batch_requests_total{class="error"} 0`,
	} {
		if !strings.Contains(dump, series+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", series, dump)
		}
	}
}

// TestWriteJSONRefusesNonFinite: a value encoding/json cannot encode is a
// 500 with a structured error body, not a 200 with an empty one.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"coverage": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decode error body: %v (%q)", err, rec.Body.Bytes())
	}
	if eb.Error.Code != "encode_failed" {
		t.Fatalf("error code = %q, want encode_failed", eb.Error.Code)
	}
}
