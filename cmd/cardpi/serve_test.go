package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cardpi"
	"cardpi/internal/codec"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/faultinject"
	"cardpi/internal/histogram"
	"cardpi/internal/obs"
	"cardpi/internal/par"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

// smallSetup builds a light pipeline.Setup (histogram model, s-cp) directly,
// so serve tests can swap in faulty or blocking PIs without retraining.
func smallSetup(t *testing.T) *pipeline.Setup {
	t.Helper()
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{Count: 400, Seed: 2, MinPreds: 1, MaxPreds: 4})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := wl.Split(3, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	train, cal := parts[0], parts[1]
	m := histogram.NewSingle(tab, histogram.Config{})
	pi, err := cardpi.WrapSplitCP(m, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline.Setup{Table: tab, Model: m, PI: pi, Train: train, Cal: cal}
}

// startServer spins the handler stack on httptest and returns the server's
// own metrics registry too.
func startServer(t *testing.T, setup *pipeline.Setup, o serveOpts) (*httptest.Server, *server, *obs.Registry) {
	t.Helper()
	if o.alpha == 0 {
		o.alpha = 0.1
	}
	srv, err := newServer(setup, o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, srv, srv.metrics
}

// errorBody mirrors httpError's structured JSON shape.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func TestServeValidationStructuredErrors(t *testing.T) {
	ts, _, _ := startServer(t, smallSetup(t), serveOpts{})
	longQ := strings.Repeat("a", maxQueryBytes+1)
	cases := []struct {
		name, path, code string
	}{
		{"missing q", "/estimate", "missing_query"},
		{"empty q", "/estimate?q=", "empty_query"},
		{"oversized q", "/estimate?q=" + longQ, "query_too_long"},
		{"unparsable q", "/estimate?q=definitely+not+sql", "parse_error"},
		{"unknown column", "/estimate?q=no_such_column+%3D+1", "parse_error"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not structured JSON: %v", err)
			}
			if eb.Error.Code != c.code {
				t.Fatalf("error code = %q, want %q", eb.Error.Code, c.code)
			}
			if eb.Error.Message == "" {
				t.Fatal("error message is empty")
			}
		})
	}
}

// blockingPI parks inside Interval until released (or the context dies),
// signalling entry — the deterministic way to hold an execution slot.
type blockingPI struct {
	inner   cardpi.PI
	entered chan struct{}
	release chan struct{}
}

func (b *blockingPI) Name() string { return b.inner.Name() }
func (b *blockingPI) Interval(q workload.Query) (cardpi.Interval, error) {
	return b.IntervalCtx(context.Background(), q)
}
func (b *blockingPI) IntervalCtx(ctx context.Context, q workload.Query) (cardpi.Interval, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
	case <-ctx.Done():
		return cardpi.Interval{}, ctx.Err()
	}
	return b.inner.Interval(q)
}

func TestServeShedsWhenSaturated(t *testing.T) {
	setup := smallSetup(t)
	bp := &blockingPI{inner: setup.PI, entered: make(chan struct{}, 1), release: make(chan struct{})}
	setup.PI = bp
	ts, _, reg := startServer(t, setup, serveOpts{
		maxInflight: 1, maxQueue: 0, timeout: 5 * time.Second,
	})

	// Request 1 occupies the single execution slot.
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/estimate?q=state+%3D+3")
		if err != nil {
			done <- result{0, err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		done <- result{resp.StatusCode, nil}
	}()
	select {
	case <-bp.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the PI")
	}

	// With the slot held and a zero-length queue, request 2 must be shed.
	resp, err := http.Get(ts.URL + "/estimate?q=state+%3D+3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code != "overloaded" {
		t.Fatalf("shed body = %+v, %v; want code overloaded", eb, err)
	}
	if got := reg.Counter("cardpi_serve_shed_total", "").Value(); got != 1 {
		t.Fatalf("cardpi_serve_shed_total = %d, want 1", got)
	}

	// Releasing the slot lets request 1 finish normally.
	close(bp.release)
	r := <-done
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("blocked request finished with %d, %v; want 200", r.code, r.err)
	}
}

// TestServeChaosNo5xx is the serving half of the acceptance chaos test: with
// deterministic mixed faults injected into both the PI chain (20%:
// error/panic/latency/NaN) and the point-estimate model (NaN + panics), every
// well-formed request gets a 200 with a finite, ordered, in-domain interval,
// and the degradation is observable on /metrics.
func TestServeChaosNo5xx(t *testing.T) {
	setup := smallSetup(t)
	piPlan := faultinject.MustPlan(faultinject.Spec{
		Seed: 17, Error: 0.05, Panic: 0.05, Latency: 0.05, NaN: 0.05,
		Delay: time.Millisecond,
	})
	setup.PI = faultinject.WrapPI(setup.PI, piPlan)
	// Model faults start after the monitor's seeding pass (one estimate per
	// calibration query), so setup stays clean and only live traffic sees
	// them.
	modelPlan := faultinject.MustPlan(faultinject.Spec{
		Seed: 23, NaN: 0.1, Panic: 0.1, After: uint64(len(setup.Cal.Queries)),
	})
	setup.Model = faultinject.WrapEstimator(setup.Model, modelPlan)
	ts, srv, _ := startServer(t, setup, serveOpts{timeout: time.Second})

	const n = 300
	degraded := 0
	for i := 0; i < n; i++ {
		resp, err := http.Get(ts.URL + "/estimate?q=state+%3D+3")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("request %d: status %d under faults (body %s), want 200", i, resp.StatusCode, body)
		}
		var er estimateResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: undecodable body: %v", i, err)
		}
		for _, v := range []float64{er.LoSel, er.HiSel, er.LoRows, er.HiRows} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("request %d: non-finite interval field in %+v", i, er)
			}
		}
		if er.LoSel > er.HiSel || er.LoSel < 0 || er.HiSel > 1 {
			t.Fatalf("request %d: malformed interval [%v, %v]", i, er.LoSel, er.HiSel)
		}
		if er.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("300 requests at 20% fault rate never degraded — faults not reaching the chain")
	}
	for _, k := range []faultinject.Kind{faultinject.Error, faultinject.Panic, faultinject.Latency, faultinject.NaN} {
		if piPlan.Injected(k) == 0 {
			t.Fatalf("PI fault plan never injected %v", k)
		}
	}

	// The degradation must be visible on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	name := srv.def.current().resilient.Name()
	for _, want := range []string{
		fmt.Sprintf(`cardpi_serve_requests_total{class="ok"} %d`, n),
		`cardpi_serve_shed_total 0`,
		`cardpi_serve_inflight 0`,
		`cardpi_serve_request_seconds_bucket`,
		fmt.Sprintf(`cardpi_resilient_calls_total{pi="%s"} %d`, name, n),
		fmt.Sprintf(`cardpi_resilient_served_total{pi="%s",stage="1"}`, name),
		fmt.Sprintf(`cardpi_resilient_recovered_panics_total{pi="%s"}`, name),
		fmt.Sprintf(`cardpi_resilient_breaker_state{pi="%s"}`, name),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// postBatch sends a /estimate/batch request with the given query list.
func postBatch(t *testing.T, ts *httptest.Server, queries []string) *http.Response {
	t.Helper()
	body, err := json.Marshal(batchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/estimate/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeBatchMatchesSingle asserts each /estimate/batch element carries
// exactly the interval and estimate fields the single /estimate endpoint
// returns for that query — the server-level face of the batch==sequential
// bit-identity guarantee. (Drift telemetry fields are excluded: the adaptive
// monitor's rolling state advances with every observed query by design.)
func TestServeBatchMatchesSingle(t *testing.T) {
	ts, _, reg := startServer(t, smallSetup(t), serveOpts{})
	queries := []string{
		"state = 3",
		"county = 10 AND body_type = 2",
		"model_year BETWEEN 40 AND 90",
		"fuel_type = 1 AND color = 4",
	}
	resp := postBatch(t, ts, queries)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, b)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Count != len(queries) || len(br.Results) != len(queries) {
		t.Fatalf("count = %d, results = %d, want %d", br.Count, len(br.Results), len(queries))
	}
	for i, q := range queries {
		single, err := http.Get(ts.URL + "/estimate?q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		var sr estimateResponse
		err = json.NewDecoder(single.Body).Decode(&sr)
		single.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		b := br.Results[i]
		if b.Query != q || sr.Query != q {
			t.Fatalf("query %d echoed as %q (batch) / %q (single)", i, b.Query, sr.Query)
		}
		if b.EstSel != sr.EstSel || b.EstRows != sr.EstRows ||
			b.LoSel != sr.LoSel || b.HiSel != sr.HiSel ||
			b.LoRows != sr.LoRows || b.HiRows != sr.HiRows ||
			b.TrueRows != sr.TrueRows || b.Covered != sr.Covered ||
			b.ServedBy != sr.ServedBy || b.Degraded != sr.Degraded {
			t.Fatalf("query %d: batch element %+v != single reply %+v", i, b, sr)
		}
		if b.ServedBy != "primary" {
			t.Fatalf("query %d served by %q, want primary", i, b.ServedBy)
		}
	}
	dump := metricsDumpFor(t, reg)
	for _, family := range []string{
		"cardpi_serve_batch_requests_total", "cardpi_serve_batch_size", "cardpi_serve_batch_request_seconds",
	} {
		if !strings.Contains(dump, family) {
			t.Fatalf("metrics output missing %s:\n%s", family, dump)
		}
	}
}

// metricsDumpFor renders a registry's exposition text.
func metricsDumpFor(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// TestServeMetricsArePerServer pins that every server exports its own
// metrics: two servers in one process answer one /estimate each, and each
// /metrics counts exactly its own call (plus the process-wide pool families).
func TestServeMetricsArePerServer(t *testing.T) {
	for i := 0; i < 2; i++ {
		ts, _, _ := startServer(t, smallSetup(t), serveOpts{})
		resp, err := http.Get(ts.URL + "/estimate?q=" + url.QueryEscape("state = 3"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: /estimate status = %d", i, resp.StatusCode)
		}
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`cardpi_pi_calls_total{method="s-cp/histogram"} 1` + "\n",
			`cardpi_serve_requests_total{class="ok"} 1` + "\n",
			"# TYPE cardpi_par_tasks_total counter\n",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("server %d: /metrics missing %q", i, want)
			}
		}
	}
}

// TestServeBatchValidation exercises the batch endpoint's rejection paths:
// every malformed request is a structured 400 (never a partial answer), and
// parse failures name the offending index.
func TestServeBatchValidation(t *testing.T) {
	ts, _, _ := startServer(t, smallSetup(t), serveOpts{maxBatch: 4})
	check := func(t *testing.T, resp *http.Response, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != wantCode {
			t.Fatalf("error code = %q, want %q", eb.Error.Code, wantCode)
		}
	}
	t.Run("empty batch", func(t *testing.T) {
		check(t, postBatch(t, ts, nil), "empty_batch")
	})
	t.Run("batch too large", func(t *testing.T) {
		check(t, postBatch(t, ts, []string{"state = 1", "state = 2", "state = 3", "state = 4", "state = 5"}), "batch_too_large")
	})
	t.Run("unparsable element names its index", func(t *testing.T) {
		resp := postBatch(t, ts, []string{"state = 1", "definitely not sql"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != "parse_error" || !strings.Contains(eb.Error.Message, "query 1") {
			t.Fatalf("error = %+v, want parse_error naming query 1", eb.Error)
		}
	})
	t.Run("invalid json", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/estimate/batch", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, "invalid_json")
	})
	t.Run("empty element", func(t *testing.T) {
		check(t, postBatch(t, ts, []string{"state = 1", ""}), "empty_query")
	})
}

// postBatchBinary sends a /estimate/batch request in the compact binary wire
// format and returns the raw response.
func postBatchBinary(t *testing.T, ts *httptest.Server, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/estimate/batch", codec.WireContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeBatchBinaryMatchesJSON asserts the binary wire format answers the
// same batch with bit-identical numbers to the JSON format — the two
// encodings are views of one result set, never two computations.
func TestServeBatchBinaryMatchesJSON(t *testing.T) {
	ts, srv, reg := startServer(t, smallSetup(t), serveOpts{})
	queries := []string{
		"state = 3",
		"county = 10 AND body_type = 2",
		"model_year BETWEEN 40 AND 90",
	}
	jresp := postBatch(t, ts, queries)
	var br batchResponse
	err := json.NewDecoder(jresp.Body).Decode(&br)
	jresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	bresp := postBatchBinary(t, ts, codec.AppendWireRequest(nil, queries))
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(bresp.Body)
		t.Fatalf("binary batch status = %d, body %s", bresp.StatusCode, b)
	}
	if ct := bresp.Header.Get("Content-Type"); ct != codec.WireContentType {
		t.Fatalf("binary response Content-Type = %q, want %q", ct, codec.WireContentType)
	}
	payload, err := io.ReadAll(bresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	tableRows, results, err := codec.DecodeWireResponse(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(tableRows) != srv.def.table().NumRows() {
		t.Fatalf("tableRows = %d, want %d", tableRows, srv.def.table().NumRows())
	}
	if len(results) != len(queries) {
		t.Fatalf("binary answered %d results, want %d", len(results), len(queries))
	}
	for i := range results {
		j, b := br.Results[i], results[i]
		if math.Float64bits(j.EstSel) != math.Float64bits(b.EstSel) ||
			math.Float64bits(j.EstRows) != math.Float64bits(b.EstRows) ||
			math.Float64bits(j.LoSel) != math.Float64bits(b.LoSel) ||
			math.Float64bits(j.HiSel) != math.Float64bits(b.HiSel) ||
			math.Float64bits(j.LoRows) != math.Float64bits(b.LoRows) ||
			math.Float64bits(j.HiRows) != math.Float64bits(b.HiRows) ||
			j.TrueRows != b.TrueRows {
			t.Fatalf("query %d: binary frame %+v != JSON element %+v", i, b, j)
		}
		if j.Covered != (b.Flags&codec.WireFlagCovered != 0) {
			t.Fatalf("query %d: covered flag mismatch", i)
		}
		if j.Degraded != (b.Flags&codec.WireFlagDegraded != 0) || b.Depth != 0 {
			t.Fatalf("query %d: degraded/depth mismatch (%+v)", i, b)
		}
	}

	dump := metricsDumpFor(t, reg)
	for _, want := range []string{
		`cardpi_serve_batch_wire_total{wire_format="json"} 1`,
		`cardpi_serve_batch_wire_total{wire_format="binary"} 1`,
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, dump)
		}
	}
}

// TestServeBatchBinaryMalformed exercises the binary decode rejection paths:
// every structurally broken frame is a typed 400 (never a panic or a 5xx),
// and per-element validation matches the JSON path's codes.
func TestServeBatchBinaryMalformed(t *testing.T) {
	ts, _, _ := startServer(t, smallSetup(t), serveOpts{maxBatch: 4})
	check := func(t *testing.T, body []byte, wantCode string) {
		t.Helper()
		resp := postBatchBinary(t, ts, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != wantCode {
			t.Fatalf("error code = %q, want %q", eb.Error.Code, wantCode)
		}
	}
	good := codec.AppendWireRequest(nil, []string{"state = 3"})
	t.Run("garbage bytes", func(t *testing.T) { check(t, []byte("not a frame"), "invalid_wire") })
	t.Run("empty body", func(t *testing.T) { check(t, nil, "invalid_wire") })
	t.Run("truncated frame", func(t *testing.T) { check(t, good[:len(good)-3], "invalid_wire") })
	t.Run("trailing garbage", func(t *testing.T) { check(t, append(append([]byte{}, good...), 0xff), "invalid_wire") })
	t.Run("zero queries", func(t *testing.T) { check(t, codec.AppendWireRequest(nil, nil), "empty_batch") })
	t.Run("empty element", func(t *testing.T) {
		check(t, codec.AppendWireRequest(nil, []string{"state = 3", ""}), "empty_query")
	})
	t.Run("too many queries", func(t *testing.T) {
		check(t, codec.AppendWireRequest(nil, []string{"a", "b", "c", "d", "e"}), "batch_too_large")
	})
	t.Run("unparsable element names its index", func(t *testing.T) {
		resp := postBatchBinary(t, ts, codec.AppendWireRequest(nil, []string{"state = 3", "definitely not sql"}))
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != "parse_error" || !strings.Contains(eb.Error.Message, "query 1") {
			t.Fatalf("error = %+v, want parse_error naming query 1", eb.Error)
		}
	})
}

// nullResponseWriter discards the response body so alloc measurements see
// the handler's own allocations, not a growing recorder buffer.
type nullResponseWriter struct{ h http.Header }

func (n *nullResponseWriter) Header() http.Header         { return n.h }
func (n *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (n *nullResponseWriter) WriteHeader(int)             {}

// TestServeBatchAllocsBounded is the serve-level alloc guard: with the
// scratch pool warm and one worker (parallel fan-out adds O(workers) transient
// allocations by design), the per-query allocation delta between a small and
// a large batch stays under a hard bound for both wire formats, and the
// binary format never allocates more than JSON. The codec-level zero-alloc
// guarantee for the wire encode/decode itself lives in internal/codec.
func TestServeBatchAllocsBounded(t *testing.T) {
	par.SetBatchWorkers(1)
	defer par.SetBatchWorkers(0)
	srv, err := newServer(smallSetup(t), serveOpts{alpha: 0.1, timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	mkQueries := func(n int) []string {
		qs := make([]string, n)
		for i := range qs {
			qs[i] = "state = 3"
		}
		return qs
	}
	measure := func(n int, binary bool) float64 {
		var body []byte
		ct := "application/json"
		if binary {
			body = codec.AppendWireRequest(nil, mkQueries(n))
			ct = codec.WireContentType
		} else {
			body, err = json.Marshal(batchRequest{Queries: mkQueries(n)})
			if err != nil {
				t.Fatal(err)
			}
		}
		rw := &nullResponseWriter{h: make(http.Header)}
		return testing.AllocsPerRun(20, func() {
			req := httptest.NewRequest(http.MethodPost, "/estimate/batch", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			srv.handleEstimateBatch(rw, req)
		})
	}
	const small, large = 8, 64
	jsonPerQ := (measure(large, false) - measure(small, false)) / (large - small)
	binPerQ := (measure(large, true) - measure(small, true)) / (large - small)
	t.Logf("allocs per query: json=%.2f binary=%.2f", jsonPerQ, binPerQ)
	// Per-query work (parse, oracle count, estimate) legitimately allocates a
	// handful of objects; the encode/decode layers must not add to it.
	const bound = 28
	if jsonPerQ > bound {
		t.Errorf("JSON path allocates %.2f per query, want <= %d", jsonPerQ, bound)
	}
	if binPerQ > bound {
		t.Errorf("binary path allocates %.2f per query, want <= %d", binPerQ, bound)
	}
	if binPerQ > jsonPerQ+1 {
		t.Errorf("binary path (%.2f allocs/query) should not exceed JSON path (%.2f)", binPerQ, jsonPerQ)
	}
}

// countingModel counts every evaluation of the wrapped model: one per
// scalar estimate and one per row of a batched one.
type countingModel struct {
	cardpi.Estimator
	calls atomic.Int64
}

func (m *countingModel) EstimateSelectivity(q workload.Query) float64 {
	m.calls.Add(1)
	return m.Estimator.EstimateSelectivity(q)
}

func (m *countingModel) EstimateSelectivityBatch(qs []workload.Query, out []float64) {
	m.calls.Add(int64(len(qs)))
	estimator.EstimateBatch(m.Estimator, qs, out)
}

// forwardCase drives one cache-off server whose chain model and primary PI
// share a countingModel, and checks every computed row: the model ran
// wantForwards times per row, the monitor made one observation per row, and
// each reply's estimate is the model's own, bit for bit.
func forwardCase(t *testing.T, setup *pipeline.Setup, model *countingModel, wantForwards int64) {
	t.Helper()
	ts, srv, _ := startServer(t, setup, serveOpts{})
	mon := srv.def.adaptive
	checkEst := func(line string, got float64) {
		t.Helper()
		q, err := workload.ParseQuery(setup.Table, line)
		if err != nil {
			t.Fatal(err)
		}
		if want := model.Estimator.EstimateSelectivity(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: reply estimate %v, model says %v", line, got, want)
		}
	}

	line := "state = 3 AND body_type = 2"
	calls, observed := model.calls.Load(), mon.Observations()
	code, er, body := getEstimate(t, ts.URL, line, "", "")
	if code != http.StatusOK {
		t.Fatalf("/estimate status %d: %s", code, body)
	}
	if got := model.calls.Load() - calls; got != wantForwards {
		t.Fatalf("/estimate ran the model %d times, want %d", got, wantForwards)
	}
	if got := mon.Observations() - observed; got != 1 {
		t.Fatalf("/estimate made %d observations, want 1", got)
	}
	checkEst(line, er.EstSel)

	lines := []string{"state = 3", "county = 10 AND body_type = 2", "model_year BETWEEN 40 AND 90"}
	calls, observed = model.calls.Load(), mon.Observations()
	resp := postBatch(t, ts, lines)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate/batch status %d: %s", resp.StatusCode, body)
	}
	if got, want := model.calls.Load()-calls, 3*wantForwards; got != want {
		t.Fatalf("3-row /estimate/batch ran the model %d times, want %d", got, want)
	}
	if got := mon.Observations() - observed; got != 3 {
		t.Fatalf("3-row /estimate/batch made %d observations, want 3", got)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		checkEst(lines[i], r.EstSel)
	}
}

// TestServeOneForwardPerComputedRow counts every evaluation of the served
// model — the PI's interval pass (batched rows) and any scalar estimate —
// on a cache-off server. With mscn + lcp the reply's estimate and the
// monitor's input come from the interval pass, so each computed row runs
// the model exactly once. A PI that reports no estimate of its own (here
// the jackknife family) keeps the separate estimate, and its reply still
// carries the chain model's estimate bit for bit.
func TestServeOneForwardPerComputedRow(t *testing.T) {
	t.Run("lcp", func(t *testing.T) {
		setup, err := pipeline.Build(pipeline.Config{
			Dataset: "dmv", Model: "mscn", Method: "lcp",
			Alpha: 0.1, Rows: 2000, Queries: 400, Seed: 1, Epochs: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		model := &countingModel{Estimator: setup.Model}
		lcp, err := cardpi.NewLocalizedFrom(model, setup.PI.(*cardpi.Localized).Calibration(), pipeline.Featurizer(setup.Table))
		if err != nil {
			t.Fatal(err)
		}
		setup.Model, setup.PI = model, lcp
		forwardCase(t, setup, model, 1)
	})
	t.Run("jk-cv+", func(t *testing.T) {
		setup := smallSetup(t)
		model := &countingModel{Estimator: setup.Model}
		foldOf := make([]int, len(setup.Cal.Queries))
		for i := range foldOf {
			foldOf[i] = i % 2
		}
		jk, err := cardpi.WrapJackknifeCVModels(model, []cardpi.Estimator{setup.Model, setup.Model}, setup.Cal, foldOf, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		setup.Model, setup.PI = model, jk
		forwardCase(t, setup, model, 2)
	})
}

// TestSameModel: the chain takes the PI's estimates only for its own model,
// and an uncomparable model type never panics the comparison.
func TestSameModel(t *testing.T) {
	m := &countingModel{}
	fn := estimator.Func{N: "fn", F: func(workload.Query) float64 { return 0 }}
	for _, c := range []struct {
		a, b cardpi.Estimator
		want bool
	}{
		{m, m, true},
		{m, &countingModel{}, false},
		{nil, m, false},
		{fn, fn, false},
	} {
		if got := sameModel(c.a, c.b); got != c.want {
			t.Errorf("sameModel(%T, %T) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestServeRecalOneForwardPerComputedRow: the recal supervisor's window
// holds the frozen base model's estimates. While the chain serves that
// model, serve hands the supervisor the estimate it just served, so a
// cache-off server still runs the model once per computed row. Once a
// different chain serves, the supervisor runs the base model itself.
func TestServeRecalOneForwardPerComputedRow(t *testing.T) {
	setup := smallSetup(t)
	base := &countingModel{Estimator: setup.Model}
	pi, err := cardpi.WrapSplitCP(base, setup.Cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	setup.Model, setup.PI = base, pi
	ts, srv, _ := startServer(t, setup, serveOpts{recal: recalOpts{enabled: true}})
	sup := srv.def.recal
	lines := []string{"state = 3", "county = 10 AND body_type = 2", "model_year BETWEEN 40 AND 90"}
	check := func(stage string) {
		t.Helper()
		for _, line := range lines {
			calls, observed := base.calls.Load(), sup.Status().Observed
			if code, _, body := getEstimate(t, ts.URL, line, "", ""); code != http.StatusOK {
				t.Fatalf("%s: /estimate status %d: %s", stage, code, body)
			}
			if got := base.calls.Load() - calls; got != 1 {
				t.Fatalf("%s: %q ran the base model %d times, want 1", stage, line, got)
			}
			if got := sup.Status().Observed - observed; got != 1 {
				t.Fatalf("%s: %q recorded %d samples, want 1", stage, line, got)
			}
		}
	}
	check("base chain")

	// Serve another model: the one base forward per row is now the
	// supervisor's own.
	other := histogram.NewSingle(setup.Table, histogram.Config{})
	otherPI, err := cardpi.WrapSplitCP(other, setup.Cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cardpi.NewResilient(otherPI, cardpi.ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv.def.chain.Store(newServingChain(other, res))
	check("swapped chain")
}

// faultyEstimate wraps a model whose point estimate, once armed, panics or
// returns NaN.
type faultyEstimate struct {
	cardpi.Estimator
	mode atomic.Value // "", "panic" or "nan"
}

func (m *faultyEstimate) EstimateSelectivity(q workload.Query) float64 {
	switch m.mode.Load() {
	case "panic":
		panic("faulty estimate")
	case "nan":
		return math.NaN()
	}
	return m.Estimator.EstimateSelectivity(q)
}

// TestServeEstimateFaultsAndMonitor: with the monitor scoring serve's own
// point estimate, a panicking estimate makes no observation, and a NaN one
// is dropped and counted; either way the reply is a 200 carrying -1.
func TestServeEstimateFaultsAndMonitor(t *testing.T) {
	setup := smallSetup(t)
	model := &faultyEstimate{Estimator: setup.Model}
	setup.Model = model
	ts, srv, reg := startServer(t, setup, serveOpts{})
	mon := srv.def.adaptive
	dropped := func() string {
		for _, line := range strings.Split(metricsDumpFor(t, reg), "\n") {
			if strings.HasPrefix(line, "cardpi_adaptive_dropped_observations_total{") {
				return line[strings.LastIndexByte(line, ' ')+1:]
			}
		}
		t.Fatal("/metrics lacks cardpi_adaptive_dropped_observations_total")
		return ""
	}
	for _, c := range []struct{ mode, wantDropped string }{{"panic", "0"}, {"nan", "1"}} {
		model.mode.Store(c.mode)
		observed := mon.Observations()
		code, er, body := getEstimate(t, ts.URL, "state = 3", "", "")
		if code != http.StatusOK {
			t.Fatalf("%s: /estimate status %d: %s", c.mode, code, body)
		}
		if er.EstSel != -1 {
			t.Fatalf("%s: est_sel = %v, want -1", c.mode, er.EstSel)
		}
		if got := mon.Observations() - observed; got != 0 {
			t.Fatalf("%s: %d observations made, want 0", c.mode, got)
		}
		if got := dropped(); got != c.wantDropped {
			t.Fatalf("%s: dropped observations = %s, want %s", c.mode, got, c.wantDropped)
		}
	}
}
