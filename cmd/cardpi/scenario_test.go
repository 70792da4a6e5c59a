package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"cardpi/internal/faultinject"
	"cardpi/internal/recal"
)

// drillPool is the deterministic query mix the scenario tests cycle through.
// It spans hot-decile values (the region every scenario mutator piles mass
// onto: state 45-49, county 56-61, model_year 108-119, ...), cold values the
// mutations deplete, and multi-predicate conjunctions whose independence
// (AVI) errors give the conformal scores non-trivial residual mass. The pool
// length is coprime with the recal validation stride (4), so the held-out
// slice sees every query shape.
var drillPool = []string{
	"state = 47",
	"state = 46",
	"state = 3",
	"county = 58",
	"county = 60",
	"county = 10",
	"body_type = 28",
	"body_type = 2",
	"fuel_type = 8",
	"color = 19",
	"color = 5",
	"model_year BETWEEN 108 AND 119",
	"model_year BETWEEN 20 AND 60",
	"state = 47 AND model_year BETWEEN 100 AND 119",
	"county = 60 AND body_type = 28",
	"state = 12 AND color = 19",
	"fuel_type = 8 AND model_year BETWEEN 108 AND 119",
}

// drillHarness drives the server's handler stack directly (no TCP), which
// keeps the -race runs fast and lets a test hold the *server for state
// assertions between requests.
type drillHarness struct {
	t   *testing.T
	h   http.Handler
	srv *server
	n   int
}

func newDrill(t *testing.T, srv *server) *drillHarness {
	return &drillHarness{t: t, h: srv.mux(), srv: srv}
}

// estimate sends the next pool query and decodes the reply. Any non-200 fails
// the test: well-formed drill traffic must never see an error response, fault
// injection and mid-flight swaps included.
func (d *drillHarness) estimate() estimateResponse {
	d.t.Helper()
	q := drillPool[d.n%len(drillPool)]
	d.n++
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate?q="+url.QueryEscape(q), nil))
	if rec.Code != http.StatusOK {
		d.t.Fatalf("request %d (%q): status %d: %s", d.n, q, rec.Code, rec.Body.String())
	}
	var resp estimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		d.t.Fatalf("decode reply: %v", err)
	}
	return resp
}

// coverage drives n requests and returns the fraction whose served interval
// contained the true cardinality.
func (d *drillHarness) coverage(n int) float64 {
	d.t.Helper()
	hits := 0
	for i := 0; i < n; i++ {
		if d.estimate().Covered {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// admin sends one admin request and asserts the response code.
func (d *drillHarness) admin(method, path, body string, wantCode int) *httptest.ResponseRecorder {
	d.t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		d.t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, wantCode, rec.Body.String())
	}
	return rec
}

// drillServeOpts is the self-healing configuration under test: a small
// rolling window so the supervisor can act on a few hundred requests, and a
// width cap above the worst post-shift split-conformal width (residual-score
// intervals are 2δ wide before clipping, so drifted data can exceed the
// production default of 0.9 — pathology policing is covered separately).
func drillServeOpts() serveOpts {
	return serveOpts{
		alpha:         0.1,
		timeout:       time.Second,
		scenarioAdmin: true,
		recal: recalOpts{
			enabled: true, window: 256, minObserved: 96, maxAttempts: 5,
			backoff: time.Millisecond, maxBackoff: 10 * time.Millisecond,
			widthCap: 2.0,
		},
	}
}

// runDriftRecovery is the live self-healing scenario: healthy traffic, a
// dataset mutation under the running handler stack (stats health 0 plus a
// skewed bulk insert), served coverage collapsing while the frozen chain
// mispredicts, then — once the supervisor is running — a shadow
// recalibration, validation, and atomic swap that restores coverage. No
// restart, no rebuild; the same server instance serves every phase.
func runDriftRecovery(t *testing.T, faulty bool) {
	setup := smallSetup(t)
	var plan *faultinject.Plan
	if faulty {
		plan = faultinject.MustPlan(faultinject.Spec{
			Seed: 17, Error: 0.05, Panic: 0.05, Latency: 0.05, NaN: 0.05,
			Delay: time.Millisecond,
		})
		setup.PI = faultinject.WrapPI(setup.PI, plan)
	}
	srv, err := newServer(setup, drillServeOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.metrics
	d := newDrill(t, srv)

	// Phase A: healthy traffic. The frozen chain covers and nothing drifts.
	if cov := d.coverage(300); cov < 0.8 {
		t.Fatalf("phase A: healthy coverage %.3f < 0.8", cov)
	}
	if srv.def.adaptive.Drifted() {
		t.Fatal("phase A: drift alarm on healthy traffic")
	}

	// Phase B: mutate the dataset under the live server. Statistics health
	// drops to 0 (every row redrawn hot) plus a skewed bulk insert — the
	// model and its calibration stay frozen on the old distribution.
	d.admin(http.MethodPost, "/admin/scenario", `{"action":"degrade","health":0,"seed":5}`, http.StatusOK)
	d.admin(http.MethodPost, "/admin/scenario", `{"action":"insert","rows":1000,"seed":6}`, http.StatusOK)

	// Served coverage over a sliding window must collapse below 1-α-0.1 and
	// the drift alarm must latch. The supervisor is not running yet, so the
	// collapse is observed unraced.
	var ring []bool
	collapsed := false
	var collapsedCov float64
	for i := 0; i < 2000 && !collapsed; i++ {
		resp := d.estimate()
		ring = append(ring, resp.Covered)
		if len(ring) < 100 {
			continue
		}
		hits := 0
		for _, c := range ring[len(ring)-100:] {
			if c {
				hits++
			}
		}
		cov := float64(hits) / 100
		if resp.Drifted && cov < 0.8 {
			collapsed, collapsedCov = true, cov
		}
	}
	if !collapsed {
		t.Fatalf("phase B: coverage never collapsed below 0.8 with the drift alarm latched (drifted=%v)",
			srv.def.adaptive.Drifted())
	}
	t.Logf("phase B: coverage collapsed to %.3f under drift", collapsedCov)
	// Refill the supervisor's rolling window with purely post-shift samples,
	// so the candidate is fitted and validated on the new distribution.
	for i := 0; i < 256; i++ {
		d.estimate()
	}

	// Phase C: start the supervisor (runServe does this at startup; the test
	// delayed it to observe the collapse deterministically). Drifted traffic
	// kicks it; it must shadow-recalibrate, validate, and swap — atomically,
	// under load, without a restart.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.def.recal.Run(ctx)
	deadline := time.Now().Add(20 * time.Second)
	for srv.def.recal.Status().Swaps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never swapped; status %+v", srv.def.recal.Status())
		}
		d.estimate() // every drifted observation re-kicks the supervisor
	}

	// Post-swap: the recalibrated chain serves, and coverage recovers.
	resp := d.estimate()
	if !strings.Contains(resp.Method, "recal") {
		t.Errorf("post-swap method = %q, want the recalibrated chain", resp.Method)
	}
	if cov := d.coverage(400); cov < 0.85 {
		t.Errorf("post-swap coverage %.3f < 0.85", cov)
	}

	// The swap and the recovery must be visible on the operator surfaces.
	st := srv.def.recal.Status()
	if st.Swaps < 1 || st.LastCoverage < 0.85 {
		t.Errorf("supervisor status after recovery: %+v", st)
	}
	var admin recalStatusResponse
	rec := d.admin(http.MethodGet, "/admin/recal", "", http.StatusOK)
	if err := json.Unmarshal(rec.Body.Bytes(), &admin); err != nil {
		t.Fatal(err)
	}
	if !admin.Enabled || admin.Swaps < 1 || !strings.Contains(admin.Serving, "recal") {
		t.Errorf("/admin/recal after recovery: %+v", admin)
	}
	if v := metricValue(t, reg, "cardpi_recal_success_total"); v < 1 {
		t.Errorf("cardpi_recal_success_total = %v, want >= 1", v)
	}
	if faulty {
		injected := 0
		for _, k := range []faultinject.Kind{faultinject.Error, faultinject.Panic, faultinject.Latency, faultinject.NaN} {
			injected += int(plan.Injected(k))
		}
		if injected == 0 {
			t.Fatal("fault plan never injected — the faulted run proved nothing")
		}
	}
}

// TestScenarioDriftRecoveryWithoutRestart is the headline self-healing
// acceptance test: dataset mutation under a live server collapses coverage,
// the closed loop recovers it, and the same process serves throughout.
func TestScenarioDriftRecoveryWithoutRestart(t *testing.T) {
	runDriftRecovery(t, false)
}

// TestScenarioDriftRecoveryUnderFaults replays the recovery scenario with a
// 20% fault rate (errors, panics, latency, NaNs) injected into the primary
// PI: the drill must see zero non-200 responses and the loop must still
// recover coverage.
func TestScenarioDriftRecoveryUnderFaults(t *testing.T) {
	runDriftRecovery(t, true)
}

// TestScenarioRejectedCandidateNeverSwapped pins the fail-closed guarantee:
// when validation rejects every candidate (a width cap no real candidate can
// meet), the episode exhausts its attempts and the serving chain — same
// pointer, same name — keeps serving.
func TestScenarioRejectedCandidateNeverSwapped(t *testing.T) {
	o := drillServeOpts()
	o.recal.widthCap = 1e-9 // unmeetable: every candidate rejects on width
	o.recal.maxAttempts = 2
	srv, err := newServer(smallSetup(t), o)
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.metrics
	d := newDrill(t, srv)
	for i := 0; i < 120; i++ { // fill the window past minObserved
		d.estimate()
	}
	chainBefore := srv.def.current()
	nameBefore := chainBefore.resilient.Name()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.def.recal.Run(ctx)
	rec := d.admin(http.MethodPost, "/admin/recal/trigger", "", http.StatusOK)
	var trig struct {
		Triggered bool `json:"triggered"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trig); err != nil || !trig.Triggered {
		t.Fatalf("trigger response %q (err %v)", rec.Body.String(), err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.def.recal.Status().FailedEpisodes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("episode never failed; status %+v", srv.def.recal.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}

	st := srv.def.recal.Status()
	if st.Swaps != 0 {
		t.Fatalf("rejected candidates were swapped: %+v", st)
	}
	if st.Attempts != 2 || st.Rejected != 2 || st.LastReason != recal.ReasonWidth {
		t.Errorf("episode accounting: %+v", st)
	}
	if got := srv.def.current(); got != chainBefore {
		t.Error("serving chain pointer changed despite every candidate being rejected")
	}
	if got := srv.def.current().resilient.Name(); got != nameBefore {
		t.Errorf("serving chain renamed %q -> %q without a swap", nameBefore, got)
	}
	if resp := d.estimate(); strings.Contains(resp.Method, "recal") {
		t.Errorf("served method %q reports a recalibrated chain", resp.Method)
	}
	if v := metricValue(t, reg, "cardpi_recal_success_total"); v != 0 {
		t.Errorf("cardpi_recal_success_total = %v, want 0", v)
	}
	if v := metricValue(t, reg, "cardpi_recal_failed_episodes_total"); v < 1 {
		t.Errorf("cardpi_recal_failed_episodes_total = %v, want >= 1", v)
	}
}

// TestScenarioAdminGates pins the admin gating: scenario drills 403 unless
// -scenario-admin, the manual trigger 409s when the supervisor is disabled,
// and the status endpoint still answers (enabled=false) so probes have one
// URL either way.
func TestScenarioAdminGates(t *testing.T) {
	srv, err := newServer(smallSetup(t), serveOpts{alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	d := newDrill(t, srv)

	rec := d.admin(http.MethodPost, "/admin/scenario",
		`{"action":"degrade","health":0,"seed":1}`, http.StatusForbidden)
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "scenario_disabled" {
		t.Errorf("scenario gate error = %q (err %v)", rec.Body.String(), err)
	}

	rec = d.admin(http.MethodPost, "/admin/recal/trigger", "", http.StatusConflict)
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "recal_disabled" {
		t.Errorf("trigger gate error = %q (err %v)", rec.Body.String(), err)
	}

	rec = d.admin(http.MethodGet, "/admin/recal", "", http.StatusOK)
	var st recalStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Error("status reports an enabled supervisor on a recal-disabled server")
	}
	if st.Serving == "" {
		t.Error("status omits the serving chain name")
	}

	// Unknown scenario actions are a structured 400 even with the gate open.
	srv2, err := newServer(smallSetup(t), serveOpts{
		alpha: 0.1, scenarioAdmin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d2 := newDrill(t, srv2)
	rec = d2.admin(http.MethodPost, "/admin/scenario", `{"action":"explode"}`, http.StatusBadRequest)
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "unknown_action" {
		t.Errorf("unknown action error = %q (err %v)", rec.Body.String(), err)
	}
	rec = d2.admin(http.MethodPost, "/admin/scenario", `{"action":"degrade","health":400}`, http.StatusBadRequest)
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "bad_scenario" {
		t.Errorf("bad health error = %q (err %v)", rec.Body.String(), err)
	}
}
