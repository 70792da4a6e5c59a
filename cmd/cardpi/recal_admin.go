package main

import (
	"math"
	"net/http"

	"cardpi/internal/scenario"
)

// recalStatusResponse is the JSON body of GET /admin/recal: the supervisor's
// episode counters and last validation verdict joined with the monitor's
// live drift telemetry and the currently serving chain. Non-finite
// telemetry is sanitised to -1 so the body always encodes.
type recalStatusResponse struct {
	Enabled         bool    `json:"enabled"`
	State           string  `json:"state,omitempty"`
	Observed        int     `json:"observed"`
	Window          int     `json:"window"`
	Episodes        int     `json:"episodes"`
	Attempts        int     `json:"attempts"`
	Swaps           int     `json:"swaps"`
	Rejected        int     `json:"rejected"`
	FailedEpisodes  int     `json:"failed_episodes"`
	LastCoverage    float64 `json:"last_validation_coverage"`
	LastWidth       float64 `json:"last_validation_width"`
	LastReason      string  `json:"last_reject_reason,omitempty"`
	LastError       string  `json:"last_error,omitempty"`
	Drifted         bool    `json:"drifted"`
	DriftStatistic  float64 `json:"drift_statistic"`
	RollingCoverage float64 `json:"rolling_coverage"`
	Serving         string  `json:"serving"`
}

// handleAdminRecalStatus answers GET /admin/recal with the supervisor
// snapshot; with the supervisor disabled it still reports the drift
// telemetry (enabled=false), so probes have one endpoint either way.
func (s *server) handleAdminRecalStatus(w http.ResponseWriter, _ *http.Request) {
	u := s.def
	resp := recalStatusResponse{
		Drifted:         u.adaptive.Drifted(),
		DriftStatistic:  sanitizeJSON(u.adaptive.DriftStatistic()),
		RollingCoverage: sanitizeJSON(u.adaptive.RollingCoverage()),
		Serving:         u.current().method,
		LastCoverage:    -1,
		LastWidth:       -1,
	}
	if sup := u.recal; sup != nil {
		st := sup.Status()
		resp.Enabled = true
		resp.State = st.State
		resp.Observed = st.Observed
		resp.Window = st.Window
		resp.Episodes = st.Episodes
		resp.Attempts = st.Attempts
		resp.Swaps = st.Swaps
		resp.Rejected = st.Rejected
		resp.FailedEpisodes = st.FailedEpisodes
		resp.LastCoverage = st.LastCoverage
		resp.LastWidth = st.LastWidth
		resp.LastReason = st.LastReason
		resp.LastError = st.LastError
	}
	writeJSON(w, resp)
}

// handleAdminRecalTrigger answers POST /admin/recal/trigger: force a
// recalibration episode on the next supervisor wake-up, bypassing the drift
// gate — the operator path for "I know the data changed, recalibrate now".
// The trigger only schedules the episode; poll GET /admin/recal for the
// outcome. 409 when the supervisor is disabled.
func (s *server) handleAdminRecalTrigger(w http.ResponseWriter, _ *http.Request) {
	sup := s.def.recal
	if sup == nil {
		httpError(w, http.StatusConflict, "recal_disabled",
			"the recalibration supervisor is not running (serve without -recal=false to enable)")
		return
	}
	sup.Trigger()
	logStderr("admin: recalibration episode manually triggered")
	writeJSON(w, map[string]any{"triggered": true, "state": sup.Status().State})
}

// adminScenarioRequest is the JSON body of POST /admin/scenario. Action
// selects the mutation; the other fields parameterise it (see
// internal/scenario): degrade takes health (0-100, the TiDB stats-health
// convention — percentage of rows left untouched), insert takes rows, skew
// takes column and frac. Seed makes the drill reproducible.
type adminScenarioRequest struct {
	Action string  `json:"action"`
	Health int     `json:"health"`
	Rows   int     `json:"rows"`
	Column string  `json:"column"`
	Frac   float64 `json:"frac"`
	Seed   int64   `json:"seed"`
}

// handleAdminScenario answers POST /admin/scenario: run a dataset-mutation
// drill against the default unit's live table. The mutator returns a
// mutated copy, published with one atomic store, so concurrent requests
// finish on the table they resolved and never observe a half-mutated one;
// the estimator and its statistics stay frozen on the old distribution,
// which is exactly the staleness drift the drill exists to provoke. Gated
// behind -scenario-admin (403 otherwise).
func (s *server) handleAdminScenario(w http.ResponseWriter, r *http.Request) {
	if !s.scenarioAdmin {
		httpError(w, http.StatusForbidden, "scenario_disabled",
			"dataset-mutation drills are disabled (start serve with -scenario-admin)")
		return
	}
	var req adminScenarioRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	s.scenarioMu.Lock()
	defer s.scenarioMu.Unlock()
	tab := s.def.table()
	var changed int
	var err error
	switch req.Action {
	case "degrade":
		tab, changed, err = scenario.Degrade(tab, req.Health, req.Seed)
	case "insert":
		tab, changed, err = scenario.InsertSkewed(tab, req.Rows, req.Seed)
	case "skew":
		tab, changed, err = scenario.SkewColumn(tab, req.Column, req.Frac, req.Seed)
	default:
		httpError(w, http.StatusBadRequest, "unknown_action",
			"action %q is not one of degrade, insert, skew", req.Action)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_scenario", "%v", err)
		return
	}
	s.def.tab.Store(tab)
	// Publish first, then invalidate: ground truths cached against the old
	// table must become unreachable the moment the mutated table serves.
	s.def.invalidate()
	logStderr("admin: scenario %s mutated %d rows (table now %d rows)", req.Action, changed, tab.NumRows())
	writeJSON(w, map[string]any{
		"action":  req.Action,
		"changed": changed,
		"rows":    tab.NumRows(),
	})
}

// sanitizeJSON maps non-finite float telemetry to the -1 sentinel
// (encoding/json refuses NaN/Inf).
func sanitizeJSON(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
