package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cardpi/internal/synth"
)

// adminSynthRequest is the JSON body of POST /admin/synth. Tenant/Table
// name the registered slot whose provenance describes the workload; Version
// selects which registration to read it from (0 = latest). The remaining
// fields parameterise the search exactly like the `cardpi synth` flags of
// the same names; zero values mean unconstrained (budgets) or defaults.
type adminSynthRequest struct {
	Tenant  string `json:"tenant"`
	Table   string `json:"table"`
	Version int    `json:"version,omitempty"`

	BudgetTrainMs       int64   `json:"budget_train_ms,omitempty"`
	BudgetArtifactBytes int64   `json:"budget_artifact_bytes,omitempty"`
	BudgetNsPerQuery    int64   `json:"budget_ns_per_query,omitempty"`
	TargetCoverage      float64 `json:"target_coverage,omitempty"`
	WidthObjective      string  `json:"width_objective,omitempty"`

	Models      []string `json:"models,omitempty"`
	Methods     []string `json:"methods,omitempty"`
	EvalQueries int      `json:"eval_queries,omitempty"`
	Workers     int      `json:"workers,omitempty"`
}

// adminSynthResponse acknowledges a synthesis with the winning combo and
// the version it was registered under. The candidate is never promoted
// here — promotion stays an explicit POST /admin/promote with its smoke
// check, exactly as for hand-registered artifacts.
type adminSynthResponse struct {
	Tenant            string  `json:"tenant"`
	Table             string  `json:"table"`
	SourceVersion     int     `json:"source_version"`
	RegisteredVersion int     `json:"registered_version"`
	Path              string  `json:"path"`
	Model             string  `json:"model"`
	Method            string  `json:"method"`
	Score             float64 `json:"score"`
	Coverage          float64 `json:"coverage"`
	ArtifactBytes     int64   `json:"artifact_bytes"`
	Summary           string  `json:"summary"`
}

// handleAdminSynth answers POST /admin/synth: run a budget-aware estimator
// synthesis for a registered tenant, deriving the workload description
// (dataset, rows, queries, seed, alpha) from the registration's provenance
// manifest, and register the winning bundle as the slot's next version.
// The winner is a promotable candidate only — it never starts serving until
// an operator promotes it, so the PR-7 bit-identity smoke gate (or an
// explicit force) still stands between synthesis and traffic. Gated behind
// -synth-admin (403 otherwise); runs are serialised because each one is a
// full train/calibrate fan-out.
func (s *server) handleAdminSynth(w http.ResponseWriter, r *http.Request) {
	if !s.synthAdmin {
		httpError(w, http.StatusForbidden, "synth_disabled",
			"estimator synthesis is disabled (start serve with -synth-admin)")
		return
	}
	var req adminSynthRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	key, ok := adminKey(w, req.Tenant, req.Table)
	if !ok {
		return
	}
	ref, err := s.reg.Ref(key, req.Version)
	if err != nil {
		registryError(w, err)
		return
	}
	man := ref.Manifest

	s.synthMu.Lock()
	defer s.synthMu.Unlock()
	res, err := synth.Synthesize(synth.Options{
		Dataset: man.Dataset, Rows: man.Rows, Queries: man.Queries,
		Seed: man.Seed, Alpha: man.Alpha,
		Budget: synth.Budget{
			TrainTime:      time.Duration(req.BudgetTrainMs) * time.Millisecond,
			ArtifactBytes:  req.BudgetArtifactBytes,
			NsPerQuery:     req.BudgetNsPerQuery,
			TargetCoverage: req.TargetCoverage,
			WidthObjective: req.WidthObjective,
		},
		Models: req.Models, Methods: req.Methods,
		EvalQueries: req.EvalQueries, Workers: req.Workers,
		Metrics: s.metrics, Logf: logStderr,
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "synth_failed", "%v", err)
		return
	}
	if res.Winner == nil {
		httpError(w, http.StatusConflict, "no_winner",
			"no trial fit the budget (%s)", synth.Summary(res.Leaderboard))
		return
	}
	if s.synthDir == "" {
		dir, err := os.MkdirTemp("", "cardpi-synth-")
		if err != nil {
			httpError(w, http.StatusInternalServerError, "synth_dir", "create synth dir: %v", err)
			return
		}
		s.synthDir = dir
	} else if err := os.MkdirAll(s.synthDir, 0o755); err != nil {
		httpError(w, http.StatusInternalServerError, "synth_dir", "create synth dir: %v", err)
		return
	}
	path := filepath.Join(s.synthDir, fmt.Sprintf("%s-%s-synth-%d.cpi",
		pathSafe(key.Tenant), pathSafe(key.Table), s.synthSeq.Add(1)))
	if err := writeFileAtomic(path, res.Bundle); err != nil {
		httpError(w, http.StatusInternalServerError, "write_bundle", "write candidate bundle: %v", err)
		return
	}
	newRef, err := s.reg.Register(key, path)
	if err != nil {
		registryError(w, err)
		return
	}
	win := res.Winner
	logStderr("admin: synth %s: winner %s/%s registered as v%d (not promoted; POST /admin/promote to serve it)",
		key, win.Model, win.Method, newRef.Version)
	writeJSON(w, adminSynthResponse{
		Tenant:            key.Tenant,
		Table:             key.Table,
		SourceVersion:     ref.Version,
		RegisteredVersion: newRef.Version,
		Path:              path,
		Model:             win.Model,
		Method:            win.Method,
		Score:             win.Score,
		Coverage:          win.Coverage,
		ArtifactBytes:     win.ArtifactBytes,
		Summary:           synth.Summary(res.Leaderboard),
	})
}

// pathSafe maps a tenant/table name onto a filename-safe token.
func pathSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}
