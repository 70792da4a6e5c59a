package main

// The /admin endpoints drive the multi-tenant model registry over HTTP:
// register an artifact version, promote it through the bit-identity smoke
// check, roll back, evict cached loads, and inspect the whole registry.
// OPERATIONS.md is the operator-facing contract for every endpoint here —
// request shape, response shape, and status codes; doc_audit_test.go keeps
// the two in sync.
//
// Status-code taxonomy (shared across endpoints):
//
//	400  malformed request (bad JSON, missing fields, unreadable artifact)
//	404  the (tenant, table) key or version does not exist / is not serving
//	409  the requested transition is refused (smoke mismatch, unloadable
//	     candidate, no previous version) — state is unchanged
//
// Admin mutations are idempotence-friendly: a failed promote or rollback
// leaves the previously serving version untouched, so retrying is safe.

import (
	"encoding/json"
	"errors"
	"net/http"

	"cardpi/internal/registry"
)

// adminRegisterRequest is the JSON body of POST /admin/register.
type adminRegisterRequest struct {
	Tenant   string `json:"tenant"`
	Table    string `json:"table"`
	Artifact string `json:"artifact"` // server-local path to a .cpi bundle
}

// adminRegisterResponse acknowledges a registration with the version the
// artifact was assigned.
type adminRegisterResponse struct {
	Tenant    string `json:"tenant"`
	Table     string `json:"table"`
	Version   int    `json:"version"`
	Path      string `json:"path"`
	SizeBytes int64  `json:"size_bytes"`
	Model     string `json:"model"`
	Method    string `json:"method"`
	Dataset   string `json:"dataset"`
}

// adminPromoteRequest is the JSON body of POST /admin/promote.
type adminPromoteRequest struct {
	Tenant string `json:"tenant"`
	Table  string `json:"table"`
	// Version selects the candidate; 0 or absent means latest registered.
	Version int `json:"version,omitempty"`
	// SmokeQueries overrides the server's -smoke-queries depth for this
	// promote only.
	SmokeQueries int `json:"smoke_queries,omitempty"`
	// Force skips the bit-identity smoke check (required when the candidate
	// intentionally differs from the active bundle).
	Force bool `json:"force,omitempty"`
}

// adminSwitchResponse acknowledges a promote or rollback with the versions
// now serving.
type adminSwitchResponse struct {
	Tenant          string `json:"tenant"`
	Table           string `json:"table"`
	ActiveVersion   int    `json:"active_version"`
	PreviousVersion int    `json:"previous_version,omitempty"`
}

// adminTargetRequest is the JSON body of POST /admin/rollback and
// POST /admin/evict (evict additionally honors forget).
type adminTargetRequest struct {
	Tenant string `json:"tenant"`
	Table  string `json:"table"`
	// Forget (evict only) removes the key's registrations entirely instead
	// of just dropping cached loads.
	Forget bool `json:"forget,omitempty"`
}

// adminEvictResponse acknowledges an eviction.
type adminEvictResponse struct {
	Tenant  string `json:"tenant"`
	Table   string `json:"table"`
	Dropped int    `json:"dropped"`
	Forgot  bool   `json:"forgot"`
}

// adminRegistryResponse is the GET /admin/registry payload.
type adminRegistryResponse struct {
	Entries []registry.EntrySnapshot `json:"entries"`
}

// decodeAdminBody decodes an admin request body into v, rejecting unknown
// fields so a typo'd "forse" fails loudly instead of silently promoting
// without the smoke check. Returns false with the 400 already written.
func decodeAdminBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "invalid_json", "decode request body: %v", err)
		return false
	}
	return true
}

// adminKey validates the tenant/table pair shared by every admin mutation.
func adminKey(w http.ResponseWriter, tenant, table string) (registry.Key, bool) {
	if tenant == "" || table == "" {
		httpError(w, http.StatusBadRequest, "missing_tenant_table",
			"tenant and table must be non-empty (got tenant=%q table=%q)", tenant, table)
		return registry.Key{}, false
	}
	return registry.Key{Tenant: tenant, Table: table}, true
}

// registryError maps a registry error onto the admin status-code taxonomy.
func registryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrUnknownKey):
		httpError(w, http.StatusNotFound, "unknown_key", "%v", err)
	case errors.Is(err, registry.ErrUnknownVersion):
		httpError(w, http.StatusNotFound, "unknown_version", "%v", err)
	case errors.Is(err, registry.ErrNotPromoted):
		httpError(w, http.StatusNotFound, "not_promoted", "%v", err)
	case errors.Is(err, registry.ErrSmokeMismatch):
		httpError(w, http.StatusConflict, "smoke_mismatch", "%v", err)
	case errors.Is(err, registry.ErrCandidate):
		httpError(w, http.StatusConflict, "candidate_unloadable", "%v", err)
	case errors.Is(err, registry.ErrNoPrevious):
		httpError(w, http.StatusConflict, "no_previous", "%v", err)
	default:
		httpError(w, http.StatusBadRequest, "registry_error", "%v", err)
	}
}

// handleAdminRegister answers POST /admin/register: record a server-local
// .cpi artifact as the key's next version. Registration is metadata-only —
// nothing loads, nothing serves — so a bad path or corrupt header fails
// here cheaply with 400 bad_artifact.
func (s *server) handleAdminRegister(w http.ResponseWriter, r *http.Request) {
	var req adminRegisterRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	key, ok := adminKey(w, req.Tenant, req.Table)
	if !ok {
		return
	}
	if req.Artifact == "" {
		httpError(w, http.StatusBadRequest, "missing_artifact", "artifact path is empty")
		return
	}
	ref, err := s.reg.Register(key, req.Artifact)
	if err != nil {
		if errors.Is(err, registry.ErrUnknownKey) {
			httpError(w, http.StatusBadRequest, "missing_tenant_table", "%v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "bad_artifact", "%v", err)
		return
	}
	writeJSON(w, adminRegisterResponse{
		Tenant: key.Tenant, Table: key.Table,
		Version: ref.Version, Path: ref.Path, SizeBytes: ref.Size,
		Model: ref.Manifest.Model, Method: ref.Manifest.Method, Dataset: ref.Manifest.Dataset,
	})
}

// handleAdminPromote answers POST /admin/promote: activate a registered
// version behind the N-query bit-identity smoke check. A failed promote
// changes nothing — the old version keeps serving — and returns 409 with a
// machine-readable reason (smoke_mismatch or candidate_unloadable).
func (s *server) handleAdminPromote(w http.ResponseWriter, r *http.Request) {
	var req adminPromoteRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	key, ok := adminKey(w, req.Tenant, req.Table)
	if !ok {
		return
	}
	ref, err := s.reg.Promote(key, registry.PromoteOptions{
		Version: req.Version, SmokeQueries: req.SmokeQueries, Force: req.Force,
	})
	if err != nil {
		registryError(w, err)
		return
	}
	// The routed unit just changed identity; retire every cached interval
	// (the epoch is server-wide, so caches that resolved the old unit die
	// too). Bump strictly after the registry published the new active ref.
	s.invalidateCaches()
	logStderr("promoted %s@v%d (force=%v)", key, ref.Version, req.Force)
	writeJSON(w, s.switchResponse(key, ref.Version))
}

// handleAdminRollback answers POST /admin/rollback: O(1) restore of the
// previously active version (no loads, no smoke check — it already passed
// one when it was promoted). Active and previous trade places, so a second
// rollback undoes the first.
func (s *server) handleAdminRollback(w http.ResponseWriter, r *http.Request) {
	var req adminTargetRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	if req.Forget {
		httpError(w, http.StatusBadRequest, "invalid_json", "forget is an /admin/evict option")
		return
	}
	key, ok := adminKey(w, req.Tenant, req.Table)
	if !ok {
		return
	}
	ref, err := s.reg.Rollback(key)
	if err != nil {
		registryError(w, err)
		return
	}
	s.invalidateCaches()
	logStderr("rolled back %s to v%d", key, ref.Version)
	writeJSON(w, s.switchResponse(key, ref.Version))
}

// switchResponse reads the key's post-swap state for a promote/rollback
// acknowledgement. The snapshot walk is cheap (admin endpoints are not a
// hot path) and reports exactly what GET /admin/registry would.
func (s *server) switchResponse(key registry.Key, active int) adminSwitchResponse {
	resp := adminSwitchResponse{Tenant: key.Tenant, Table: key.Table, ActiveVersion: active}
	for _, e := range s.reg.Snapshot() {
		if e.Tenant == key.Tenant && e.Table == key.Table {
			resp.ActiveVersion = e.ActiveVersion
			resp.PreviousVersion = e.PreviousVersion
		}
	}
	return resp
}

// handleAdminEvict answers POST /admin/evict: drop the key's cached loads
// (the active selection is untouched; the next routed request cold-loads
// the same bytes bit-identically), or with forget=true remove the key's
// registrations entirely.
func (s *server) handleAdminEvict(w http.ResponseWriter, r *http.Request) {
	var req adminTargetRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	key, ok := adminKey(w, req.Tenant, req.Table)
	if !ok {
		return
	}
	dropped, err := s.reg.Evict(key, req.Forget)
	if err != nil {
		registryError(w, err)
		return
	}
	writeJSON(w, adminEvictResponse{
		Tenant: key.Tenant, Table: key.Table, Dropped: dropped, Forgot: req.Forget,
	})
}

// handleAdminRegistry answers GET /admin/registry: every key's registered
// versions, active/previous selection, and cache residency.
func (s *server) handleAdminRegistry(w http.ResponseWriter, _ *http.Request) {
	snap := s.reg.Snapshot()
	if snap == nil {
		snap = []registry.EntrySnapshot{}
	}
	writeJSON(w, adminRegistryResponse{Entries: snap})
}
