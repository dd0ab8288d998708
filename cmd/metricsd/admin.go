package main

// The versioned admin API (/api/v1/...): job lifecycle, snapshot
// trigger/download, and library inspection over HTTP. Every route
// validates the method first (405 + Allow on a mismatch) and mutating
// routes decode strict JSON (unknown fields and malformed bodies are 400,
// bodies over maxAdminBody are 413) — the admin surface fails loudly
// before it touches the fleet.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"autrascale/internal/fleet"
	"autrascale/internal/persist"
	"autrascale/internal/policy"
	"autrascale/internal/workloads"
)

// adminRoutes registers the /api/v1 surface on the mux.
func (s *server) adminRoutes(mux *http.ServeMux) {
	mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	mux.HandleFunc("/api/v1/jobs/drain", s.handleJobDrain)
	mux.HandleFunc("/api/v1/jobs/remove", s.handleJobRemove)
	mux.HandleFunc("/api/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/api/v1/library", s.handleLibrary)
}

// allowMethod enforces the route's method set: a mismatch answers 405
// with the Allow header and reports false. Checked before anything else,
// so clients always learn the right verb.
func allowMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	http.Error(w, fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, strings.Join(methods, ", ")),
		http.StatusMethodNotAllowed)
	return false
}

// maxAdminBody bounds a mutating request's body. The largest legitimate
// one, a job spec, is a few hundred bytes.
const maxAdminBody = 1 << 20

// decodeJSON strictly decodes a mutating request's body: malformed JSON,
// unknown fields, or trailing garbage are a 400, and a body over
// maxAdminBody is a 413 — decoding stops at the limit.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request body: "+err.Error(), status)
		return false
	}
	if dec.More() {
		http.Error(w, "bad request body: trailing data", http.StatusBadRequest)
		return false
	}
	return true
}

// jobSubmitRequest is the declarative job spec POST /api/v1/jobs takes:
// everything a fleet.JobSpec holds, with workload and policy as registry
// names (the same resolution snapshot restores use). Zero values take
// the fleet's defaults.
type jobSubmitRequest struct {
	Name            string  `json:"name"`
	Workload        string  `json:"workload"`
	RateRPS         float64 `json:"rate_rps,omitempty"`
	TargetLatencyMS float64 `json:"target_latency_ms,omitempty"`
	Machines        int     `json:"machines,omitempty"`
	CoresPerMachine int     `json:"cores_per_machine,omitempty"`
	MemPerMachineMB int     `json:"mem_per_machine_mb,omitempty"`
	MaxIterations   int     `json:"max_iterations,omitempty"`
	Signature       string  `json:"signature,omitempty"`
	Policy          string  `json:"policy,omitempty"`
}

// handleJobs lists live jobs (GET) or submits one (POST).
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		jobs, total := s.fleet.JobsPage(0, 0)
		writeJSON(w, struct {
			Total int               `json:"total"`
			Jobs  []fleet.JobStatus `json:"jobs"`
		}{Total: total, Jobs: jobs})
		return
	}

	var req jobSubmitRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	workload, ok := workloads.ByName(req.Workload)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown workload %q (have %v)", req.Workload, workloads.Names()),
			http.StatusBadRequest)
		return
	}
	spec := fleet.JobSpec{
		Name:            req.Name,
		Workload:        workload,
		RateRPS:         req.RateRPS,
		TargetLatencyMS: req.TargetLatencyMS,
		Machines:        req.Machines,
		CoresPerMachine: req.CoresPerMachine,
		MemPerMachineMB: req.MemPerMachineMB,
		MaxIterations:   req.MaxIterations,
		Signature:       req.Signature,
	}
	if req.Policy != "" {
		build, err := policy.Lookup(req.Policy)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.Policy = build
	}
	if err := s.fleet.Submit(spec); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, fleet.ErrDuplicateJob) || errors.Is(err, fleet.ErrAdmissionRejected) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, struct {
		Submitted string `json:"submitted"`
	}{Submitted: req.Name})
}

// jobNameRequest addresses one job by name (drain/remove bodies).
type jobNameRequest struct {
	Name string `json:"name"`
}

// handleJobDrain retires a job gracefully (models published, capacity
// freed).
func (s *server) handleJobDrain(w http.ResponseWriter, r *http.Request) {
	s.jobLifecycle(w, r, "drained", s.fleet.Drain)
}

// handleJobRemove deletes a job outright.
func (s *server) handleJobRemove(w http.ResponseWriter, r *http.Request) {
	s.jobLifecycle(w, r, "removed", s.fleet.Remove)
}

// jobLifecycle is the shared drain/remove handler: POST-only, strict
// body, 404 for names the fleet does not hold.
func (s *server) jobLifecycle(w http.ResponseWriter, r *http.Request, verb string, op func(string) error) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	var req jobNameRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		http.Error(w, "missing job name", http.StatusBadRequest)
		return
	}
	if err := op(req.Name); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, fleet.ErrUnknownJob) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, map[string]string{verb: req.Name})
}

// handleSnapshot triggers a durable snapshot (POST — atomic write to the
// -snapshot path) or streams one to the client (GET — the same versioned,
// checksummed format, so the download restores anywhere).
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	st := s.fleet.PersistState()
	if r.Method == http.MethodGet {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="fleet-snapshot.json"`)
		if err := persist.Encode(w, st); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	if s.snapshotPath == "" {
		http.Error(w, "no snapshot path configured (start metricsd with -snapshot PATH)",
			http.StatusConflict)
		return
	}
	if err := persist.WriteFile(s.snapshotPath, st); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, struct {
		Path   string  `json:"path"`
		Jobs   int     `json:"jobs"`
		NowSec float64 `json:"now_sec"`
	}{Path: s.snapshotPath, Jobs: len(st.Jobs), NowSec: st.NowSec})
}

// handleLibrary reports the shared warm-start libraries: signature → the
// rates models exist for.
func (s *server) handleLibrary(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, s.fleet.SharedModelRates())
}
