package sched

// The service wire format: request/response JSON bodies exchanged with
// the scheduling daemon (internal/service, cmd/gapschedd). Kept here —
// next to the model types they serialize — so clients, the service,
// and the CLIs share one strictly-validated schema. File (json.go) is
// the on-disk instance envelope; these types are the over-the-wire
// solve protocol.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Wire objective names accepted by SolveRequest. An empty objective
// means WireGaps.
const (
	WireGaps  = "gaps"
	WirePower = "power"
)

// Wire solver-mode names accepted by SolveRequest and
// SessionCreateRequest. An empty mode means WireModeExact.
const (
	WireModeExact     = "exact"
	WireModeHeuristic = "heuristic"
	WireModeAuto      = "auto"
)

// WireModes names every solver mode in gapsched.Mode order, so it is
// indexed by a Mode: gapsched.Mode.String and gapsched.ParseMode read
// it, and per-mode tallies are arrays of len(WireModes).
var WireModes = [...]string{WireModeExact, WireModeHeuristic, WireModeAuto}

// validConfig checks the solver configuration SolveRequest and
// SessionCreateRequest share: a known objective, a known mode ("" is
// the default of both) and an alpha ValidAlpha admits.
func validConfig(objective, mode string, alpha float64) error {
	switch objective {
	case "", WireGaps, WirePower:
	default:
		return fmt.Errorf("sched: unknown objective %q (want %q or %q)", objective, WireGaps, WirePower)
	}
	if mode != "" && !slices.Contains(WireModes[:], mode) {
		return fmt.Errorf("sched: unknown mode %q (want %q, %q or %q)",
			mode, WireModeExact, WireModeHeuristic, WireModeAuto)
	}
	if !ValidAlpha(alpha) {
		return fmt.Errorf("sched: alpha %v is outside [0, 2^53]", alpha)
	}
	return nil
}

// Wire error codes carried by WireError. They partition every way a
// request can come back without a schedule: the request itself was
// malformed or misconfigured (bad_request), the instance admits no
// feasible schedule (infeasible), the solve was cut off by a deadline
// or disconnect (canceled), the server is draining for shutdown
// (unavailable — retry elsewhere), or the server failed (internal).
const (
	ErrCodeBadRequest  = "bad_request"
	ErrCodeInfeasible  = "infeasible"
	ErrCodeCanceled    = "canceled"
	ErrCodeUnavailable = "unavailable"
	ErrCodeInternal    = "internal"
	// ErrCodeNotFound is specific to the stateful /v1/session
	// endpoints: the named session (or a job id inside a delta) does
	// not exist — it may have been deleted or evicted by the TTL.
	ErrCodeNotFound = "not_found"
)

// ErrCodes lists every wire error code once, in the order the daemon
// reports them; per-code tallies are arrays of len(ErrCodes) indexed
// like it.
var ErrCodes = [...]string{
	ErrCodeBadRequest, ErrCodeInfeasible, ErrCodeCanceled, ErrCodeUnavailable, ErrCodeNotFound, ErrCodeInternal,
}

// SolveRequest is the wire form of one scheduling request, the JSON
// body of the daemon's /v1/solve endpoint and the element of a
// BatchRequest. The zero Objective means WireGaps and zero Procs means
// one processor, so the minimal request is just {"jobs":[...]}.
type SolveRequest struct {
	// Objective is WireGaps or WirePower ("" = WireGaps).
	Objective string `json:"objective,omitempty"`
	// Alpha is the sleep→active transition cost used by WirePower.
	Alpha float64 `json:"alpha,omitempty"`
	// Procs is the processor count (0 = 1).
	Procs int `json:"procs,omitempty"`
	// Mode is the solving tier: WireModeExact, WireModeHeuristic, or
	// WireModeAuto ("" = WireModeExact).
	Mode string `json:"mode,omitempty"`
	// StateBudget tunes WireModeAuto: a fragment is solved exactly when
	// its admission estimate is within the budget (0 = the server's
	// default budget; negative sends every fragment to the heuristic).
	// Ignored by the other modes.
	StateBudget int `json:"stateBudget,omitempty"`
	// Jobs are the unit jobs to schedule.
	Jobs []Job `json:"jobs"`
}

// Instance converts the request to the solver's instance form,
// applying the Procs default.
func (r SolveRequest) Instance() Instance {
	p := r.Procs
	if p == 0 {
		p = 1
	}
	return Instance{Jobs: r.Jobs, Procs: p}
}

// Validate checks the request: a known objective, a known mode, a
// valid alpha (ValidAlpha), a structurally valid instance and times
// that obey the time-range rule (MaxTime).
func (r SolveRequest) Validate() error {
	if err := validConfig(r.Objective, r.Mode, r.Alpha); err != nil {
		return err
	}
	in := r.Instance()
	if err := in.Validate(); err != nil {
		return err
	}
	return in.CheckTimes()
}

// BatchRequest is the wire form of the daemon's /v1/batch endpoint:
// independent requests solved positionally.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// WireError is the wire form of a failed request. It implements error,
// so a decoded response's failure can be returned directly.
type WireError struct {
	// Code is one of the ErrCode constants.
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
}

func (e *WireError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// SolveResponse is the wire form of one request's outcome. Exactly one
// of {a solution with Schedule set, Err set} is present; the numeric
// fields mirror gapsched.Solution.
type SolveResponse struct {
	// Spans and Gaps report the schedule's wake-up counts.
	Spans int `json:"spans,omitempty"`
	Gaps  int `json:"gaps,omitempty"`
	// Power is the total power consumption; meaningful for WirePower.
	Power float64 `json:"power,omitempty"`
	// Schedule is the computed schedule (nil when Err is set).
	Schedule *Schedule `json:"schedule,omitempty"`
	// States, Subinstances and CacheHits mirror the solver's
	// effectiveness counters.
	States       int `json:"states,omitempty"`
	Subinstances int `json:"subinstances,omitempty"`
	CacheHits    int `json:"cacheHits,omitempty"`
	// PrunedStates and ExpandedStates report the exact tier's
	// branch-and-bound accounting: subproblems cut by the lower bound
	// versus subproblems expanded.
	PrunedStates   int `json:"prunedStates,omitempty"`
	ExpandedStates int `json:"expandedStates,omitempty"`
	// Mode is the solving tier that served the request ("" = exact).
	Mode string `json:"mode,omitempty"`
	// LowerBound is the certified lower bound on the optimal cost, in
	// the objective's units; for pure exact solves it equals the
	// reported cost.
	LowerBound float64 `json:"lowerBound,omitempty"`
	// HeuristicFragments counts the fragments served by the greedy
	// tier (0 for exact solves).
	HeuristicFragments int `json:"heuristicFragments,omitempty"`
	// ResolvedFragments and ReusedFragments are set by session solves
	// (/v1/session/{id}/solve): how many fragments the incremental
	// resolve actually re-solved versus served from session state.
	ResolvedFragments int `json:"resolvedFragments,omitempty"`
	ReusedFragments   int `json:"reusedFragments,omitempty"`
	// CompetitiveRatio, CommittedJobs, and CommittedCost are set by
	// solves of online (commit-only) sessions: the measured ratio of
	// the online run's cost to the certified lower bound of the
	// revealed prefix's offline optimum, the number of irrevocably
	// committed jobs, and the committed prefix's cost.
	CompetitiveRatio float64 `json:"competitiveRatio,omitempty"`
	CommittedJobs    int     `json:"committedJobs,omitempty"`
	CommittedCost    float64 `json:"committedCost,omitempty"`
	// Timings is the per-stage wall-clock breakdown of the solve that
	// produced this response (nil when Err is set).
	Timings *WireTimings `json:"timings,omitempty"`
	// Err is set when the request failed; all other fields are zero.
	Err *WireError `json:"error,omitempty"`
}

// WireTimings mirrors gapsched.Timings on the wire: where the solve
// spent its time, per pipeline stage, summed over fragments. All
// fields are integer nanoseconds. Cache hits report their lookup time
// under CacheNs rather than the original solve's cost, and session
// solves report only the fragments the resolve actually re-solved.
// SolvePolyNs is always 0 and so never encoded; it timed a retired
// second exact backend and stays for existing readers of the struct.
type WireTimings struct {
	PrepNs      int64 `json:"prepNs,omitempty"`
	CacheNs     int64 `json:"cacheNs,omitempty"`
	SolveDPNs   int64 `json:"solveDpNs,omitempty"`
	SolvePolyNs int64 `json:"solvePolyNs,omitempty"`
	SolveHeurNs int64 `json:"solveHeurNs,omitempty"`
	AssembleNs  int64 `json:"assembleNs,omitempty"`
}

// Validate checks the response invariant: exactly one of a schedule
// or an error, and errors carry a code.
func (r SolveResponse) Validate() error {
	if r.Err != nil {
		if r.Schedule != nil {
			return fmt.Errorf("sched: response carries both a schedule and error %q", r.Err.Code)
		}
		if r.Err.Code == "" {
			return fmt.Errorf("sched: response error has no code")
		}
		return nil
	}
	if r.Schedule == nil {
		return fmt.Errorf("sched: response carries neither a schedule nor an error")
	}
	return nil
}

// BatchResponse is the wire form of a /v1/batch outcome. On success
// Responses align positionally with the BatchRequest's Requests (each
// element failing independently); Err is set — and Responses empty —
// only when the envelope itself could not be processed.
type BatchResponse struct {
	Responses []SolveResponse `json:"responses,omitempty"`
	Err       *WireError      `json:"error,omitempty"`
}

// Validate checks the envelope invariant: an element list or an
// envelope error, never both, with every element and the error itself
// well-formed.
func (r BatchResponse) Validate() error {
	if r.Err != nil {
		if len(r.Responses) > 0 {
			return fmt.Errorf("sched: batch response carries both elements and envelope error %q", r.Err.Code)
		}
		if r.Err.Code == "" {
			return fmt.Errorf("sched: batch response envelope error has no code")
		}
		return nil
	}
	for i, sr := range r.Responses {
		if err := sr.Validate(); err != nil {
			return fmt.Errorf("sched: batch response %d: %w", i, err)
		}
	}
	return nil
}

// SessionCreateRequest is the wire form of opening an incremental
// scheduling session, the JSON body of POST /v1/session: a solver
// configuration plus an optional initial job set. Zero Objective means
// WireGaps and zero Procs means one processor, like SolveRequest.
type SessionCreateRequest struct {
	// Objective is WireGaps or WirePower ("" = WireGaps).
	Objective string `json:"objective,omitempty"`
	// Alpha is the sleep→active transition cost used by WirePower.
	Alpha float64 `json:"alpha,omitempty"`
	// Procs is the processor count (0 = 1).
	Procs int `json:"procs,omitempty"`
	// Mode is the session's solving tier ("" = WireModeExact); every
	// incremental resolve of the session runs on it.
	Mode string `json:"mode,omitempty"`
	// StateBudget tunes WireModeAuto, as in SolveRequest.
	StateBudget int `json:"stateBudget,omitempty"`
	// Online makes the session commit-only: jobs must arrive in release
	// order (initial Jobs included), deltas may not remove, and solves
	// return the online run's schedule with its measured
	// CompetitiveRatio. Solves of online sessions always mirror through
	// the auto tier, so Mode applies to offline sessions only.
	Online bool `json:"online,omitempty"`
	// Jobs is the initial job set; it may be empty (jobs arrive as
	// deltas) and may be infeasible (the first solve reports it).
	Jobs []Job `json:"jobs,omitempty"`
}

// Validate checks the request: a known objective, a known mode, a
// valid alpha (ValidAlpha), a representable processor count, non-empty
// job windows and times that obey the time-range rule (MaxTime).
func (r SessionCreateRequest) Validate() error {
	if err := validConfig(r.Objective, r.Mode, r.Alpha); err != nil {
		return err
	}
	if r.Procs < 0 {
		return fmt.Errorf("sched: negative processor count %d", r.Procs)
	}
	for i, j := range r.Jobs {
		if !j.Valid() {
			return fmt.Errorf("sched: job %d has empty window [%d,%d]", i, j.Release, j.Deadline)
		}
	}
	return Instance{Jobs: r.Jobs}.CheckTimes()
}

// SessionDeltaRequest is the wire form of one job-churn step, the JSON
// body of POST /v1/session/{id}/delta. Removals are applied before
// additions; the whole delta applies atomically — an unknown removal
// id or an invalid added job rejects the delta without mutating the
// session.
type SessionDeltaRequest struct {
	// Add lists jobs entering the instance; the response returns their
	// assigned ids positionally.
	Add []Job `json:"add,omitempty"`
	// Remove lists job ids leaving the instance.
	Remove []int `json:"remove,omitempty"`
}

// Validate checks the delta: it must carry at least one operation,
// every added job needs a non-empty window, the added jobs obey the
// time-range rule (MaxTime) among themselves, and no id is removed
// twice. (Whether removal ids are live, the rule across the added and
// the live jobs, and an online session's arrival order, are checked by
// gapsched.Session.Apply, not here.)
func (r SessionDeltaRequest) Validate() error {
	if len(r.Add) == 0 && len(r.Remove) == 0 {
		return fmt.Errorf("sched: session delta carries no operations")
	}
	for i, j := range r.Add {
		if !j.Valid() {
			return fmt.Errorf("sched: added job %d has empty window [%d,%d]", i, j.Release, j.Deadline)
		}
	}
	if err := (Instance{Jobs: r.Add}).CheckTimes(); err != nil {
		return err
	}
	seen := make(map[int]bool, len(r.Remove))
	for _, id := range r.Remove {
		if seen[id] {
			return fmt.Errorf("sched: job %d removed twice in one delta", id)
		}
		seen[id] = true
	}
	return nil
}

// SessionResponse is the wire form of every session-management outcome
// (create, delta, delete); session *solves* answer with SolveResponse.
// Exactly one of {session fields, Err} is meaningful.
type SessionResponse struct {
	// Session is the session id addressed by later requests.
	Session string `json:"session,omitempty"`
	// JobIDs are the ids assigned to this request's added jobs,
	// positionally (create: the initial jobs; delta: the Add list).
	JobIDs []int `json:"jobIds,omitempty"`
	// Jobs is the number of live jobs after the operation.
	Jobs int `json:"jobs,omitempty"`
	// Err is set when the request failed; all other fields are zero.
	Err *WireError `json:"error,omitempty"`
}

// Validate checks the response invariant: a session id or an error
// with a code, never both.
func (r SessionResponse) Validate() error {
	if r.Err != nil {
		if r.Session != "" || len(r.JobIDs) > 0 || r.Jobs != 0 {
			return fmt.Errorf("sched: session response carries both state and error %q", r.Err.Code)
		}
		if r.Err.Code == "" {
			return fmt.Errorf("sched: session response error has no code")
		}
		return nil
	}
	if r.Session == "" {
		return fmt.Errorf("sched: session response carries neither a session id nor an error")
	}
	return nil
}

// decodeStrict decodes exactly one JSON value into v, rejecting
// unknown fields and trailing garbage — the shared strictness of every
// wire decoder below.
func decodeStrict(r io.Reader, v any, what string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("sched: decoding %s: %w", what, err)
	}
	var extra json.RawMessage
	err := dec.Decode(&extra)
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return nil
	case err == nil, errors.As(err, &syntax), errors.Is(err, io.ErrUnexpectedEOF):
		// A second value, malformed or cut short, after the first one:
		// a protocol violation.
		return fmt.Errorf("sched: decoding %s: trailing data after JSON value", what)
	default:
		// A real read failure (size limit, broken connection), not a
		// protocol violation — report it as what it is.
		return fmt.Errorf("sched: decoding %s: %w", what, err)
	}
}

// DecodeSolveRequest decodes and validates one SolveRequest.
func DecodeSolveRequest(r io.Reader) (SolveRequest, error) {
	var req SolveRequest
	if err := decodeStrict(r, &req, "solve request"); err != nil {
		return SolveRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return SolveRequest{}, err
	}
	return req, nil
}

// DecodeBatchRequest decodes a BatchRequest and validates its shape.
// Per-request validation is left to the solve path so each element
// fails independently, mirroring batch solve semantics.
func DecodeBatchRequest(r io.Reader) (BatchRequest, error) {
	var req BatchRequest
	if err := decodeStrict(r, &req, "batch request"); err != nil {
		return BatchRequest{}, err
	}
	return req, nil
}

// DecodeSessionCreateRequest decodes and validates one
// SessionCreateRequest.
func DecodeSessionCreateRequest(r io.Reader) (SessionCreateRequest, error) {
	var req SessionCreateRequest
	if err := decodeStrict(r, &req, "session create request"); err != nil {
		return SessionCreateRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return SessionCreateRequest{}, err
	}
	return req, nil
}

// DecodeSessionDeltaRequest decodes and validates one
// SessionDeltaRequest.
func DecodeSessionDeltaRequest(r io.Reader) (SessionDeltaRequest, error) {
	var req SessionDeltaRequest
	if err := decodeStrict(r, &req, "session delta request"); err != nil {
		return SessionDeltaRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return SessionDeltaRequest{}, err
	}
	return req, nil
}

// DecodeSessionResponse decodes and validates one SessionResponse.
func DecodeSessionResponse(r io.Reader) (SessionResponse, error) {
	var resp SessionResponse
	if err := decodeStrict(r, &resp, "session response"); err != nil {
		return SessionResponse{}, err
	}
	if err := resp.Validate(); err != nil {
		return SessionResponse{}, err
	}
	return resp, nil
}

// DecodeSolveResponse decodes and validates one SolveResponse.
func DecodeSolveResponse(r io.Reader) (SolveResponse, error) {
	var resp SolveResponse
	if err := decodeStrict(r, &resp, "solve response"); err != nil {
		return SolveResponse{}, err
	}
	if err := resp.Validate(); err != nil {
		return SolveResponse{}, err
	}
	return resp, nil
}

// DecodeBatchResponse decodes and validates a BatchResponse.
func DecodeBatchResponse(r io.Reader) (BatchResponse, error) {
	var resp BatchResponse
	if err := decodeStrict(r, &resp, "batch response"); err != nil {
		return BatchResponse{}, err
	}
	if err := resp.Validate(); err != nil {
		return BatchResponse{}, err
	}
	return resp, nil
}
