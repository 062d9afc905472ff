// Package service is the batched scheduling daemon behind
// cmd/gapschedd: an HTTP/JSON front end to the gapsched solving
// pipeline whose core is a request coalescer. Concurrent /v1/solve
// requests are buffered into short time/size windows and dispatched as
// one fragment-level SolveBatch over a persistent shared
// FragmentCache, so independent clients with similar workloads hit
// cached canonical fragments instead of re-solving; responses are
// demultiplexed back per request and are bit-identical to direct
// Solve calls. Endpoints:
//
//	POST   /v1/solve             one sched.SolveRequest  → sched.SolveResponse
//	POST   /v1/batch             one sched.BatchRequest  → sched.BatchResponse
//	POST   /v1/session           open an incremental session (session.go)
//	POST   /v1/session/{id}/delta  apply job add/remove deltas
//	POST   /v1/session/{id}/solve  incremental resolve (dirty fragments only)
//	DELETE /v1/session/{id}      close a session
//	GET    /healthz              liveness probe
//	GET    /metrics              Prometheus text exposition of the counters
//	GET    /v1/debug/traces      recent solve traces, newest first
//	GET    /v1/debug/slo         trailing-window SLO report
//
// The wire format is defined in internal/sched (wire.go); DESIGN.md §2
// describes where this layer sits in the pipeline.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	gapsched "repro"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultMaxBatch bounds how many requests one coalescing window
	// may accumulate before it dispatches early.
	DefaultMaxBatch = 64
	// DefaultCacheCapacity sizes the shared fragment cache.
	DefaultCacheCapacity = 1 << 16
	// DefaultSessionTTL is how long an idle incremental session lives
	// before eviction reclaims it.
	DefaultSessionTTL = 5 * time.Minute
	// DefaultMaxSessions bounds the session registry.
	DefaultMaxSessions = 1 << 12
	// DefaultSLOLatencyP99 is the default sliding-p99 latency objective.
	DefaultSLOLatencyP99 = time.Second
	// DefaultSLOErrorRate is the default windowed error-rate objective
	// (fraction of requests answered 5xx).
	DefaultSLOErrorRate = 0.01
	// DefaultSLOWindow is the trailing window SLO verdicts cover.
	DefaultSLOWindow = time.Minute
	// maxBodyBytes bounds a request body; a million-job instance is
	// ~30 MB and far beyond what the exact DP should be fed over HTTP.
	maxBodyBytes = 8 << 20
)

// Config tunes a Server. The zero value serves uncoalesced requests
// (no buffering window) through a default-capacity shared cache.
type Config struct {
	// Window is the coalescing window: the first /v1/solve request of
	// a solver configuration opens a window, requests arriving within
	// Window join it, and the whole window dispatches as one
	// SolveBatch. Zero or negative disables coalescing — every request
	// dispatches immediately.
	Window time.Duration
	// MaxBatch dispatches a window early once it holds this many
	// requests (0 = DefaultMaxBatch; 1 effectively disables
	// coalescing).
	MaxBatch int
	// CacheCapacity sizes the persistent shared FragmentCache
	// (0 = DefaultCacheCapacity; negative disables caching).
	CacheCapacity int
	// Workers bounds the solver pool of each dispatch that serves
	// several requests — a coalesced window, a /v1/batch group
	// (0 = GOMAXPROCS). A window holding a single /v1/solve request
	// runs on one worker, and session resolves run sequentially.
	Workers int
	// SolveTimeout is the per-dispatch solve deadline. A dispatch
	// that serves a single request additionally honors that client's
	// request context; dispatches shared by several coalesced
	// requests honor only this timeout. All configuration groups of
	// one /v1/batch envelope share a single such deadline. Zero means
	// no deadline.
	SolveTimeout time.Duration
	// SessionTTL is how long an idle /v1/session session survives
	// before it is evicted (0 = DefaultSessionTTL; negative disables
	// expiry). The clock resets on every request that addresses the
	// session.
	SessionTTL time.Duration
	// MaxSessions bounds how many sessions may be open at once
	// (0 = DefaultMaxSessions; negative means unlimited). Creates
	// beyond the bound are rejected as unavailable.
	MaxSessions int
	// Logger receives the daemon's structured logs: per-request lines
	// and slow-solve warnings. Nil discards them.
	Logger *slog.Logger
	// TraceRing sizes the ring of recent solve traces served by
	// /v1/debug/traces (0 = obs.DefaultRingSize; negative disables
	// trace retention — the endpoint then serves an empty list).
	TraceRing int
	// SlowSolve, when positive, logs a warning with the full per-stage
	// breakdown for every dispatch whose solve ran at least this long.
	SlowSolve time.Duration
	// SLOLatencyP99 is the sliding-p99 latency objective evaluated per
	// endpoint over SLOWindow (0 = DefaultSLOLatencyP99; negative
	// disables the latency objective).
	SLOLatencyP99 time.Duration
	// SLOErrorRate is the windowed error-rate objective: the tolerated
	// fraction of requests answered 5xx (0 = DefaultSLOErrorRate;
	// negative disables the error objective and budget accounting).
	SLOErrorRate float64
	// SLOWindow is the trailing window SLO verdicts cover
	// (0 or negative = DefaultSLOWindow).
	SLOWindow time.Duration
}

// Server is the daemon: an http.Handler plus the shared cache, the
// coalescer, and the observability sinks (latency histograms, the
// trace ring, the structured logger). Construct with New; close with
// Close.
type Server struct {
	cfg      Config
	cache    *gapsched.FragmentCache
	co       *coalescer
	sessions *sessionRegistry
	met      metrics
	eps      []*endpoint // the instrumented routes, in registration order
	po       *pipelineObs
	slo      *sloTracker
	reqID    atomic.Uint64
	mux      *http.ServeMux
}

// New builds a Server from cfg, applying the documented defaults.
func New(cfg Config) *Server {
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.SLOLatencyP99 == 0 {
		cfg.SLOLatencyP99 = DefaultSLOLatencyP99
	}
	if cfg.SLOErrorRate == 0 {
		cfg.SLOErrorRate = DefaultSLOErrorRate
	}
	if cfg.SLOWindow <= 0 {
		cfg.SLOWindow = DefaultSLOWindow
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	m := &s.met
	s.eps = []*endpoint{
		{pattern: "POST /v1/solve", label: "solve", reqLabel: "solve", reqs: &m.solveRequests, serve: s.handleSolve},
		{pattern: "POST /v1/batch", label: "batch", reqLabel: "batch", reqs: &m.batchRequests, serve: s.handleBatch},
		{pattern: "POST /v1/session", label: "session_create", reqLabel: "session", reqs: &m.sessionRequests, serve: s.handleSessionCreate},
		{pattern: "POST /v1/session/{id}/delta", label: "session_delta", reqLabel: "session", reqs: &m.sessionRequests, serve: s.handleSessionDelta},
		{pattern: "POST /v1/session/{id}/solve", label: "session_solve", reqLabel: "session", reqs: &m.sessionRequests, serve: s.handleSessionSolve},
		{pattern: "DELETE /v1/session/{id}", label: "session_delete", reqLabel: "session", reqs: &m.sessionRequests, serve: s.handleSessionDelete},
	}
	s.slo = newSLOTracker(s.eps, cfg.SLOLatencyP99, cfg.SLOErrorRate, cfg.SLOWindow, cfg.Logger)
	s.met.start = time.Now()
	if cfg.CacheCapacity > 0 {
		s.cache = gapsched.NewFragmentCache(cfg.CacheCapacity)
	}
	s.po = &pipelineObs{met: &s.met, logger: cfg.Logger, slow: cfg.SlowSolve,
		slowLim: newLogLimiter(slowLogRate, slowLogBurst)}
	if cfg.TraceRing >= 0 {
		s.po.rec = obs.NewRecorder(cfg.TraceRing)
	}
	s.co = newCoalescer(cfg.Window, cfg.MaxBatch, cfg.SolveTimeout, &s.met, s.po)
	s.sessions = newSessionRegistry(cfg.SessionTTL, cfg.MaxSessions, &s.met)
	for _, ep := range s.eps {
		s.mux.HandleFunc(ep.pattern, s.instrument(ep))
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/debug/slo", s.handleSLO)
	return s
}

// ridKey keys the per-request id in a request context, so the dispatch
// trace of an uncoalesced solve can carry the id of the request it
// served.
type ridKey struct{}

// statusWriter captures the response status for the request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// endpoint is one instrumented route, declared once in New's table.
// Every view of the endpoint derives from its entry: the route, the
// requests_total series it counts under (endpoints may share one), the
// request histogram and SLO window its label names on /metrics and
// /v1/debug/slo, and the structured log line.
type endpoint struct {
	pattern  string           // ServeMux pattern
	label    string           // endpoint label of the latency and SLO series
	reqLabel string           // endpoint label of its requests_total series
	reqs     *atomic.Int64    // that series' counter
	serve    http.HandlerFunc // the handler
	lat      obs.Histogram    // end-to-end latency since startup
	win      sloWindow        // trailing window, set by newSLOTracker
}

// instrument wraps one endpoint handler with the request-scoped
// observability: the endpoint's request counter, a fresh request id
// threaded through the context, the endpoint's latency histogram and
// SLO window, and one structured log line per request (id, endpoint,
// status, duration).
func (s *Server) instrument(ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ep.reqs.Add(1)
		rid := s.reqID.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ep.serve(sw, r.WithContext(context.WithValue(r.Context(), ridKey{}, rid)))
		d := time.Since(start)
		ep.lat.Observe(d)
		s.slo.observe(ep, d, sw.status)
		s.po.logger.Info("request",
			slog.Uint64("id", rid),
			slog.String("endpoint", ep.label),
			slog.Int("status", sw.status),
			slog.Duration("duration", d))
	}
}

// solver maps a validated request's configuration to the daemon's
// Solver over the shared cache. The Solver keys the coalescing
// windows, the /v1/batch groups and the session entries, so fields an
// objective or mode ignores are dropped — gaps requests coalesce
// regardless of any alpha they happen to carry, and only auto-mode
// requests keep their stateBudget.
func (s *Server) solver(objective string, alpha float64, mode string, budget int) gapsched.Solver {
	sv := gapsched.Solver{Workers: s.cfg.Workers, Cache: s.cache}
	if objective == sched.WirePower {
		sv.Objective, sv.Alpha = gapsched.ObjectivePower, alpha
	}
	// Validation accepted the request, so the mode name parses.
	sv.Mode, _ = gapsched.ParseMode(mode)
	if sv.Mode == gapsched.ModeAuto {
		switch sv.StateBudget = budget; {
		case budget == 0:
			// The solver resolves 0 to the default budget; normalizing
			// here lets explicit-default and zero requests coalesce.
			sv.StateBudget = gapsched.DefaultStateBudget
		case budget < 0:
			// All negative budgets mean "every fragment heuristic";
			// collapse them onto one sentinel for the same reason.
			sv.StateBudget = -1
		}
	}
	return sv
}

// Close gracefully shuts the solving side down: new requests are
// rejected with ErrShuttingDown, every open coalescing window is
// dispatched so buffered clients still get their answers, all
// in-flight dispatches are waited for, and every open incremental
// session is closed (waiting out in-flight session operations). The
// HTTP listener's lifecycle (http.Server.Shutdown) is the caller's
// concern.
func (s *Server) Close() {
	s.co.close()
	s.sessions.close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	s.mux.ServeHTTP(w, r)
}

// Stats is a point-in-time snapshot of the Server's counters, exposed
// for tests and the experiment harness; /metrics renders the same
// numbers.
type Stats struct {
	SolveRequests, BatchRequests, BatchItems int64
	Dispatches, Coalesced                    int64
	// Session counters: requests to any /v1/session endpoint, deltas
	// applied, incremental solves served, and the registry's lifecycle
	// tallies.
	SessionRequests, SessionDeltas, SessionSolves    int64
	SessionsCreated, SessionsClosed, SessionsExpired int64
	// SessionsOpen is the number of sessions currently live.
	SessionsOpen int
	// ModeSolves counts successfully served solutions by solver mode
	// ("exact", "heuristic", "auto"), across /v1/solve, /v1/batch
	// elements, and session resolves.
	ModeSolves map[string]int64
	// QualityGap is the summed certified optimality gap (cost −
	// lowerBound) over every served solution; exact solves contribute 0.
	QualityGap float64
	// OnlineSolves counts solves served for online (commit-only)
	// sessions; OnlineRatio is the last measured competitive ratio.
	OnlineSolves int64
	OnlineRatio  float64
	// Buffered is the number of requests currently waiting in open
	// coalescing windows.
	Buffered int
	Errors   map[string]int64
	Cache    gapsched.CacheStats
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		SolveRequests:   s.met.solveRequests.Load(),
		BatchRequests:   s.met.batchRequests.Load(),
		BatchItems:      s.met.batchItems.Load(),
		Dispatches:      s.met.dispatches.Load(),
		Coalesced:       s.met.coalesced.Load(),
		SessionRequests: s.met.sessionRequests.Load(),
		SessionDeltas:   s.met.sessionDeltas.Load(),
		SessionSolves:   s.met.sessionSolves.Load(),
		SessionsCreated: s.met.sessionsCreated.Load(),
		SessionsClosed:  s.met.sessionsClosed.Load(),
		SessionsExpired: s.met.sessionsExpired.Load(),
		SessionsOpen:    s.sessions.open(),
		ModeSolves:      byName(sched.WireModes[:], s.met.modeSolves[:]),
		QualityGap:      s.met.qualityGapTotal(),
		OnlineSolves:    s.met.onlineSolves.Load(),
		OnlineRatio:     s.met.onlineRatioValue(),
		Buffered:        s.co.buffered(),
		Errors:          byName(sched.ErrCodes[:], s.met.errors[:]),
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	return st
}

// answer turns one served result of sv into its wire response and
// counts it: the error code on failure, the solution's mode, quality
// gap, backend split, state counters and online ratio on success.
// /v1/solve, every /v1/batch element and every session resolve answer
// through it.
func (s *Server) answer(sv gapsched.Solver, out gapsched.BatchResult) sched.SolveResponse {
	if out.Err != nil {
		we := wireError(out.Err)
		s.met.countError(we.Code)
		return sched.SolveResponse{Err: we}
	}
	sol := out.Solution
	s.met.countSolve(sv.Objective, sol)
	return sched.SolveResponse{
		Spans:              sol.Spans,
		Gaps:               sol.Gaps,
		Power:              sol.Power,
		Schedule:           &sol.Schedule,
		States:             sol.States,
		Subinstances:       sol.Subinstances,
		CacheHits:          sol.CacheHits,
		PrunedStates:       sol.PrunedStates,
		ExpandedStates:     sol.ExpandedStates,
		Mode:               sol.Mode.String(),
		LowerBound:         sol.LowerBound,
		HeuristicFragments: sol.HeuristicFragments,
		ResolvedFragments:  sol.ResolvedFragments,
		ReusedFragments:    sol.ReusedFragments,
		CompetitiveRatio:   sol.CompetitiveRatio,
		CommittedJobs:      sol.CommittedJobs,
		CommittedCost:      sol.CommittedCost,
		Timings: &sched.WireTimings{
			PrepNs:      sol.Timings.Prep.Nanoseconds(),
			CacheNs:     sol.Timings.Cache.Nanoseconds(),
			SolveDPNs:   sol.Timings.SolveDP.Nanoseconds(),
			SolveHeurNs: sol.Timings.SolveHeur.Nanoseconds(),
			AssembleNs:  sol.Timings.Assemble.Nanoseconds(),
		},
	}
}

// wireError classifies a solver-side error. Requests are validated
// before they reach the solver, so anything but infeasibility, a
// context cut-off, or a session lifecycle race is an internal fault.
func wireError(err error) *sched.WireError {
	code := sched.ErrCodeInternal
	switch {
	case errors.Is(err, gapsched.ErrInfeasible):
		code = sched.ErrCodeInfeasible
	case errors.Is(err, ErrShuttingDown), errors.Is(err, errSessionsFull):
		code = sched.ErrCodeUnavailable
	case errors.Is(err, gapsched.ErrSessionClosed):
		// The session was deleted or expired between lookup and use.
		code = sched.ErrCodeNotFound
	case errors.Is(err, gapsched.ErrCommitOnly), errors.Is(err, gapsched.ErrReleaseOrder), errors.Is(err, sched.ErrTimeRange):
		// Online-session contract violations, and a delta whose jobs
		// break the time-range rule together with the session's: the
		// request is at fault.
		code = sched.ErrCodeBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = sched.ErrCodeCanceled
	}
	return &sched.WireError{Code: code, Message: err.Error()}
}

// httpStatus maps a response's wire error to its HTTP status: 200 for
// none, the code's status otherwise.
func httpStatus(we *sched.WireError) int {
	if we == nil {
		return http.StatusOK
	}
	switch we.Code {
	case sched.ErrCodeBadRequest:
		return http.StatusBadRequest
	case sched.ErrCodeInfeasible:
		return http.StatusUnprocessableEntity
	case sched.ErrCodeCanceled:
		return http.StatusGatewayTimeout
	case sched.ErrCodeUnavailable:
		return http.StatusServiceUnavailable
	case sched.ErrCodeNotFound:
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// writeJSON writes one wire value with status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeWireError writes an error response, counting it.
func (s *Server) writeWireError(w http.ResponseWriter, we *sched.WireError) {
	s.met.countError(we.Code)
	writeJSON(w, httpStatus(we), sched.SolveResponse{Err: we})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := sched.DecodeSolveRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeWireError(w, &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()})
		return
	}
	sv := s.solver(req.Objective, req.Alpha, req.Mode, req.StateBudget)
	done, err := s.co.enqueue(r.Context(), sv, req.Instance())
	if err != nil {
		s.writeWireError(w, wireError(err))
		return
	}
	select {
	case out := <-done:
		resp := s.answer(sv, out)
		writeJSON(w, httpStatus(resp.Err), resp)
	case <-r.Context().Done():
		// The client is gone; its window still completes for the
		// benefit of coalesced peers (and the done channel is buffered,
		// so the dispatcher never blocks on us).
		s.writeWireError(w, &sched.WireError{Code: sched.ErrCodeCanceled, Message: "request canceled by client"})
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	breq, err := sched.DecodeBatchRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.met.countError(sched.ErrCodeBadRequest)
		writeJSON(w, http.StatusBadRequest, sched.BatchResponse{
			Err: &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()},
		})
		return
	}
	s.met.batchItems.Add(int64(len(breq.Requests)))
	// Claiming a dispatch slot ties the batch into the coalescer's
	// lifecycle: Close rejects envelopes arriving after shutdown began
	// and waits for this dispatch like any windowed one.
	if err := s.co.acquire(); err != nil {
		we := wireError(err)
		s.met.countError(we.Code)
		writeJSON(w, httpStatus(we), sched.BatchResponse{Err: we})
		return
	}
	defer s.co.release()

	// A client-built batch is already a batch: it bypasses the
	// coalescing window and dispatches immediately, grouped by solver
	// configuration, over the same shared cache. Elements fail
	// independently, mirroring SolveBatch semantics.
	resp := sched.BatchResponse{Responses: make([]sched.SolveResponse, len(breq.Requests))}
	groups := make(map[gapsched.Solver][]int)
	var order []gapsched.Solver // groups in order of first appearance
	for i, req := range breq.Requests {
		if err := req.Validate(); err != nil {
			s.met.countError(sched.ErrCodeBadRequest)
			resp.Responses[i] = sched.SolveResponse{
				Err: &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()},
			}
			continue
		}
		sv := s.solver(req.Objective, req.Alpha, req.Mode, req.StateBudget)
		if groups[sv] == nil {
			order = append(order, sv)
		}
		groups[sv] = append(groups[sv], i)
	}
	// One deadline bounds the whole envelope: once it passes, every
	// group not yet solved fails as canceled.
	ctx := r.Context()
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	for _, sv := range order {
		idxs := groups[sv]
		ins := make([]gapsched.Instance, len(idxs))
		for j, i := range idxs {
			ins[j] = breq.Requests[i].Instance()
		}
		// Each configuration group dispatches under its own trace, like
		// a coalesced window (queue waits do not apply — client-built
		// batches never buffer).
		for j, br := range s.co.dispatch(ctx, obs.NewTrace("batch"), sv, ins) {
			resp.Responses[idxs[j]] = s.answer(sv, br)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz stays a liveness probe — always HTTP 200 — but its
// body carries the SLO verdict, so probes that parse JSON can see
// degradation without scraping /metrics.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{s.slo.evaluate(time.Now()).Status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, s.eps, s.co.buffered(), s.sessions.open(), s.cache)
	s.slo.writeProm(w, time.Now())
}

// handleTraces serves GET /v1/debug/traces: the retained solve traces,
// newest first. With retention disabled (Config.TraceRing < 0) the
// list is empty.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.po.rec.Traces()
	if traces == nil {
		traces = []obs.TraceData{}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []obs.TraceData `json:"traces"`
	}{traces})
}
