package service

// The daemon's stateful tier: a registry of incremental scheduling
// sessions (gapsched.Session) addressed by id over the /v1/session
// endpoints. Sessions hold cross-request state — a live job set and
// its solved fragment decomposition — so the registry bounds them
// (MaxSessions), expires the idle ones (SessionTTL, enforced lazily on
// access and by a background sweeper), and closes every survivor on
// graceful shutdown. Session fragment solves run over the same shared
// FragmentCache as the one-shot endpoints, so a fragment solved for a
// coalesced batch is a session cache hit and vice versa.
//
//	POST   /v1/session             sched.SessionCreateRequest → sched.SessionResponse
//	POST   /v1/session/{id}/delta  sched.SessionDeltaRequest  → sched.SessionResponse
//	POST   /v1/session/{id}/solve  (no body)                  → sched.SolveResponse
//	DELETE /v1/session/{id}                                   → sched.SessionResponse

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	gapsched "repro"
	"repro/internal/obs"
	"repro/internal/sched"
)

// errSessionsFull rejects creates once MaxSessions sessions are open;
// it maps to the unavailable wire code (retry later or elsewhere).
var errSessionsFull = errors.New("service: session table full")

// sessionEntry is one live session plus its bookkeeping. ops
// serializes whole endpoint operations (a delta's validate+apply, a
// solve) so deltas are atomic even though the facade Session also
// locks per call.
type sessionEntry struct {
	ops      sync.Mutex
	sess     *gapsched.Session
	key      solveKey
	lastUsed time.Time // guarded by the registry mutex
}

// sessionRegistry owns the id → session table, TTL eviction, and the
// shutdown sweep.
type sessionRegistry struct {
	ttl time.Duration // ≤ 0 disables expiry
	max int
	met *metrics

	mu     sync.Mutex
	byID   map[string]*sessionEntry
	nextID int64
	closed bool
	stop   chan struct{}
	done   chan struct{}
}

func newSessionRegistry(ttl time.Duration, max int, met *metrics) *sessionRegistry {
	r := &sessionRegistry{
		ttl:  ttl,
		max:  max,
		met:  met,
		byID: make(map[string]*sessionEntry),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if ttl > 0 {
		go r.sweep()
	} else {
		close(r.done)
	}
	return r
}

// sweep expires idle sessions in the background, often enough that an
// abandoned session outlives its TTL by at most ~half a TTL. Lazy
// expiry on access keeps the TTL exact for addressed sessions; the
// sweeper is what reclaims the never-addressed ones.
func (r *sessionRegistry) sweep() {
	defer close(r.done)
	interval := max(r.ttl/2, 10*time.Millisecond)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-ticker.C:
			r.expireIdle(now)
		}
	}
}

// expireIdle closes every session idle past the TTL.
func (r *sessionRegistry) expireIdle(now time.Time) {
	var victims []*sessionEntry
	r.mu.Lock()
	for id, e := range r.byID {
		if now.Sub(e.lastUsed) > r.ttl {
			delete(r.byID, id)
			victims = append(victims, e)
		}
	}
	r.mu.Unlock()
	for _, e := range victims {
		e.sess.Close()
		r.met.sessionsExpired.Add(1)
	}
}

// create opens a session via open and registers it. The session is
// opened before taking the lock (opening validates configuration and
// may allocate), so on the rejection paths — registry shutting down,
// table full — the freshly opened session must be closed before
// returning, or every rejected create would leak a live
// gapsched.Session.
func (r *sessionRegistry) create(open func(procs int) (*gapsched.Session, error), key solveKey, procs int) (string, *sessionEntry, error) {
	sess, err := open(procs)
	if err != nil {
		return "", nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		sess.Close()
		return "", nil, ErrShuttingDown
	}
	if r.max > 0 && len(r.byID) >= r.max {
		n := len(r.byID)
		r.mu.Unlock()
		sess.Close()
		return "", nil, fmt.Errorf("%w: %d sessions open", errSessionsFull, n)
	}
	r.nextID++
	id := "s" + strconv.FormatInt(r.nextID, 10)
	r.byID[id] = &sessionEntry{sess: sess, key: key, lastUsed: time.Now()}
	r.met.sessionsCreated.Add(1)
	e := r.byID[id]
	r.mu.Unlock()
	return id, e, nil
}

// lookup returns the live entry for id, refreshing its TTL clock. A
// session idle past the TTL is expired on the spot and reported as
// missing, so expiry does not depend on sweeper timing.
func (r *sessionRegistry) lookup(id string) (*sessionEntry, bool) {
	now := time.Now()
	r.mu.Lock()
	e, ok := r.byID[id]
	if ok && r.ttl > 0 && now.Sub(e.lastUsed) > r.ttl {
		delete(r.byID, id)
		r.mu.Unlock()
		e.sess.Close()
		r.met.sessionsExpired.Add(1)
		return nil, false
	}
	if ok {
		e.lastUsed = now
	}
	r.mu.Unlock()
	return e, ok
}

// remove deletes id from the table and closes its session. Closing
// waits for an in-flight operation on the session to finish, so
// delete-while-solving is safe: the solve completes with its result,
// later operations see a missing session.
func (r *sessionRegistry) remove(id string) bool {
	r.mu.Lock()
	e, ok := r.byID[id]
	delete(r.byID, id)
	r.mu.Unlock()
	if !ok {
		return false
	}
	e.sess.Close()
	r.met.sessionsClosed.Add(1)
	return true
}

// open returns the number of live sessions.
func (r *sessionRegistry) open() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// close rejects new sessions, stops the sweeper, and closes every open
// session (waiting out their in-flight operations) — the registry's
// share of graceful shutdown.
func (r *sessionRegistry) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.closed = true
	victims := make([]*sessionEntry, 0, len(r.byID))
	for id, e := range r.byID {
		delete(r.byID, id)
		victims = append(victims, e)
	}
	r.mu.Unlock()
	close(r.stop)
	for _, e := range victims {
		e.sess.Close()
		r.met.sessionsClosed.Add(1)
	}
	<-r.done
}

// handleSessionCreate serves POST /v1/session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.met.sessionRequests.Add(1)
	req, err := sched.DecodeSessionCreateRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeSessionError(w, &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()})
		return
	}
	key := keyFor(sched.SolveRequest{Objective: req.Objective, Alpha: req.Alpha, Mode: req.Mode, StateBudget: req.StateBudget})
	procs := req.Procs
	if procs == 0 {
		procs = 1
	}
	if req.Online {
		if err := orderedArrivals(req.Jobs, math.MinInt); err != nil {
			s.writeSessionError(w, wireError(err))
			return
		}
	}
	solver := s.solverFor(key)
	open := solver.Open
	if req.Online {
		open = solver.OpenOnline
	}
	id, e, err := s.sessions.create(open, key, procs)
	if err != nil {
		s.writeSessionError(w, wireError(err))
		return
	}
	resp := sched.SessionResponse{Session: id, Jobs: len(req.Jobs)}
	e.ops.Lock()
	for _, j := range req.Jobs {
		jid, err := e.sess.Add(j)
		if err != nil {
			// Unreachable after wire validation and the arrival-order
			// pre-check; fail the create whole.
			e.ops.Unlock()
			s.sessions.remove(id)
			s.writeSessionError(w, wireError(err))
			return
		}
		resp.JobIDs = append(resp.JobIDs, jid)
	}
	e.ops.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// orderedArrivals rejects job lists an online session cannot admit:
// arrivals must carry non-decreasing releases, starting no earlier
// than the session's watermark. Checking up front keeps creates and
// deltas atomic — nothing is admitted from a rejected list.
func orderedArrivals(jobs []sched.Job, watermark int) error {
	prev := watermark
	for i, j := range jobs {
		if j.Release < prev {
			return fmt.Errorf("%w: job %d [%d,%d] arrives after time %d", gapsched.ErrReleaseOrder, i, j.Release, j.Deadline, prev)
		}
		prev = j.Release
	}
	return nil
}

// handleSessionDelta serves POST /v1/session/{id}/delta. The delta is
// atomic: every removal id is verified against the live session before
// any mutation, so a not_found delta leaves the session untouched.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	s.met.sessionRequests.Add(1)
	id := r.PathValue("id")
	req, err := sched.DecodeSessionDeltaRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeSessionError(w, &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()})
		return
	}
	e, ok := s.sessions.lookup(id)
	if !ok {
		s.writeSessionError(w, noSession(id))
		return
	}
	e.ops.Lock()
	defer e.ops.Unlock()
	if wm, online := e.sess.Online(); online {
		// Commit-only sessions: reject removals and out-of-order
		// arrivals before mutating anything, keeping the delta atomic.
		if len(req.Remove) > 0 {
			s.writeSessionError(w, wireError(gapsched.ErrCommitOnly))
			return
		}
		if err := orderedArrivals(req.Add, wm); err != nil {
			s.writeSessionError(w, wireError(err))
			return
		}
	}
	for _, jid := range req.Remove {
		if _, live := e.sess.Job(jid); !live {
			s.writeSessionError(w, &sched.WireError{
				Code:    sched.ErrCodeNotFound,
				Message: fmt.Sprintf("session %s has no job %d", id, jid),
			})
			return
		}
	}
	resp := sched.SessionResponse{Session: id}
	for _, jid := range req.Remove {
		if err := e.sess.Remove(jid); err != nil {
			s.writeSessionError(w, wireError(err))
			return
		}
	}
	for _, j := range req.Add {
		jid, err := e.sess.Add(j)
		if err != nil {
			s.writeSessionError(w, wireError(err))
			return
		}
		resp.JobIDs = append(resp.JobIDs, jid)
	}
	s.met.sessionDeltas.Add(1)
	resp.Jobs = e.sess.Len()
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionSolve serves POST /v1/session/{id}/solve: an
// incremental resolve, answered in the same wire shape as /v1/solve
// plus the resolved/reused fragment counters.
func (s *Server) handleSessionSolve(w http.ResponseWriter, r *http.Request) {
	s.met.sessionRequests.Add(1)
	id := r.PathValue("id")
	e, ok := s.sessions.lookup(id)
	if !ok {
		s.writeWireError(w, noSession(id))
		return
	}
	// Each resolve runs under its own trace: the facade records a span
	// per re-solved fragment, which feeds the per-backend histograms
	// and the debug ring like any one-shot dispatch.
	tr := obs.NewTrace("session_solve")
	tr.SetAttr("session", id)
	if rid, ok := r.Context().Value(ridKey{}).(uint64); ok {
		tr.SetAttr("requestId", strconv.FormatUint(rid, 10))
	}
	e.ops.Lock()
	sol, err := e.sess.ResolveContext(obs.With(r.Context(), tr))
	e.ops.Unlock()
	if err == nil {
		tr.SetAttr("resolved", strconv.Itoa(sol.ResolvedFragments))
		tr.SetAttr("reused", strconv.Itoa(sol.ReusedFragments))
	}
	s.po.finishTrace(tr, err)
	if err != nil {
		s.writeWireError(w, wireError(err))
		return
	}
	s.met.sessionSolves.Add(1)
	s.met.countModeSolve(e.key, sol)
	if sol.CompetitiveRatio > 0 {
		s.met.observeOnlineRatio(sol.CompetitiveRatio)
	}
	writeJSON(w, http.StatusOK, wireOutcome(gapsched.BatchResult{Solution: sol}))
}

// handleSessionDelete serves DELETE /v1/session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.met.sessionRequests.Add(1)
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		s.writeSessionError(w, noSession(id))
		return
	}
	writeJSON(w, http.StatusOK, sched.SessionResponse{Session: id})
}

// noSession is the uniform unknown-session error payload.
func noSession(id string) *sched.WireError {
	return &sched.WireError{Code: sched.ErrCodeNotFound, Message: fmt.Sprintf("no session %q (deleted or expired)", id)}
}

// writeSessionError writes a session-management error envelope,
// counting it.
func (s *Server) writeSessionError(w http.ResponseWriter, we *sched.WireError) {
	s.met.bumpError(we.Code)
	writeJSON(w, httpStatus(we.Code), sched.SessionResponse{Err: we})
}
