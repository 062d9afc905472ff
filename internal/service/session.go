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

// sessionEntry is one live session plus its bookkeeping. The facade
// Session serializes its own operations, and Apply checks a whole
// delta before changing anything, so deltas are atomic without a lock
// here.
type sessionEntry struct {
	sess     *gapsched.Session
	solver   gapsched.Solver
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

// create registers an opened session and returns its id. On the
// rejection paths — registry shutting down, table full — it closes the
// session, so a rejected create leaves no live gapsched.Session behind.
func (r *sessionRegistry) create(sess *gapsched.Session, sv gapsched.Solver) (string, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		sess.Close()
		return "", ErrShuttingDown
	}
	if r.max > 0 && len(r.byID) >= r.max {
		n := len(r.byID)
		r.mu.Unlock()
		sess.Close()
		return "", fmt.Errorf("%w: %d sessions open", errSessionsFull, n)
	}
	r.nextID++
	id := "s" + strconv.FormatInt(r.nextID, 10)
	r.byID[id] = &sessionEntry{sess: sess, solver: sv, lastUsed: time.Now()}
	r.met.sessionsCreated.Add(1)
	r.mu.Unlock()
	return id, nil
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

// handleSessionCreate serves POST /v1/session: open, apply the initial
// jobs as one delta, then register. A rejected job list (an online
// session's arrival order) fails the create before anything is
// registered.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	req, err := sched.DecodeSessionCreateRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeSessionError(w, &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()})
		return
	}
	sv := s.solver(req.Objective, req.Alpha, req.Mode, req.StateBudget)
	open := sv.Open
	if req.Online {
		open = sv.OpenOnline
	}
	sess, err := open(req.Procs)
	if err != nil {
		s.writeSessionError(w, wireError(err))
		return
	}
	ids, live, err := sess.Apply(req.Jobs, nil)
	if err != nil {
		sess.Close()
		s.writeSessionError(w, wireError(err))
		return
	}
	id, err := s.sessions.create(sess, sv)
	if err != nil {
		s.writeSessionError(w, wireError(err))
		return
	}
	writeJSON(w, http.StatusOK, sched.SessionResponse{Session: id, JobIDs: ids, Jobs: live})
}

// handleSessionDelta serves POST /v1/session/{id}/delta as one
// Session.Apply: a rejected delta leaves the session untouched.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
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
	ids, live, err := e.sess.Apply(req.Add, req.Remove)
	if err != nil {
		we := wireError(err)
		var unknown *gapsched.UnknownJobError
		if errors.As(err, &unknown) {
			we = &sched.WireError{Code: sched.ErrCodeNotFound, Message: fmt.Sprintf("session %s has no job %d", id, unknown.ID)}
		}
		s.writeSessionError(w, we)
		return
	}
	s.met.sessionDeltas.Add(1)
	writeJSON(w, http.StatusOK, sched.SessionResponse{Session: id, JobIDs: ids, Jobs: live})
}

// handleSessionSolve serves POST /v1/session/{id}/solve: an
// incremental resolve, answered in the same wire shape as /v1/solve
// plus the resolved/reused fragment counters.
func (s *Server) handleSessionSolve(w http.ResponseWriter, r *http.Request) {
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
	sol, err := e.sess.ResolveContext(obs.With(r.Context(), tr))
	if err == nil {
		tr.SetAttr("resolved", strconv.Itoa(sol.ResolvedFragments))
		tr.SetAttr("reused", strconv.Itoa(sol.ReusedFragments))
	}
	s.po.finishTrace(tr, err)
	if err == nil {
		s.met.sessionSolves.Add(1)
	}
	resp := s.answer(e.solver, gapsched.BatchResult{Solution: sol, Err: err})
	writeJSON(w, httpStatus(resp.Err), resp)
}

// handleSessionDelete serves DELETE /v1/session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
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
	s.met.countError(we.Code)
	writeJSON(w, httpStatus(we), sched.SessionResponse{Err: we})
}
