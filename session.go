package gapsched

// Incremental scheduling sessions: the facade over internal/incr. A
// Session holds a live instance and keeps its exact solution current
// under job add/remove deltas, re-solving only the fragments a delta
// touched (the rest keep their stored results), with every Resolve
// bit-identical to a from-scratch Solve of the current job set. This
// is the stateful tier the paper's motivating workloads want: devices
// and real-time systems where unit jobs arrive and expire over time.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/sched"
)

// ErrSessionClosed is returned by every operation on a closed Session.
var ErrSessionClosed = errors.New("gapsched: session closed")

// ErrCommitOnly is returned by Remove on online sessions: commitments
// are irrevocable, so the live job set only ever grows.
var ErrCommitOnly = errors.New("gapsched: online session is commit-only")

// ErrReleaseOrder is returned by Add on online sessions when a job
// arrives out of release order (its release precedes an earlier
// arrival's). It is internal/online's sentinel, re-exported.
var ErrReleaseOrder = online.ErrReleaseOrder

// Session is a stateful incremental solver: a live job set plus its
// forced-idle fragment decomposition, maintained under deltas so that
// Resolve re-solves only dirty fragments. Obtain one with
// Solver.Open; it inherits the Solver's objective, alpha, and cache
// configuration. Fragment solves go through the Solver's Cache when
// one is configured, so sessions also reuse fragments solved by
// batches and by each other.
//
// A Session is safe for concurrent use; operations serialize on an
// internal mutex, so a Resolve and a delta never interleave.
type Session struct {
	mu     sync.Mutex
	rt     objectiveRuntime
	solver Solver
	tr     *incr.Tracker[fragResult]
	onl    *online.Scheduler // non-nil for commit-only online sessions
	closed bool
}

// Open starts an incremental session on procs processors (0 means 1)
// with the Solver's configuration. The session decomposes with the
// same split width the one-shot pipeline uses — every forced-idle run
// for ObjectiveGaps, runs of width ≥ Alpha for ObjectivePower — so its
// solutions are bit-identical to from-scratch solves. NoPreprocess
// and Workers do not apply to sessions: incrementality is the
// decomposition, and Resolve solves its dirty fragments sequentially —
// a delta typically dirties one fragment, so there is nothing to fan
// out (for a bulk first solve of a huge job set, Solve the instance
// once, which spreads its fragments over the worker pool, and open the
// session for the churn). Configuration errors are the same ones Solve
// reports.
func (s Solver) Open(procs int) (*Session, error) {
	rt, err := s.runtime()
	if err != nil {
		return nil, err
	}
	if procs == 0 {
		procs = 1
	}
	if procs < 0 {
		return nil, fmt.Errorf("gapsched: session on %d processors, need ≥ 1", procs)
	}
	splitWidth := 1.0
	if s.Objective == ObjectivePower {
		splitWidth = s.Alpha
	}
	return &Session{
		rt:     rt,
		solver: s,
		tr:     incr.New[fragResult](procs, splitWidth),
	}, nil
}

// OpenOnline starts a commit-only online session on procs processors
// (0 means 1): jobs are revealed with Add in release order, each
// arrival irrevocably commits every time unit before its release —
// eager-EDF assignments, with idle periods priced by the α-threshold
// ski-rental rule for ObjectivePower (internal/online) — and Resolve
// returns the online run's schedule over the revealed prefix together
// with its measured competitive ratio against the prefix's offline
// optimum. The offline mirror re-solves through this Solver in
// ModeAuto regardless of s.Mode, so the certificate LowerBound keeps
// the ratio honest even when the prefix outgrows the exact tier.
// Remove returns ErrCommitOnly: the commitments cannot be revisited.
func (s Solver) OpenOnline(procs int) (*Session, error) {
	mirror := s
	mirror.Mode = ModeAuto
	ss, err := mirror.Open(procs)
	if err != nil {
		return nil, err
	}
	if procs == 0 {
		procs = 1
	}
	ss.onl, err = online.NewScheduler(online.Config{
		Procs: procs,
		Alpha: s.Alpha,
		Power: s.Objective == ObjectivePower,
	})
	if err != nil {
		return nil, err
	}
	return ss, nil
}

// Add inserts a job into the live instance and returns its id, the
// handle Remove takes. Ids are assigned in arrival order and never
// reused. Only the fragments whose covered regions the job touches or
// bridges are marked dirty.
//
// On an online session, Add is the revelation step: jobs must arrive
// in non-decreasing release order (ErrReleaseOrder otherwise — the
// rejected job is not admitted), and each Add first commits every time
// unit before the job's release, irrevocably. A commitment that
// misses a deadline makes the session permanently infeasible — Resolve
// keeps returning ErrInfeasible — but later Adds still succeed: the
// revealed job set remains well-defined.
func (ss *Session) Add(j Job) (int, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return 0, ErrSessionClosed
	}
	if !j.Valid() {
		return 0, fmt.Errorf("gapsched: job has empty window [%d,%d]", j.Release, j.Deadline)
	}
	if ss.onl != nil {
		if _, _, err := ss.onl.Step(j.Release, []sched.Job{j}); err != nil {
			return 0, err
		}
	}
	// For online sessions the tracker mirrors the scheduler's job set;
	// both assign sequential ids in arrival order, so the ids agree.
	return ss.tr.Add(j), nil
}

// Remove deletes the job with the given id. Only the fragment that
// contained the job is re-decomposed (it may split); everything else
// keeps its solved result. Online sessions are commit-only and return
// ErrCommitOnly.
func (ss *Session) Remove(id int) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return ErrSessionClosed
	}
	if ss.onl != nil {
		return ErrCommitOnly
	}
	if !ss.tr.Remove(id) {
		return fmt.Errorf("gapsched: session has no job %d", id)
	}
	return nil
}

// Online reports whether the session is commit-only (opened with
// OpenOnline) and, if so, the arrival watermark: the earliest release
// the next Add may carry (math.MinInt before the first Add). Callers
// that need a delta to apply atomically pre-validate arrival order
// against it.
func (ss *Session) Online() (watermark int, online bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed || ss.onl == nil {
		return math.MinInt, false
	}
	return ss.onl.Watermark(), true
}

// Len returns the number of live jobs; 0 after Close.
func (ss *Session) Len() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return 0
	}
	return ss.tr.Len()
}

// Job returns the live job with the given id. Callers that need a
// whole delta to apply atomically (the daemon's /v1/session endpoints)
// use it to verify every removal before mutating anything.
func (ss *Session) Job(id int) (Job, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return Job{}, false
	}
	return ss.tr.Job(id)
}

// Instance snapshots the current job set (jobs in id order) — the
// instance a from-scratch Solve would be handed to reproduce the next
// Resolve exactly, and the one its Schedule validates against. After
// Close it returns the zero Instance, like every other accessor.
func (ss *Session) Instance() Instance {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return Instance{}
	}
	return ss.tr.Instance()
}

// Resolve brings the solution up to date and returns it: dirty
// fragments are re-solved through the engine (and the fragment cache,
// when configured), clean fragments are reused, and costs sum in
// fragment time order, so the result is bit-identical to a
// from-scratch Solve of Instance(). Solution.ResolvedFragments and
// ReusedFragments report the split; infeasibility is ErrInfeasible,
// exactly as Solve reports it. Resolve is ResolveContext with a
// background context.
func (ss *Session) Resolve() (Solution, error) {
	return ss.ResolveContext(context.Background())
}

// ResolveContext is Resolve with observability threading: when ctx
// carries an obs.Trace, every re-solved fragment records its
// backend-tagged span into it. Solution.Timings reports only the work
// this call did — the fragments a delta dirtied — so a no-op Resolve
// reports zero solve time.
func (ss *Session) ResolveContext(ctx context.Context) (Solution, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return Solution{}, ErrSessionClosed
	}
	trace := obs.FromContext(ctx)
	sol := Solution{Mode: ss.solver.Mode}
	cost := 0.0
	schedule, err := ss.tr.Resolve(
		func(fr sched.Instance) fragResult { return ss.solver.solveFragment(ss.rt, fr, trace) },
		func(r *fragResult, reused bool) (sched.Schedule, error) {
			if r.err != nil {
				return sched.Schedule{}, r.err
			}
			use := fragResolved
			if reused {
				use = fragReused
			}
			sol.fold(r, use)
			cost += r.cost
			return r.schedule, nil
		})
	if err != nil {
		return Solution{}, err
	}
	if ss.onl != nil {
		return ss.resolveOnline(sol)
	}
	if err := schedule.Validate(ss.tr.Instance()); err != nil {
		return Solution{}, err
	}
	sol.Schedule = schedule
	ss.rt.finish(&sol, cost)
	return sol, nil
}

// resolveOnline finishes an online Resolve, with the lock held and sol
// folded from the freshly resolved offline mirror (whose Mode is
// ModeAuto). The returned Solution carries the online run's schedule —
// the committed prefix extended by a projected run-out over the
// revealed jobs — its cost, and the measured competitive ratio against
// the mirror's certified LowerBound: onlineCost ≥ OPT ≥ LowerBound, so
// the ratio is ≥ 1 and never understated.
func (ss *Session) resolveOnline(sol Solution) (Solution, error) {
	proj, err := ss.onl.Project()
	if err != nil {
		// By EDF's feasibility-optimality this happens only when the
		// revealed instance itself is infeasible; report it exactly as
		// the offline path does.
		return Solution{}, ErrInfeasible
	}
	if err := proj.Schedule.Validate(ss.tr.Instance()); err != nil {
		return Solution{}, err
	}
	acct := ss.onl.Accounting()
	sol.Schedule = proj.Schedule
	sol.CommittedJobs, sol.CommittedCost = acct.Committed, acct.Cost
	sol.CompetitiveRatio = 1
	ss.rt.finish(&sol, proj.Cost)
	if sol.LowerBound > 0 {
		sol.CompetitiveRatio = proj.Cost / sol.LowerBound
	}
	return sol, nil
}

// Close releases the session: every later mutating or solving call
// returns ErrSessionClosed and the accessors (Len, Instance, Job)
// report an empty session. Close waits for an in-flight operation to
// finish and is idempotent.
func (ss *Session) Close() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.closed = true
}
