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

// ErrCommitOnly is returned by any removal on an online session:
// commitments are irrevocable, so the live job set only ever grows.
var ErrCommitOnly = errors.New("gapsched: online session is commit-only")

// ErrReleaseOrder is returned on online sessions when a job arrives
// out of release order (its release precedes an earlier arrival's).
// It is internal/online's sentinel, re-exported.
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
	// commitOnly marks an online session (OpenOnline); watermark is its
	// latest arrival's release, math.MinInt before the first arrival.
	commitOnly bool
	watermark  int
	closed     bool
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
	return &Session{
		rt:     rt,
		solver: s,
		tr:     incr.New[fragResult](procs, rt.splitWidth),
	}, nil
}

// OpenOnline starts a commit-only online session on procs processors
// (0 means 1): jobs are revealed with Apply in release order, each
// arrival irrevocably commits every time unit before its release —
// eager-EDF assignments, with idle periods priced by the α-threshold
// ski-rental rule for ObjectivePower — and Resolve returns the online
// run's schedule over the revealed prefix together with its measured
// competitive ratio against the prefix's offline optimum. The session
// keeps only the watermark: no later arrival is released before it, so
// each Resolve derives the run from the revealed jobs with
// online.Replay. The offline mirror re-solves through this Solver in
// ModeAuto regardless of s.Mode, so the certificate LowerBound keeps
// the ratio honest even when the prefix outgrows the exact tier.
// Removals return ErrCommitOnly: the commitments cannot be revisited.
func (s Solver) OpenOnline(procs int) (*Session, error) {
	mirror := s
	mirror.Mode = ModeAuto
	ss, err := mirror.Open(procs)
	if err != nil {
		return nil, err
	}
	ss.commitOnly, ss.watermark = true, math.MinInt
	return ss, nil
}

// UnknownJobError is returned by Apply and Remove when a removal id is
// not live: never assigned, already removed, or named twice in one
// delta. ID is the offending id.
type UnknownJobError = incr.UnknownJobError

// Apply applies one delta atomically: it removes the jobs with the
// given ids, then adds the given jobs, and returns the added jobs' ids
// (assigned in order, never reused) and the live job count after the
// delta. The whole delta is checked before anything changes; the first
// failing check, in this order, rejects it and leaves the session as
// it was:
//
//   - ErrSessionClosed on a closed session;
//   - ErrCommitOnly for any removal on an online session;
//   - an error naming the first added job with an empty window;
//   - a validation error when the added jobs, together with the jobs
//     live before the delta (those it removes included), break the
//     time-range rule: every time within ±3·2⁶¹, spanning at most
//     3·2⁶¹;
//   - ErrReleaseOrder on an online session, for the first arrival
//     released before the watermark or before an earlier arrival;
//   - *UnknownJobError for a removal id that is not live, or for one
//     named twice.
//
// Each fragment that lost a job is re-decomposed once, and the added
// jobs merge with the fragments they reach in one sweep, so a delta of
// k jobs costs O(k log k) plus the fragments it touches; only those are
// re-solved by the next Resolve. On an online session Apply is the
// revelation step: the watermark moves to the latest arrival's release,
// committing every time unit before it. Once the revealed jobs miss a
// deadline, Resolve keeps returning ErrInfeasible, but later arrivals
// are still admitted.
func (ss *Session) Apply(add []Job, remove []int) (ids []int, live int, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, 0, ErrSessionClosed
	}
	if ss.commitOnly && len(remove) > 0 {
		return nil, 0, ErrCommitOnly
	}
	for i, j := range add {
		if !j.Valid() {
			return nil, 0, fmt.Errorf("gapsched: added job %d has empty window [%d,%d]", i, j.Release, j.Deadline)
		}
	}
	if len(add) > 0 {
		lo, hi := Instance{Jobs: add}.TimeHorizon()
		if ss.tr.Len() > 0 {
			liveLo, liveHi := ss.tr.Horizon()
			lo, hi = min(lo, liveLo), max(hi, liveHi)
		}
		if err := sched.CheckHorizon(lo, hi); err != nil {
			return nil, 0, err
		}
	}
	watermark := ss.watermark
	if ss.commitOnly {
		for i, j := range add {
			if j.Release < watermark {
				return nil, 0, fmt.Errorf("%w: job %d [%d,%d] arrives after time %d", ErrReleaseOrder, i, j.Release, j.Deadline, watermark)
			}
			watermark = j.Release
		}
	}
	if ids, err = ss.tr.Apply(add, remove); err != nil {
		return nil, 0, fmt.Errorf("gapsched: %w", err)
	}
	ss.watermark = watermark
	return ids, ss.tr.Len(), nil
}

// Add inserts one job, a one-job Apply, and returns its id.
func (ss *Session) Add(j Job) (int, error) {
	ids, _, err := ss.Apply([]Job{j}, nil)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Remove deletes the job with the given id, a one-removal Apply.
func (ss *Session) Remove(id int) error {
	_, _, err := ss.Apply(nil, []int{id})
	return err
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
	in := ss.tr.Instance()
	if ss.commitOnly {
		return ss.resolveOnline(sol, in)
	}
	if err := schedule.Validate(in); err != nil {
		return Solution{}, err
	}
	sol.Schedule = schedule
	ss.rt.finish(&sol, cost)
	return sol, nil
}

// resolveOnline finishes an online Resolve, with the lock held, sol
// folded from the freshly resolved offline mirror (whose Mode is
// ModeAuto) and in the revealed jobs in arrival order. The returned
// Solution carries the online run's schedule — the committed prefix
// extended by the run-out over the revealed jobs — its cost, and the
// measured competitive ratio against the mirror's certified
// LowerBound: onlineCost ≥ OPT ≥ LowerBound, so the ratio is ≥ 1 and
// never understated.
func (ss *Session) resolveOnline(sol Solution, in Instance) (Solution, error) {
	run, err := online.Replay(in, ss.watermark, ss.solver.Alpha, ss.solver.Objective == ObjectivePower)
	if err != nil {
		// By EDF's feasibility-optimality this happens only when the
		// revealed instance itself is infeasible; report it exactly as
		// the offline path does.
		return Solution{}, ErrInfeasible
	}
	if err := run.Schedule.Validate(in); err != nil {
		return Solution{}, err
	}
	sol.Schedule = run.Schedule
	sol.CommittedJobs, sol.CommittedCost = run.CommittedJobs, run.CommittedCost
	sol.CompetitiveRatio = 1
	// The run is not assembled from the mirror's fragments, so its span
	// count replaces the one fold summed.
	sol.Spans = ss.rt.spans(run.Cost, run.Schedule)
	ss.rt.finish(&sol, run.Cost)
	if sol.LowerBound > 0 {
		sol.CompetitiveRatio = run.Cost / sol.LowerBound
	}
	return sol, nil
}

// Close releases the session: every later mutating or solving call
// returns ErrSessionClosed and the accessors (Len, Instance) report an
// empty session. Close waits for an in-flight operation to
// finish and is idempotent.
func (ss *Session) Close() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.closed = true
}
