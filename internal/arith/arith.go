// Package arith implements the corollary of Theorem 1 stated in §2: a
// polynomial-time exact algorithm for multi-interval gap scheduling
// when every job's allowed intervals form a homogeneous arithmetic
// progression — the same number of terms p and the same (long) period x
// for all jobs, with every base interval inside one period window.
//
// Such instances are exactly the laid-out form of a p-processor
// one-interval instance: interval q of a job is its window on processor
// q, shifted by q·x. Detect recovers the base instance; Solve maps it
// through the Theorem 1 DP and translates the optimal schedule back to
// the single timeline. The span optimum is preserved because the period
// is long enough that processor segments never touch (the paper's "each
// processor runs for less than x units").
//
// The paper contrasts this tractable case with its own hardness
// results: with *different* (and possibly small) periods, even two-unit
// arithmetic instances are inapproximable within any constant factor
// (§5.3) — experiment E8 exercises that side.
package arith

import (
	"errors"

	"repro/internal/core"
	"repro/internal/sched"
)

// ErrNotArithmetic is returned when the instance is not a homogeneous
// arithmetic progression family.
var ErrNotArithmetic = errors.New("arith: instance is not a homogeneous arithmetic family")

// ErrShortPeriod is returned when the common period is too short for
// the layout equivalence (segments could touch, so the multiprocessor
// optimum may differ from the timeline optimum).
var ErrShortPeriod = errors.New("arith: period too short — processor segments could touch")

// Detect checks whether every job's intervals are I_j, I_j+x, …,
// I_j+(p−1)x for common p and x, and whether all base intervals fit
// strictly inside one period. On success it returns the base
// p-processor instance and the period.
func Detect(mi sched.MultiInstance) (sched.Instance, int, error) {
	if mi.N() == 0 {
		return sched.Instance{Procs: 1}, 1, nil
	}
	p := len(mi.Jobs[0].Intervals)
	if p == 0 {
		return sched.Instance{}, 0, ErrNotArithmetic
	}
	jobs := make([]sched.Job, mi.N())
	x := 0
	for j, job := range mi.Jobs {
		if len(job.Intervals) != p {
			return sched.Instance{}, 0, ErrNotArithmetic
		}
		base := job.Intervals[0]
		jobs[j] = sched.Job{Release: base.Lo, Deadline: base.Hi}
		for q := 1; q < p; q++ {
			iv := job.Intervals[q]
			if iv.Hi-iv.Lo != base.Hi-base.Lo {
				return sched.Instance{}, 0, ErrNotArithmetic
			}
			step := iv.Lo - job.Intervals[q-1].Lo
			if step <= 0 {
				return sched.Instance{}, 0, ErrNotArithmetic
			}
			if x == 0 && q == 1 && j == 0 {
				x = step
			}
			if step != x {
				return sched.Instance{}, 0, ErrNotArithmetic
			}
		}
	}
	if p == 1 {
		// Degenerate: a plain one-interval instance; any period works.
		in := sched.Instance{Jobs: jobs, Procs: 1}
		return in, 1, nil
	}
	in := sched.Instance{Jobs: jobs, Procs: p}
	lo, hi := in.TimeHorizon()
	if width := hi - lo + 1; x < width+1 {
		return sched.Instance{}, 0, ErrShortPeriod
	}
	return in, x, nil
}

// Result reports an exact arithmetic-instance solve.
type Result struct {
	// Schedule is the optimal timeline schedule.
	Schedule sched.MultiSchedule
	// Spans is the optimal span (wake-up) count.
	Spans int
	// Base is the recovered p-processor instance; Period its layout
	// period.
	Base   sched.Instance
	Period int
}

// Solve solves a homogeneous arithmetic multi-interval instance exactly
// by recovering the base multiprocessor instance, running the Theorem 1
// DP, and mapping the schedule back: processor q's execution at time t
// becomes timeline time t + q·x.
func Solve(mi sched.MultiInstance) (Result, error) {
	base, x, err := Detect(mi)
	if err != nil {
		return Result{}, err
	}
	res, err := core.Solve(base, core.Objective{}, core.Options{})
	if err != nil {
		return Result{}, err
	}
	out := Result{Base: base, Period: x, Spans: int(res.Cost)}
	out.Schedule = sched.MultiSchedule{Times: make([]int, mi.N())}
	for j, a := range res.Schedule.Slots {
		out.Schedule.Times[j] = a.Time + a.Proc*x
	}
	if mi.N() > 0 {
		if err := out.Schedule.Validate(mi); err != nil {
			return Result{}, err
		}
	}
	return out, nil
}
