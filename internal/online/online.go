// Package online is the online scheduling tier. Jobs are revealed in
// release order, and every time unit before the latest arrival's
// release is committed irrevocably: eager-EDF assignments, with each
// processor's idle periods priced by the α-threshold ski-rental rule of
// internal/powerdown (τ = α, in the spirit of Chen–Kao–Lee–Rutter–
// Wagner's online power management). Because no later arrival can be
// released before the latest one, that run is a pure function of the
// revealed jobs and the watermark, and Replay derives it from one EDF
// sweep; the facade's Solver.OpenOnline keeps the watermark and
// measures the run's competitive ratio live against the offline
// optimum of the revealed prefix.
//
// The package started as — and still contains — the paper's §1
// demonstration that one-interval gap scheduling is bleak online: any
// algorithm that guarantees feasibility must schedule eagerly
// (earliest-deadline-first, never idling while work is pending), and on
// the adversarial family LB(n) it pays Ω(n) spans while the offline
// optimum needs one. That Ω(n) is intrinsic, which is why the tier
// reports measured ratios instead of promising constant ones for gaps;
// the power objective's idle decisions, by contrast, follow the
// 2-competitive ski-rental threshold rule.
package online

import (
	"errors"
	"slices"

	"repro/internal/feas"
	"repro/internal/powerdown"
	"repro/internal/sched"
	"repro/internal/workload"
)

// ErrInfeasible is returned when the instance admits no feasible
// schedule.
var ErrInfeasible = errors.New("online: instance is infeasible")

// ErrReleaseOrder rejects an arrival that violates the online
// contract: jobs are revealed in non-decreasing release order, so no
// arrival may be released before an earlier one.
var ErrReleaseOrder = errors.New("online: arrival out of release order")

// EDF runs the eager earliest-deadline-first rule, the canonical correct
// online algorithm: at every time unit it executes the released,
// unfinished jobs with the earliest deadlines (up to p of them), never
// idling while work is pending.
func EDF(in sched.Instance) (sched.Schedule, error) {
	s, ok := feas.EDFOneInterval(in)
	if !ok {
		return sched.Schedule{}, ErrInfeasible
	}
	return s, nil
}

// Run is the online run over a revealed prefix: the committed units
// before the watermark together with the run-out the scheduler would
// commit if no further job arrived.
type Run struct {
	// Schedule places every revealed job, slots in arrival order.
	Schedule sched.Schedule
	// Cost is the run's span count (gaps objective) or energy (power).
	Cost float64
	// CommittedJobs counts the jobs placed before the watermark, and
	// CommittedCost is Cost's running total over their units: an idle
	// period is priced by the busy unit that closes it, so a trailing
	// idle run is not charged yet.
	CommittedJobs int
	CommittedCost float64
}

// Replay derives the online run over in, whose jobs must be listed in
// arrival order — then EDF's (deadline, index) tie-break is the online
// scheduler's (deadline, arrival) one. Every unit before watermark,
// the latest arrival's release, is committed: no job revealed later is
// released before it, so the EDF schedule of the revealed jobs already
// holds those units. The busy units are priced in commit order, by time
// and then processor, so the float sums are those of a run committed
// unit by unit: a processor's first busy unit costs α + 1, a unit right
// after a busy one costs 1, and a unit that closes an idle run of
// length g costs the ski-rental price of g plus 1; each first unit and
// each closing unit opens a span. power selects energy as the cost,
// otherwise spans. An infeasible prefix returns ErrInfeasible; since
// the job set only grows, every longer prefix does too.
func Replay(in sched.Instance, watermark int, alpha float64, power bool) (Run, error) {
	if len(in.Jobs) == 0 {
		return Run{Schedule: sched.Schedule{Procs: in.Procs}}, nil
	}
	s, err := EDF(in)
	if err != nil {
		return Run{}, err
	}
	// EDF runs each time's units on processors 0, 1, … in priority
	// order, so the sorted busy times are the commit order: the k-th
	// unit at a time runs on processor k.
	times := make([]int, len(s.Slots))
	for i, a := range s.Slots {
		times[i] = a.Time
	}
	slices.Sort(times)
	// No time runs more units than there are jobs, so only the first
	// min(Procs, n) processors can run at all.
	procs := min(s.Procs, len(times))
	last := make([]int, procs)  // per processor, its latest busy unit
	used := make([]bool, procs) // per processor, whether it ran at all
	spans, energy := 0, 0.0
	cost := func() float64 {
		if power {
			return energy
		}
		return float64(spans)
	}
	run := Run{Schedule: s}
	q := 0
	for i, t := range times {
		if i > 0 && times[i-1] == t {
			q++
		} else {
			q = 0
		}
		switch {
		case !used[q]:
			spans++
			energy += alpha + 1
		case last[q] == t-1:
			energy++
		default:
			spans++
			energy += powerdown.SkiRental{}.Cost(t-1-last[q], alpha) + 1
		}
		used[q], last[q] = true, t
		if t < watermark {
			run.CommittedJobs, run.CommittedCost = i+1, cost()
		}
	}
	run.Cost = cost()
	return run, nil
}

// LowerBoundReport compares eager EDF against the known offline optimum
// on the adversarial family LB(n) of §1.
type LowerBoundReport struct {
	N            int
	OnlineSpans  int
	OfflineSpans int // 1 analytically: the tight jobs' idle units absorb the flexible jobs
	Ratio        float64
}

// LowerBound builds workload.OnlineLowerBound(n), runs EDF, and reports
// the competitive ratio against the offline optimum.
//
// Offline, the n flexible jobs [0, 3n] fit exactly into the n idle units
// n+1, n+3, …, 3n−1 interleaving the tight jobs at n, n+2, …, 3n−2, so
// the whole schedule is one span. Eager EDF instead runs the flexible
// jobs during [0, n); that block merges with the first tight job at
// time n, and the remaining n−1 tight jobs each sit in isolation: n
// spans in total, a competitive ratio of n. (The offline optimum is
// re-verified against the exact DP for small n in tests.)
func LowerBound(n int) (LowerBoundReport, error) {
	in := workload.OnlineLowerBound(n)
	s, err := EDF(in)
	if err != nil {
		return LowerBoundReport{}, err
	}
	online := s.Spans()
	return LowerBoundReport{
		N:            n,
		OnlineSpans:  online,
		OfflineSpans: 1,
		Ratio:        float64(online),
	}, nil
}
