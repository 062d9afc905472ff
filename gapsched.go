// Package gapsched is a complete implementation of the algorithms of
//
//	Demaine, Ghodsi, Hajiaghayi, Sayedi-Roshkhar, Zadimoghaddam.
//	"Scheduling to Minimize Gaps and Power Consumption", SPAA 2007.
//
// The package schedules unit-length jobs on one or more processors that
// can sleep at a wake-up cost α, minimizing either the number of
// sleep→active transitions ("gap scheduling") or the total power
// consumption (active time plus α per transition, with idle-active
// bridging of short gaps).
//
// Exact polynomial algorithms (Theorems 1–2):
//
//   - MinimizeGaps — multiprocessor gap scheduling by dynamic
//     programming over interval decompositions.
//   - MinimizePower — the same skeleton for total power, where a
//     processor may stay awake through a gap of length ℓ at cost
//     min(ℓ, α).
//
// Approximation algorithms:
//
//   - ApproxMultiPower — the (1 + (2/3+ε)α)-approximation for
//     multi-interval power minimization (Theorem 3), via shifted-run
//     set packing and augmenting-path completion.
//   - GreedyGapSchedule — the largest-idle-interval-first greedy
//     baseline for one-interval gap scheduling [FHKN06].
//   - MaxThroughput — the O(√n)-approximation for maximum throughput
//     under a bound on the number of restarts (Theorem 11).
//
// Hardness constructions (Theorems 4–10) live in internal/reduction and
// are exercised by the experiment harness (cmd/gapbench); they are
// intentionally not part of the stable facade.
//
// The solvers run through a layered pipeline — preprocessing
// (internal/prep), an optional canonical-fragment solution cache
// (FragmentCache, internal/fragcache), the solving tiers (the unified
// exact DP engine in internal/core and the certified greedy heuristic
// in internal/heur, selected per fragment by Solver.Mode), and this
// facade's Solver, which spreads a batch, or one large instance, over
// the worker pool at fragment granularity — described in DESIGN.md,
// which also documents the objective conventions and the experiment
// tables regenerated by cmd/gapbench. For instances beyond the exact
// tier's reach, ModeHeuristic (or ModeAuto with a state budget)
// returns feasible schedules with certified optimality gaps
// (Solution.LowerBound). For workloads where jobs arrive and expire
// over time, Solver.Open starts an incremental Session (internal/incr)
// that re-solves only the fragments each delta touched, bit-identical
// to from-scratch solving at every step.
package gapsched

import (
	"repro/internal/arith"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/greedysp"
	"repro/internal/multiinterval"
	"repro/internal/power"
	"repro/internal/restart"
	"repro/internal/sched"
)

// Core model types, aliased from internal/sched.
type (
	// Job is a unit task with a one-interval window [Release, Deadline].
	Job = sched.Job
	// Instance is a one-interval instance on Procs processors.
	Instance = sched.Instance
	// Assignment places one job on a processor at a time.
	Assignment = sched.Assignment
	// Schedule assigns every job of an Instance.
	Schedule = sched.Schedule
	// Interval is a closed integer interval.
	Interval = sched.Interval
	// MultiJob is a unit task with an arbitrary allowed-time set.
	MultiJob = sched.MultiJob
	// MultiInstance is a single-machine multi-interval instance.
	MultiInstance = sched.MultiInstance
	// MultiSchedule assigns every job of a MultiInstance a time.
	MultiSchedule = sched.MultiSchedule
)

// GapResult reports a MinimizeGaps solve.
type GapResult struct {
	// Spans is the optimal number of spans (wake-ups) summed over
	// processors.
	Spans int
	// Gaps is Spans−1 (clamped at 0): the idle periods in the
	// concatenated-timeline convention; on one processor this is the
	// classic gap count.
	Gaps int
	// Schedule is an optimal schedule.
	Schedule Schedule
	// States, PrunedStates and ExpandedStates are the exact engine's
	// counters summed over fragments, as in Solution.
	States         int
	PrunedStates   int
	ExpandedStates int
}

// PowerResult reports a MinimizePower solve.
type PowerResult struct {
	// Power is the optimal power consumption: active units plus alpha
	// per sleep→active transition, with idle-active bridging permitted.
	Power float64
	// Schedule is an optimal schedule.
	Schedule Schedule
	// States, PrunedStates and ExpandedStates are the exact engine's
	// counters summed over fragments, as in Solution.
	States         int
	PrunedStates   int
	ExpandedStates int
}

// Result types, aliased from the solver packages.
type (
	// ApproxOptions configures ApproxMultiPower.
	ApproxOptions = multiinterval.Options
	// ApproxStats reports what the approximation pipeline did.
	ApproxStats = multiinterval.Stats
	// GreedyResult reports the [FHKN06] greedy outcome.
	GreedyResult = greedysp.Result
	// ThroughputResult reports a bounded-restart greedy outcome.
	ThroughputResult = restart.Result
	// Timeline is a simulated power-state timeline.
	Timeline = power.Timeline
	// Breakdown itemizes energy use.
	Breakdown = power.Breakdown
)

// ErrInfeasible is returned by the exact solvers when no feasible
// schedule exists.
var ErrInfeasible = core.ErrInfeasible

// NewInstance builds a single-processor one-interval instance.
func NewInstance(jobs []Job) Instance { return sched.NewInstance(jobs) }

// NewMultiprocInstance builds a p-processor one-interval instance.
func NewMultiprocInstance(jobs []Job, p int) Instance { return sched.NewMultiprocInstance(jobs, p) }

// NewMultiJob builds a multi-interval job from intervals (normalized).
func NewMultiJob(ivs ...Interval) MultiJob { return sched.NewMultiJob(ivs...) }

// MultiJobFromTimes builds a multi-interval job from explicit times.
func MultiJobFromTimes(times ...int) MultiJob { return sched.MultiJobFromTimes(times...) }

// MinimizeGaps computes an optimal schedule minimizing the total number
// of spans (sleep→active transitions) on in.Procs processors
// (Theorem 1; with one processor this is Baptiste's classic gap
// minimization, gaps = spans − 1). It runs the full pipeline —
// preprocessing plus the unified engine; use a Solver directly for
// batch solving or to tune the pipeline. Every release and deadline
// must lie within ±3·2⁶¹, and the instance must span at most 3·2⁶¹
// time units (the time-range rule); an instance that breaks the rule
// is rejected with a validation error.
func MinimizeGaps(in Instance) (GapResult, error) {
	sol, err := Solver{Objective: ObjectiveGaps}.Solve(in)
	if err != nil {
		return GapResult{}, err
	}
	return GapResult{Spans: sol.Spans, Gaps: sol.Gaps, Schedule: sol.Schedule, States: sol.States,
		PrunedStates: sol.PrunedStates, ExpandedStates: sol.ExpandedStates}, nil
}

// MinimizePower computes an optimal schedule minimizing total power
// consumption with transition cost alpha, allowing processors to remain
// active through gaps (Theorem 2). Like MinimizeGaps, it runs the full
// Solver pipeline under the same time-range rule, and alpha must lie
// in [0, 2⁵³].
func MinimizePower(in Instance, alpha float64) (PowerResult, error) {
	sol, err := Solver{Objective: ObjectivePower, Alpha: alpha}.Solve(in)
	if err != nil {
		return PowerResult{}, err
	}
	return PowerResult{Power: sol.Power, Schedule: sol.Schedule, States: sol.States,
		PrunedStates: sol.PrunedStates, ExpandedStates: sol.ExpandedStates}, nil
}

// Feasible reports whether the one-interval instance admits any
// feasible schedule (Hall's condition, decided by one EDF sweep in
// O(n log n)). A job with an empty window, or an instance with no
// processors, is infeasible.
func Feasible(in Instance) bool { return feas.FeasibleOneInterval(in) }

// FeasibleMulti reports whether the multi-interval instance admits any
// feasible schedule (maximum matching).
func FeasibleMulti(mi MultiInstance) bool { return feas.FeasibleMulti(mi) }

// EDF returns the eager earliest-deadline-first schedule, the canonical
// online baseline; ok is false when the instance is infeasible.
func EDF(in Instance) (Schedule, bool) { return feas.EDFOneInterval(in) }

// ApproxMultiPower runs the Theorem 3 pipeline on a multi-interval
// instance: shifted-run set packing, scheduling of packed runs, and
// augmenting-path completion, achieving power at most
// (1 + (2/3+ε)α)·OPT.
func ApproxMultiPower(mi MultiInstance, alpha float64, opts ApproxOptions) (MultiSchedule, ApproxStats, error) {
	return multiinterval.ApproxPower(mi, alpha, opts)
}

// AnyMultiSchedule returns an arbitrary feasible schedule via maximum
// matching — the trivial (1+α)-approximation for power.
func AnyMultiSchedule(mi MultiInstance) (MultiSchedule, error) {
	return multiinterval.NaiveSchedule(mi)
}

// GreedyGapSchedule runs the [FHKN06] largest-idle-interval-first
// greedy on a single-processor one-interval instance.
func GreedyGapSchedule(in Instance) (GreedyResult, error) { return greedysp.Solve(in) }

// MaxThroughput runs the Theorem 11 greedy: schedule as many jobs of
// the multi-interval instance as possible using at most maxSpans
// working intervals (restarts).
func MaxThroughput(mi MultiInstance, maxSpans int) (ThroughputResult, error) {
	return restart.Greedy(mi, maxSpans)
}

// Simulate derives the optimal-bridging power-state timeline of a
// schedule under transition cost alpha.
func Simulate(s Schedule, alpha float64) Timeline { return power.Simulate(s, alpha) }

// SimulateMulti derives the timeline of a multi-interval schedule.
func SimulateMulti(ms MultiSchedule, alpha float64) Timeline {
	return power.SimulateMulti(ms, alpha)
}

// LayOut converts a p-processor one-interval instance into the
// equivalent single-machine multi-interval instance of §1 (processor
// timelines laid end to end; each job becomes an arithmetic sequence of
// p intervals). It returns the instance and the layout period.
func LayOut(in Instance) (MultiInstance, int) { return sched.LayOut(in) }

// ArithmeticResult reports an exact solve of a homogeneous arithmetic
// multi-interval instance (§2 corollary of Theorem 1).
type ArithmeticResult = arith.Result

// SolveArithmetic solves a multi-interval instance in which every job's
// intervals form an arithmetic progression with a common term count and
// a common long period, exactly and in polynomial time, by recovering
// the underlying multiprocessor instance (the §2 corollary). It returns
// arith.ErrNotArithmetic or arith.ErrShortPeriod when the structure
// does not apply.
func SolveArithmetic(mi MultiInstance) (ArithmeticResult, error) { return arith.Solve(mi) }
