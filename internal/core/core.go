// Package core implements the paper's primary contribution: exact
// polynomial-time dynamic programs for multiprocessor gap scheduling
// (Theorem 1) and multiprocessor power minimization (Theorem 2).
//
// Both programs share one skeleton, the interval decomposition that
// Demaine et al. build on top of Baptiste's single-machine DP [Bap06]:
//
//   - Lemma 1/2 (staircase form): some optimal solution occupies, at
//     every time, a prefix of the processors; only the occupancy
//     (resp. active-count) profile l_t matters, and the objective is the
//     number of profile span-starts Σ_u (l_u − l_{u−1})_+ — the total
//     number of sleep→active transitions. (See DESIGN.md §1 for why
//     transitions, not per-processor finite gaps, is the consistent
//     objective; on one processor gaps = spans − 1.)
//
//   - Subproblem identity: C(t1, t2, k, ℓ1, ℓ2, c2) schedules
//     J(t1,t2,k) — the k earliest-deadline jobs among those released in
//     [t1, t2] — inside [t1, t2], where ℓ1/ℓ2 pin the boundary profile
//     levels and c2 counts "context" jobs stacked at t2 by ancestors
//     (the paper's q). Recursing on the latest-deadline job j_k placed
//     at a guessed time t′ (maximal over optimal solutions, so jobs
//     scheduled after t′ are released after t′) splits the problem into
//     [t1, t′] and [t′+1, t2], and both children's job sets are again
//     deadline-prefixes of release windows.
//
//   - Candidate times: by the span-anchoring argument (Baptiste's
//     Prop 2.1 extended to profiles, and to the power objective via
//     concavity of gap-bridging costs in the shift), some optimal
//     solution only executes jobs at times within distance n of a
//     release or a deadline, an O(n²)-size grid.
//
// Every boundary u (the span-start/active-unit charge between times u−1
// and u) is owned by exactly one node of the recursion tree: a node
// owns u ∈ (t1, t2], delegates (t1, t′] to its left child and
// (t′+1, t2] minus {t′+1} to its right child, and pays for u = t′+1
// itself.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/feas"
	"repro/internal/heur"
	"repro/internal/prep"
	"repro/internal/sched"
)

// ErrInfeasible is returned when the instance admits no feasible
// schedule.
var ErrInfeasible = errors.New("core: instance is infeasible")

// base holds the instance view shared by every engine instantiation.
type base struct {
	jobs []sched.Job
	p    int
	byDL []int // all job indices in (deadline, release, index) order
	grid []int // candidate execution times, sorted ascending
	rel  []int // rel[j] is the grid index of job j's release

	lists map[[2]int][]int // (t1,t2) → R(t1,t2) in deadline order
}

// newBase builds the engine's instance view. The candidate grid is the
// anchor grid (prep.Grid), or every integer time of the horizon under
// fullGrid; both contain every release, which rel indexes.
func newBase(in sched.Instance, fullGrid bool) *base {
	b := &base{
		jobs:  in.Jobs,
		p:     in.Procs,
		byDL:  in.SortedByDeadline(),
		rel:   make([]int, len(in.Jobs)),
		lists: make(map[[2]int][]int),
	}
	// No schedule ever occupies more than n processors at once, and no
	// optimal profile rises above the busiest time, so capping p at n
	// preserves the optimum while shrinking the level dimensions of the
	// memo table.
	if b.p > len(in.Jobs) {
		b.p = len(in.Jobs)
	}
	if fullGrid {
		lo, hi := in.TimeHorizon()
		b.grid = make([]int, 0, hi-lo+1)
		for t := lo; t <= hi; t++ {
			b.grid = append(b.grid, t)
		}
	} else {
		b.grid = prep.Grid(in)
	}
	for j, job := range in.Jobs {
		b.rel[j] = sort.SearchInts(b.grid, job.Release)
	}
	return b
}

// root is the subproblem covering the whole horizon with every job.
func (b *base) root() node { return node{i1: 0, i2: len(b.grid), k: len(b.jobs)} }

// list returns the deadline-ordered global job indices released in
// [t1, t2], cached per interval.
func (b *base) list(t1, t2 int) []int {
	key := [2]int{t1, t2}
	if l, ok := b.lists[key]; ok {
		return l
	}
	l := []int{}
	for _, j := range b.byDL {
		if a := b.jobs[j].Release; t1 <= a && a <= t2 {
			l = append(l, j)
		}
	}
	b.lists[key] = l
	return l
}

// gridRange returns the half-open index range of grid times within
// [lo, hi].
func (b *base) gridRange(lo, hi int) (int, int) {
	return sort.SearchInts(b.grid, lo), sort.SearchInts(b.grid, hi+1)
}

// pendingCounts fills pend[gi−giLo], for every grid index gi in
// [giLo, giHi), with the i of the recurrence at t′ = grid[gi]: the
// number of the first k−1 jobs of list released strictly after t′, which
// must go to the right subproblem when j_k is placed there. pend has
// length giHi − giLo. Releases lie on the grid, so one pass buckets them
// by grid index and a suffix sum turns the buckets into counts:
// O(k + giHi − giLo) for the whole range.
func (b *base) pendingCounts(list []int, k, giLo, giHi int, pend []int) {
	clear(pend)
	after := 0 // released after grid[giHi−1]
	for _, j := range list[:k-1] {
		switch r := b.rel[j]; {
		case r >= giHi:
			after++
		case r >= giLo:
			pend[r-giLo]++
		}
	}
	for x := len(pend) - 1; x >= 0; x-- {
		pend[x], after = after, after+pend[x]
	}
}

// choice kinds recorded for reconstruction. choiceUnset must stay zero:
// the flat memo table treats a zero entry as "not yet computed".
const (
	choiceUnset  = iota // memo slot never written
	choiceNone          // infeasible
	choiceEmpty         // base case, no own jobs
	choicePoint         // base case t1 == t2, all k jobs at t1
	choiceA             // j_k placed at t2 (paper case t′ = t2)
	choiceB             // j_k placed at t′ < t2, split into two children
	choicePruned        // cut by branch and bound; cost holds the budget
)

// Objective selects what Solve minimizes: the total span count
// (Theorem 1) when Power is false, else total power under transition
// cost Alpha (Theorem 2), where processors may stay active through a
// gap (bridging) and the optimum bridges exactly the gaps shorter than
// Alpha. The span objective ignores Alpha.
type Objective struct {
	Power bool
	Alpha float64
}

// Price returns s's cost under the objective, in its own units: the
// span count (as a float) for gaps, the power with optimal bridging
// for power.
func (o Objective) Price(s sched.Schedule) float64 {
	if o.Power {
		return s.PowerCost(o.Alpha)
	}
	return float64(s.Spans())
}

// Options tunes the engine for ablation experiments (E15, E21). The
// zero value is the production configuration.
type Options struct {
	// FullGrid replaces the anchor candidate grid (release/deadline
	// neighbourhoods, Baptiste's Prop 2.1) with every integer time of
	// the horizon. The optimum is unchanged; the state count grows. The
	// power objective ignores it.
	FullGrid bool

	// NoPrune disables branch-and-bound pruning (no greedy incumbent, no
	// per-node bound checks). The optimum and the reconstructed schedule
	// are identical either way — pruning only skips subproblems that
	// provably cannot improve on the incumbent — so this exists for
	// ablation and for the fuzz lanes that certify that identity.
	NoPrune bool
}

// Result reports the outcome of an exact solve.
type Result struct {
	// Cost is the optimum in the objective's units: the span count (as
	// a float) for gaps, the power consumption for power.
	Cost float64
	// Schedule is an optimal schedule in staircase form.
	Schedule sched.Schedule
	// States is the number of memoized subproblems, a measure of the
	// DP's effective size.
	States int
	// PrunedStates counts subproblems answered by the branch-and-bound
	// lower bound (or a memoized prune marker) without being expanded;
	// 0 when pruning is disabled.
	PrunedStates int
	// ExpandedStates counts subproblems the recursion actually expanded.
	ExpandedStates int
}

var errInvalidAlpha = errors.New("core: transition cost alpha is outside [0, 2^53]")

// Solve computes an optimal schedule of the one-interval p-processor
// instance in under obj. It runs the steps every objective shares
// around the engine: validation (the instance, its time range —
// sched.Instance.CheckTimes — and then the alpha), the
// empty-instance and infeasibility shortcuts (the EDF sweep decides
// Hall's condition, independently of the greedy), the greedy
// incumbent, priced by obj, that seeds the branch-and-bound budget, the
// engine run with its defensive unbounded retry, and the staircase
// layout plus validation of the schedule. It returns ErrInfeasible
// when no feasible schedule exists.
func Solve(in sched.Instance, obj Objective, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if err := in.CheckTimes(); err != nil {
		return Result{}, err
	}
	if obj.Power && !sched.ValidAlpha(obj.Alpha) {
		return Result{}, errInvalidAlpha
	}
	n := len(in.Jobs)
	if n == 0 {
		return Result{Schedule: sched.Schedule{Procs: in.Procs}}, nil
	}
	if !feas.FeasibleOneInterval(in) {
		return Result{}, ErrInfeasible
	}
	b := newBase(in, opts.FullGrid && !obj.Power)
	budget := infinite
	if !opts.NoPrune {
		if s, err := heur.Greedy(in); err == nil {
			// One ulp above the incumbent: a node is cut only when its
			// bound strictly exceeds every cost the incumbent still
			// allows, so an optimum equal to it is found exactly.
			budget = math.Nextafter(obj.Price(s), infinite)
		}
	}
	r := Result{Schedule: sched.Schedule{Procs: in.Procs, Slots: make([]sched.Assignment, n)}}
	var placed int
	if obj.Power {
		placed = search(b, powerModel{p: b.p, alpha: obj.Alpha}, budget, &r)
	} else {
		placed = search(b, gapModel{p: b.p}, budget, &r)
	}
	if placed < 0 {
		// Cannot happen after the feasibility pre-check; defensive.
		return Result{}, ErrInfeasible
	}
	if placed != n {
		return Result{}, fmt.Errorf("core: reconstruction placed %d of %d jobs", placed, n)
	}
	r.Schedule = r.Schedule.Staircase()
	if err := r.Schedule.Validate(in); err != nil {
		return Result{}, err
	}
	return r, nil
}

// search runs the engine for model m: a run under the branch-and-bound
// budget, the defensive unbounded retry, and the replay of the optimal
// choices into the times of r.Schedule's slots. It fills r's cost and
// counts and returns the number of jobs placed, or -1 when no schedule
// was found. The memo table goes back to its pool before it returns.
func search[M costModel](b *base, m M, budget float64, r *Result) int {
	e := newEngine(b, m)
	defer e.memo.release()
	root := b.root()
	cost := e.dp(root, budget)
	if cost >= infinite && budget < infinite {
		// Defensive: the greedy cost upper-bounds the optimum, so a
		// bounded run cannot come back empty unless the incumbent was
		// somehow below it (conceivable only through float
		// summation-order effects in the greedy's cost); re-solve
		// unbounded rather than misreport infeasibility.
		cost = e.dp(root, infinite)
	}
	if cost >= infinite {
		return -1
	}
	r.Cost, r.States, r.PrunedStates, r.ExpandedStates = cost, e.memo.entries(), e.pruned, e.expanded
	return e.rebuild(root, r.Schedule.Slots)
}
