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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/feas"
	"repro/internal/heur"
	"repro/internal/prep"
	"repro/internal/sched"
)

// ErrInfeasible is returned when the instance admits no feasible
// schedule.
var ErrInfeasible = errors.New("core: instance is infeasible")

// base is the engine's view of one fragment: the candidate grid, the
// interval endpoint tables and the interval index. Its arrays belong to
// a workspace and are rebuilt in place for every fragment.
type base struct {
	jobs []sched.Job
	p    int
	byDL []int // all job indices in (deadline, release, index) order
	grid []int // candidate execution times, sorted ascending
	rel  []int // rel[j] is the grid index of job j's release
	dlx  []int // dlx[j] is the number of grid times at or before job j's deadline

	anchors []int // storage for prep.AppendGrid's sorted anchors

	// t1val[i] is the left endpoint encoded by index i: t1val[0] is the
	// virtual start (grid[0]−1) and t1val[g+1] is grid[g]+1, the right
	// child's start after a split at grid[g]. t2val[g] is grid[g] and
	// t2val[G] is the virtual end (grid[G−1]+1). Both lists are strictly
	// increasing, so index pairs identify intervals uniquely.
	t1val, t2val []int

	// The interval index. Node (i1, i2) owns the jobs whose release
	// grid index lies in [i1, min(i2, G−1)], in byDL order. rank[gi]
	// (gi ∈ [0, G]) is the number of distinct release grid indices
	// below gi, so a node's jobs are those whose release rank lies in
	// [rank[i1], rank[min(i2+1, G)]). below[q·cols + c] is the number
	// of jobs of byDL[:q] whose release rank is below c, for q ∈ [0, n]
	// and c ∈ [0, R] with R ≤ n distinct releases: (n+1)(R+1) counts,
	// sized by the releases rather than by the grid, which can hold
	// O(n²) times.
	rank  []int32
	below []int32
	cols  int // R + 1
}

// reset rebuilds b for in, reusing b's arrays. The candidate grid is
// the anchor grid (prep.AppendGrid), or every integer time of the
// horizon under fullGrid; both contain every release, which rel
// indexes.
func (b *base) reset(in sched.Instance, fullGrid bool) {
	n := len(in.Jobs)
	b.jobs = in.Jobs
	// No schedule ever occupies more than n processors at once, and no
	// optimal profile rises above the busiest time, so capping p at n
	// preserves the optimum while shrinking the level dimensions of the
	// memo table.
	b.p = min(in.Procs, n)
	b.byDL = resize(b.byDL, n)
	for j := range b.byDL {
		b.byDL[j] = j
	}
	slices.SortFunc(b.byDL, func(x, y int) int {
		a, c := in.Jobs[x], in.Jobs[y]
		if a.Deadline != c.Deadline {
			return cmp.Compare(a.Deadline, c.Deadline)
		}
		if a.Release != c.Release {
			return cmp.Compare(a.Release, c.Release)
		}
		return cmp.Compare(x, y)
	})

	if fullGrid {
		lo, hi := in.TimeHorizon()
		b.grid = slices.Grow(b.grid[:0], hi-lo+1)
		// Stop at hi before incrementing: t <= hi holds for every t
		// when hi is MaxInt.
		for t := lo; ; t++ {
			b.grid = append(b.grid, t)
			if t == hi {
				break
			}
		}
	} else {
		b.grid, b.anchors = prep.AppendGrid(b.grid[:0], b.anchors, in)
	}
	g := len(b.grid)
	b.t1val, b.t2val = resize(b.t1val, g+1), resize(b.t2val, g+1)
	b.t1val[0] = b.grid[0] - 1
	for i, t := range b.grid {
		b.t1val[i+1] = t + 1
		b.t2val[i] = t
	}
	b.t2val[g] = b.grid[g-1] + 1

	b.rel, b.dlx = resize(b.rel, n), resize(b.dlx, n)
	b.rank = resize(b.rank, g+1)
	clear(b.rank)
	for j, job := range in.Jobs {
		r := sort.SearchInts(b.grid, job.Release)
		d := sort.SearchInts(b.grid, job.Deadline)
		if d < g && b.grid[d] == job.Deadline {
			d++
		}
		b.rel[j], b.dlx[j] = r, d
		b.rank[r+1] = 1 // release index r is taken; summed below
	}
	for gi := 1; gi <= g; gi++ {
		b.rank[gi] += b.rank[gi-1]
	}
	b.cols = int(b.rank[g]) + 1
	b.below = resize(b.below, (n+1)*b.cols)
	clear(b.below[:b.cols])
	for q, j := range b.byDL {
		prev, row := b.below[q*b.cols:(q+1)*b.cols], b.below[(q+1)*b.cols:(q+2)*b.cols]
		c := int(b.rank[b.rel[j]]) + 1 // the first column that counts job j
		copy(row[:c], prev[:c])
		for x := c; x < b.cols; x++ {
			row[x] = prev[x] + 1
		}
	}
}

// root is the subproblem covering the whole horizon with every job.
func (b *base) root() node { return node{i1: 0, i2: len(b.grid), k: len(b.jobs)} }

// columns returns the release-rank range [lo, hi) of the jobs node
// interval (i1, i2) owns, for i1 ≤ i2.
func (b *base) columns(i1, i2 int) (lo, hi int) {
	return int(b.rank[i1]), int(b.rank[min(i2+1, len(b.grid))])
}

// count returns how many jobs of byDL[:q] have release ranks in
// [lo, hi): one table difference.
func (b *base) count(q, lo, hi int) int {
	row := b.below[q*b.cols : (q+1)*b.cols]
	return int(row[hi] - row[lo])
}

// kth returns the position in byDL of the k-th job (k ≥ 1) whose
// release rank lies in [lo, hi), by binary search over the prefixes:
// the smallest q with count(q+1, lo, hi) = k. The caller guarantees
// k ≤ count(n, lo, hi). Of the jobs before it, count(q, lo, hi) = k−1
// lie in the range.
func (b *base) kth(k, lo, hi int) int {
	a, z := k-1, len(b.byDL)-1
	for a < z {
		m := int(uint(a+z) >> 1)
		if b.count(m+1, lo, hi) >= k {
			z = m
		} else {
			a = m + 1
		}
	}
	return a
}

// resize returns buf with length n, reusing its storage when it is
// large enough; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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
	// LowerBound is a certified lower bound on the optimum, in Cost's
	// units: Cost itself for Solve, the internal/heur certificate for
	// Greedy.
	LowerBound float64
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
// layout plus validation of the schedule. Everything from the greedy
// on runs in a workspace from the free list, so a solve after warm-up
// allocates none of the engine's buffers. It returns ErrInfeasible
// when no feasible schedule exists.
func Solve(in sched.Instance, obj Objective, opts Options) (Result, error) {
	if err := validate(in, obj); err != nil {
		return Result{}, err
	}
	n := len(in.Jobs)
	if n == 0 {
		return Result{Schedule: sched.Schedule{Procs: in.Procs}}, nil
	}
	if !feas.FeasibleOneInterval(in) {
		return Result{}, ErrInfeasible
	}
	w := getWorkspace()
	defer putWorkspace(w)
	w.reset(in, opts.FullGrid && !obj.Power)
	budget := infinite
	if !opts.NoPrune {
		if s, err := w.greedy.Greedy(in); err == nil {
			// One ulp above the incumbent: a node is cut only when its
			// bound strictly exceeds every cost the incumbent still
			// allows, so an optimum equal to it is found exactly.
			budget = math.Nextafter(obj.Price(s), infinite)
		}
	}
	var r Result
	w.placed = resize(w.placed, n)
	clear(w.placed)
	var placed int
	if obj.Power {
		placed = search(w, powerModel{p: w.p, alpha: obj.Alpha}, budget, &r)
	} else {
		placed = search(w, gapModel{p: w.p}, budget, &r)
	}
	if placed < 0 {
		// Cannot happen after the feasibility pre-check; defensive.
		return Result{}, ErrInfeasible
	}
	if placed != n {
		return Result{}, fmt.Errorf("core: reconstruction placed %d of %d jobs", placed, n)
	}
	// Staircase copies the slots, so the result shares nothing with w.
	r.Schedule = sched.Schedule{Procs: in.Procs, Slots: w.placed}.Staircase()
	if err := r.Schedule.Validate(in); err != nil {
		return Result{}, err
	}
	r.LowerBound = r.Cost
	return r, nil
}

// Greedy serves in on the heuristic tier under obj, with Solve's
// validation: the internal/heur greedy schedule, checked against in,
// priced by obj, and certified by the internal/heur bound in
// Result.LowerBound, which the greedy's own index yields without
// sorting the jobs again. The state counts are 0. The greedy runs in a
// workspace from the free list, like Solve's incumbent, and the result
// shares nothing with it. It returns ErrInfeasible when no feasible
// schedule exists.
func Greedy(in sched.Instance, obj Objective) (Result, error) {
	if err := validate(in, obj); err != nil {
		return Result{}, err
	}
	w := getWorkspace()
	defer putWorkspace(w)
	s, err := w.greedy.Greedy(in)
	if errors.Is(err, heur.ErrInfeasible) {
		return Result{}, ErrInfeasible
	}
	if err != nil {
		return Result{}, err
	}
	s.Slots = slices.Clone(s.Slots)
	if err := s.Validate(in); err != nil {
		return Result{}, err
	}
	r := Result{Cost: obj.Price(s), Schedule: s}
	if obj.Power {
		r.LowerBound = w.greedy.PowerLB(obj.Alpha)
	} else {
		r.LowerBound = float64(w.greedy.SpanLB())
	}
	return r, nil
}

// validate applies the checks Solve and Greedy share: the instance,
// its time range (sched.Instance.CheckTimes) and then the alpha.
func validate(in sched.Instance, obj Objective) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if err := in.CheckTimes(); err != nil {
		return err
	}
	if obj.Power && !sched.ValidAlpha(obj.Alpha) {
		return errInvalidAlpha
	}
	return nil
}

// search runs the engine for model m on w's fragment: a run under the
// branch-and-bound budget, the defensive unbounded retry, and the
// replay of the optimal choices into the times of w.placed. It fills
// r's cost and counts and returns the number of jobs placed, or -1 when
// no schedule was found. The memo storage goes back to w before it
// returns.
func search[M costModel](w *workspace, m M, budget float64, r *Result) int {
	var e engine[M]
	e.init(w, m)
	defer e.memo.release()
	root := w.root()
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
	return e.rebuild(root, w.placed)
}
