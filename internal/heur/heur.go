// Package heur is the heuristic solving tier: near-linear feasible
// schedule construction for one-interval p-processor instances, paired
// with certified instance lower bounds so every heuristic answer ships
// with a bounded optimality gap. It serves the instance sizes the exact
// DP tier (internal/core) cannot — the engine's state space grows
// polynomially with high degree, so n in the tens of thousands is out
// of its reach, while the greedy here is O(n log n).
//
// # The constructor
//
// Greedy builds a schedule with the lazy-wakeup rule: stay asleep as
// long as feasibility allows, and once awake, extend the current busy
// span while any pending window allows it.
//
//   - Lazy wake. While idle with remaining job set R (every job of R
//     released at or after the next arrival r), waking at time w and
//     running EDF is feasible iff the instance with releases clamped to
//     w satisfies Hall's condition. Clamping only tightens the
//     constraint anchored at s = w — N(e) ≤ p·(e−w+1) for every
//     deadline e, with N(e) = |{j ∈ R : d_j ≤ e}| — because every
//     constraint anchored later uses original releases and is implied
//     by the instance's own feasibility. The latest safe wake is
//     therefore w* = min_e ⌊(p·(e+1) − N(e))/p⌋, maintained under job
//     completions by a lazy segment tree over deadlines (suffix add,
//     suffix min), O(log n) per scheduled job.
//   - Eager span extension. Once awake, the p (or fewer) pending jobs
//     with earliest deadlines run each time unit, and newly released
//     jobs join the pending set — the busy span keeps absorbing work
//     until nothing is pending, so flexible jobs ride along with forced
//     wake-ups instead of forcing their own.
//   - Sleep or bridge. When the pending set drains the machine sleeps
//     again; whether a processor should instead stay active through the
//     gap (worth it exactly when the gap is shorter than the transition
//     cost α) is a costing question, not a placement one, and the
//     schedule accounting (sched.Schedule.PowerCost) already bridges
//     optimally — so one constructed schedule serves both objectives.
//
// The lazy-wake rule makes Greedy a feasibility oracle: on a feasible
// instance every awake phase runs EDF on a Hall-feasible clamped
// sub-instance and meets all deadlines, and on an infeasible instance
// no schedule exists, so the greedy's own deadline miss (or a wake
// bound behind the next arrival) is a correct ErrInfeasible verdict.
// FuzzHeuristicQuality cross-checks the verdict against the exact tier.
//
// # The certificates
//
// FragmentSpanLB and FragmentPowerLB (lower.go) are certified lower
// bounds on the optimal cost of one fragment, so a heuristic answer
// bounds its own optimality gap: LowerBound ≤ OPT ≤ cost. The facade
// (gapsched.Solver with Mode ModeHeuristic or ModeAuto) runs Greedy on
// each fragment, prices the schedule under its objective, and sums
// into Solution.LowerBound exact fragment costs where fragments were
// solved exactly and these bounds where they were not.
package heur

import (
	"errors"
	"math"
	"sort"

	"repro/internal/feas"
	"repro/internal/sched"
)

// ErrInfeasible is returned when the instance admits no feasible
// schedule. The facade maps it onto gapsched.ErrInfeasible, so callers
// see one infeasibility error regardless of tier.
var ErrInfeasible = errors.New("heur: instance is infeasible")

// Greedy builds a feasible schedule for a one-interval p-processor
// instance with the lazy-wakeup rule (see the package comment): sleep
// until the latest Hall-safe wake time, then run earliest-deadline
// pending jobs — extending the busy span while anything is pending —
// and sleep again when the pending set drains. O(n log n); the
// schedule occupies processors as a staircase (prefix of processors at
// every busy time). It returns ErrInfeasible when and only when the
// instance admits no feasible schedule.
func Greedy(in sched.Instance) (sched.Schedule, error) {
	if err := in.Validate(); err != nil {
		return sched.Schedule{}, err
	}
	n := len(in.Jobs)
	out := sched.Schedule{Procs: in.Procs, Slots: make([]sched.Assignment, n)}
	if n == 0 {
		return out, nil
	}
	// No schedule occupies more than n processors at once; the smaller
	// p also helps keep p·(e+1) small in the wake-bound arithmetic.
	p := in.Procs
	if p > n {
		p = n
	}
	// Work on a zero-based timeline (like prep's coordinate
	// compression): instances living at large absolute times — epoch
	// timestamps, say — must not push p·(e+1) anywhere near overflow.
	// Residual pathologies (window widths near MaxInt/p) are handled
	// by saturating the wake-bound values below.
	lo, _ := in.TimeHorizon()
	jobs := make([]sched.Job, n)
	for i, j := range in.Jobs {
		jobs[i] = sched.Job{Release: j.Release - lo, Deadline: j.Deadline - lo}
	}

	// Arrivals in release order; deadlines deduplicated for the wake
	// tree's coordinate axis.
	byRel := make([]int, n)
	for i := range byRel {
		byRel[i] = i
	}
	sort.Slice(byRel, func(x, y int) bool {
		a, b := jobs[byRel[x]], jobs[byRel[y]]
		if a.Release != b.Release {
			return a.Release < b.Release
		}
		return byRel[x] < byRel[y]
	})
	dls := make([]int, n)
	for i, j := range jobs {
		dls[i] = j.Deadline
	}
	sort.Ints(dls)
	dls = dedupe(dls)
	rank := func(d int) int { return sort.SearchInts(dls, d) }

	// f(e) = p·(e+1) − N(e) with N(e) the unscheduled jobs with
	// deadline ≤ e; the latest safe wake from an idle state with next
	// arrival r is ⌊min_{e ≥ r} f(e) / p⌋. Scheduling a job with
	// deadline d adds 1 to f(e) for every e ≥ d. The p·(e+1) term
	// saturates with headroom for those n suffix increments; a capped
	// term only pulls the wake bound earlier, and when that drags it
	// below the next arrival the slow path below re-checks the Hall
	// condition with overflow-safe arithmetic before believing it.
	f := make([]int, len(dls))
	remaining := make([]int, len(dls))
	for _, j := range jobs {
		f[rank(j.Deadline)]--
		remaining[rank(j.Deadline)]++
	}
	run := 0
	for i, e := range dls {
		run += f[i]
		pe := math.MaxInt - n
		if e <= (math.MaxInt-n)/p-1 {
			pe = p * (e + 1)
		}
		f[i] = pe + run
	}
	tree := newMinTree(f)

	// hallViolated re-derives the wake-bound verdict for waking at r
	// without the saturating encoding: is there a deadline e ≥ r whose
	// N(e) remaining jobs overfill p·(e−r+1) slots? O(n), but it runs
	// at most once on feasible instances with sane horizons — only a
	// saturated (≥ ~MaxInt/p-wide) instance or a genuine infeasibility
	// reaches it.
	hallViolated := func(r int) bool {
		cum := 0
		for i := rank(r); i < len(dls); i++ {
			cum += remaining[i]
			width := dls[i] - r + 1
			if width <= (math.MaxInt-1)/p && cum > p*width {
				return true
			}
		}
		return false
	}

	pend := feas.NewEDFQueue(jobs, 0)
	next, scheduled := 0, 0
	for scheduled < n {
		// Asleep with an empty pending set: every unscheduled job is a
		// future arrival.
		rNext := jobs[byRel[next]].Release
		w := floorDiv(tree.minSuffix(rank(rNext)), p)
		if w < rNext {
			if hallViolated(rNext) {
				// Even waking at the next arrival cannot meet some
				// deadline bound among the remaining jobs.
				return sched.Schedule{}, ErrInfeasible
			}
			// Saturation artifact: the true bound clears rNext, so
			// waking right at the arrival is safe (merely less lazy).
			w = rNext
		}
		for t := w; ; t++ {
			for next < n && jobs[byRel[next]].Release <= t {
				pend.Push(byRel[next])
				next++
			}
			if pend.Len() == 0 {
				break // span ends; sleep and recompute the wake bound
			}
			k := min(p, pend.Len())
			for q := 0; q < k; q++ {
				j := pend.Pop()
				if jobs[j].Deadline < t {
					return sched.Schedule{}, ErrInfeasible
				}
				out.Slots[j] = sched.Assignment{Proc: q, Time: t + lo}
				tree.addSuffix(rank(jobs[j].Deadline), 1)
				remaining[rank(jobs[j].Deadline)]--
				scheduled++
			}
		}
	}
	return out, nil
}

// floorDiv is floor(a/b) for b > 0 (Go's / truncates toward zero).
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func dedupe(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// minTree is a lazy segment tree supporting the two operations the
// wake-bound maintenance needs: add a delta to a suffix of the value
// array, and query the minimum of a suffix.
type minTree struct {
	n    int
	mn   []int
	lazy []int
}

func newMinTree(vals []int) *minTree {
	t := &minTree{n: len(vals), mn: make([]int, 4*len(vals)), lazy: make([]int, 4*len(vals))}
	t.build(1, 0, t.n-1, vals)
	return t
}

func (t *minTree) build(nd, lo, hi int, vals []int) {
	if lo == hi {
		t.mn[nd] = vals[lo]
		return
	}
	mid := (lo + hi) / 2
	t.build(2*nd, lo, mid, vals)
	t.build(2*nd+1, mid+1, hi, vals)
	t.mn[nd] = min(t.mn[2*nd], t.mn[2*nd+1])
}

// addSuffix adds delta to vals[from:].
func (t *minTree) addSuffix(from, delta int) { t.add(1, 0, t.n-1, from, delta) }

func (t *minTree) add(nd, lo, hi, from, delta int) {
	if from <= lo {
		t.mn[nd] += delta
		t.lazy[nd] += delta
		return
	}
	if hi < from {
		return
	}
	mid := (lo + hi) / 2
	t.add(2*nd, lo, mid, from, delta)
	t.add(2*nd+1, mid+1, hi, from, delta)
	t.mn[nd] = min(t.mn[2*nd], t.mn[2*nd+1]) + t.lazy[nd]
}

// minSuffix returns min(vals[from:]); callers guarantee from < n.
func (t *minTree) minSuffix(from int) int { return t.query(1, 0, t.n-1, from) }

func (t *minTree) query(nd, lo, hi, from int) int {
	if from <= lo {
		return t.mn[nd]
	}
	mid := (lo + hi) / 2
	if from > mid {
		return t.query(2*nd+1, mid+1, hi, from) + t.lazy[nd]
	}
	return min(t.query(2*nd, lo, mid, from), t.query(2*nd+1, mid+1, hi, from)) + t.lazy[nd]
}
