package core

import (
	"math"
	"sync"

	"repro/internal/sched"
)

// costModel supplies the objective-specific pieces of the shared
// interval-decomposition recursion. The engine owns the skeleton —
// subproblem identity, the case split on j_k's placement, memoization
// and reconstruction — while a model decides what boundary levels mean
// (busy counts for the span objective, active counts for power) and how
// much each boundary crossing costs. Adding a third objective means
// writing another implementation of this interface; see DESIGN.md §3.
//
// Throughout, "level" is the staircase profile height at a boundary
// time: l1 at t1, l2 at t2, with c2 context jobs stacked at t2 by
// ancestors of the current subproblem.
type costModel interface {
	// stateOK reports the objective-specific invariants tying l2 and c2
	// together (the generic 0 ≤ l1 ≤ p bounds are checked by the engine).
	stateOK(l1, l2, c2 int) bool

	// emptyCost is the base case with no own jobs: the cost of carrying
	// the boundary levels across [t1, t2], or ok=false when the levels
	// are unrealizable.
	emptyCost(l1, l2, c2, t1, t2 int) (cost float64, ok bool)

	// pointOK reports whether k own jobs plus c2 context jobs can all
	// execute at the single time t1 == t2 under boundary levels l1, l2.
	pointOK(k, l1, l2, c2 int) bool

	// caseAChild gives the child state levels when j_k is placed at t2,
	// joining the context stack (the paper's case t′ = t2).
	caseAChild(l2, c2 int) (cl2, cc2 int, ok bool)

	// leftLevel is the left child's own boundary level at t′ when the
	// profile height there (including j_k) is busy ∈ [1, p].
	leftLevel(busy int) int

	// pointLeft gives the left child's boundary levels when j_k is
	// placed at t′ == t1, collapsing the left child to the single point
	// t1 with j_k as context.
	pointLeft(l1, kL int) (pl1, pl2 int, ok bool)

	// boundary is the parent-owned cost of the time unit t′+1: the
	// profile is at height level at t′ and at height next (plus ctx
	// context jobs, for models that count them separately) at t′+1.
	boundary(level, next, ctx int) float64

	// nodeLB is an admissible lower bound on the node's cost: no
	// feasible completion of the subproblem costs less. The engine cuts
	// any node whose bound reaches the incumbent-derived budget without
	// expanding it (branch and bound); the bound must therefore never
	// overestimate, or pruning would change answers. It must also be
	// non-increasing in l1: the engine bounds a split's right child over
	// every boundary level at once by its value at l1 = p.
	nodeLB(k, l1, l2, c2, t1, t2 int) float64
}

// infinite marks unreachable subproblems. Finite costs never reach it:
// the engine only adds child costs that compare strictly below it.
var infinite = math.Inf(1)

// scratch holds one compute call's buffers: the right-child cache
// evalSplit fills per candidate (width p+1) and the pending counts of
// the node's case-B range. compute recurses through dp, so the buffers
// cannot live on the engine; scratchPool keeps the recursion
// allocation-free past warm-up.
type scratch struct {
	rights  []float64
	pending []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch leases buffers sized for width p+1 and a case-B range of
// span candidates.
func getScratch(p, span int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.rights) <= p {
		s.rights = make([]float64, p+1)
	}
	if cap(s.pending) < span {
		s.pending = make([]int, span)
	}
	s.rights, s.pending = s.rights[:p+1], s.pending[:span]
	return s
}

// node identifies one subproblem. Interval endpoints are stored as
// indices into the engine's t1val/t2val tables, not as raw times, so
// the memo table can be a flat array instead of a hash map.
type node struct {
	i1, i2 int // indices into t1val / t2val
	k      int // own jobs: the k earliest-deadline jobs of list(t1, t2)
	l1, l2 int // boundary levels at t1 and t2
	c2     int // context jobs stacked at t2 by ancestors
}

// entry is one memo record: the optimal cost of a node plus the choice
// that attains it, for reconstruction. The zero value (choiceUnset)
// means "not yet computed", which is what makes the flat table work.
type entry struct {
	cost   float64
	tp     int32 // grid index of j_k's time for choiceB
	lp     int16 // left child's own level at t′ (choiceB); -1 for a point left child
	lpp    int16 // right child's level at t′+1 (choiceB)
	choice int8
}

// engine runs the shared DP for one cost model. It is generic over the
// concrete model type so the per-state model calls compile to direct
// (inlinable) calls rather than interface dispatch on the hot path.
type engine[M costModel] struct {
	*base
	model M
	memo  *memoTable

	// Branch-and-bound accounting. pruned counts the dp calls answered
	// by the bound check (or a memoized prune marker) without expanding
	// the node; expanded counts compute invocations.
	pruned, expanded int

	// t1val[i] is the left endpoint encoded by index i: t1val[0] is the
	// virtual start (grid[0]−1) and t1val[g+1] is grid[g]+1, the right
	// child's start after a split at grid[g]. t2val[g] is grid[g] and
	// t2val[G] is the virtual end (grid[G−1]+1). Both lists are strictly
	// increasing, so index pairs identify intervals uniquely.
	t1val, t2val []int
}

func newEngine[M costModel](b *base, m M) *engine[M] {
	g := len(b.grid)
	e := &engine[M]{
		base:  b,
		model: m,
		memo:  newMemoTable(g, len(b.jobs), b.p),
		t1val: make([]int, g+1),
		t2val: make([]int, g+1),
	}
	e.t1val[0] = b.grid[0] - 1
	for i, t := range b.grid {
		e.t1val[i+1] = t + 1
		e.t2val[i] = t
	}
	e.t2val[g] = b.grid[g-1] + 1
	return e
}

// run solves the root problem covering the whole horizon and replays
// the optimal choices into job→time placements. budget is the
// branch-and-bound cut: a strict upper bound on the cost run is allowed
// to report (callers pass one ulp above a feasible incumbent, or
// infinite to disable pruning). A run that comes back !ok under a
// finite budget only certifies cost ≥ budget, not infeasibility.
func (e *engine[M]) run(n int, budget float64) (cost float64, placed map[int]int, states int, ok bool) {
	root := node{i1: 0, i2: len(e.grid), k: n}
	cost = e.dp(root, budget)
	states = e.memo.entries()
	if cost >= infinite {
		return 0, nil, states, false
	}
	placed = make(map[int]int, n)
	e.rebuild(root, placed)
	return cost, placed, states, true
}

// dp returns the minimum cost of the node's subproblem, memoized, or
// infinite when that cost is at least budget (pruning). A finite return
// is always the exact optimum: candidates are only ever discarded once
// they provably meet the caller's threshold, so pruning changes which
// states are expanded but never a reported cost or placement.
//
// Memoized entries come in two kinds. Exact entries (choice other than
// choicePruned) are budget-independent and served to every caller.
// Prune markers record, in cost, the largest budget under which the
// node was cut; they answer only callers whose budget is no larger —
// a looser caller re-expands the node, because "≥ old budget" says
// nothing about "≥ new budget".
//
// Field ranges are checked before the memo is consulted: the flat table
// encodes nodes positionally, so an out-of-range field (possible only
// through a buggy costModel) must never reach index computation, where
// it would alias another state's entry.
func (e *engine[M]) dp(nd node, budget float64) float64 {
	if nd.l1 < 0 || nd.l1 > e.p || nd.l2 < 0 || nd.l2 > e.p || nd.c2 < 0 || nd.c2 > e.p {
		return infinite
	}
	if r, ok := e.memo.get(nd); ok {
		if r.choice != choicePruned {
			return r.cost
		}
		if budget <= r.cost {
			e.pruned++
			return infinite
		}
	}
	if lb := e.model.nodeLB(nd.k, nd.l1, nd.l2, nd.c2, e.t1val[nd.i1], e.t2val[nd.i2]); lb >= budget {
		e.pruned++
		// The admissible bound holds unconditionally, so the marker can
		// record cost ≥ lb — stronger than the triggering budget — and
		// absorb future visits up to lb without recomputing the bound.
		e.memo.put(nd, entry{cost: lb, choice: choicePruned})
		return infinite
	}
	e.expanded++
	r := e.compute(nd, budget)
	if r.cost < budget || budget >= infinite {
		// Exact: every candidate either evaluated exactly or proved ≥ the
		// running threshold. (Under an infinite budget nothing prunes, so
		// an infinite result is genuine infeasibility — memoize it as
		// such rather than as a marker.)
		e.memo.put(nd, r)
		return r.cost
	}
	// The result met the budget, but pruned candidates may hide the true
	// optimum below it: record only "cost ≥ budget".
	e.memo.put(nd, entry{cost: budget, choice: choicePruned})
	return infinite
}

// compute is the recursion shared by every objective: base cases, case
// A (j_k joins the context at t2) and case B (j_k at a grid time
// t′ < t2, splitting the interval into two children that own
// (t1, t′] and (t′+1, t2] while the parent pays for the boundary
// crossing into t′+1).
//
// budget propagates the branch-and-bound threshold: children are
// evaluated under min(budget, best so far), so a child that cannot lead
// to an improvement returns infinite instead of expanding. The recorded
// choice is unchanged by pruning: it is the first candidate attaining
// the node optimum, and for that candidate the threshold at evaluation
// time strictly exceeds the optimum, hence exceeds both children's true
// costs — they evaluate exactly, the candidate is accepted, and later
// candidates never displace it (strict < comparison).
func (e *engine[M]) compute(nd node, budget float64) entry {
	t1, t2 := e.t1val[nd.i1], e.t2val[nd.i2]
	k, l1, l2, c2 := nd.k, nd.l1, nd.l2, nd.c2
	inf := entry{cost: infinite, choice: choiceNone}

	if !e.model.stateOK(l1, l2, c2) { // field ranges already vetted by dp
		return inf
	}

	// Base: no own jobs.
	if k == 0 {
		if cost, ok := e.model.emptyCost(l1, l2, c2, t1, t2); ok {
			return entry{cost: cost, choice: choiceEmpty}
		}
		return inf
	}

	list := e.list(t1, t2)
	if k > len(list) {
		return inf
	}

	// Base: single time unit. All k own jobs execute at t1 == t2.
	if t1 == t2 {
		if !e.model.pointOK(k, l1, l2, c2) {
			return inf
		}
		return entry{cost: 0, choice: choicePoint}
	}

	jk := list[k-1]
	job := e.jobs[jk]
	best := inf

	// Case A: j_k at t′ = t2, joining the context stack. The threshold
	// below both the caller's budget and the best found so far; best is
	// still empty here, so the budget alone applies.
	if job.Deadline >= t2 {
		if cl2, cc2, ok := e.model.caseAChild(l2, c2); ok {
			if c := e.dp(node{nd.i1, nd.i2, k - 1, l1, cl2, cc2}, budget); c < best.cost {
				best = entry{cost: c, choice: choiceA}
			}
		}
	}

	// Case B: j_k at a grid time t′ with t1 ≤ t′ < t2.
	giLo, giHi := e.splitRange(job, t1, t2)
	if giLo < giHi {
		s := getScratch(e.p, giHi-giLo)
		e.pendingCounts(list, k, giLo, giHi, s.pending)
		for gi := giLo; gi < giHi; gi++ {
			best = e.evalSplit(nd, gi, s.pending[gi-giLo], t1, t2, budget, best, s.rights)
		}
		scratchPool.Put(s)
	}
	return best
}

// splitRange is the grid index range of j_k's case-B candidate times:
// grid times within its window, strictly before t2.
func (e *engine[M]) splitRange(job sched.Job, t1, t2 int) (int, int) {
	lo := job.Release
	if lo < t1 {
		lo = t1
	}
	hi := job.Deadline
	if hi > t2-1 {
		hi = t2 - 1
	}
	return e.gridRange(lo, hi)
}

// evalSplit evaluates every case-B candidate that places j_k at grid
// index gi, with i of the first k−1 jobs released after grid[gi],
// folding improvements into best (strict <, so the first candidate
// attaining the minimum is the one recorded) and returns the result.
// thr0 is the caller's branch-and-bound budget; children are
// evaluated under min(thr0, best so far). Under an infinite thr0
// pruning is disabled outright — children inherit the infinite budget
// rather than the running best, reproducing the unbounded recursion
// exactly (and keeping PrunedStates at 0, as NoPrune promises).
func (e *engine[M]) evalSplit(nd node, gi, i, t1, t2 int, thr0 float64, best entry, rs []float64) entry {
	k, l1, l2, c2 := nd.k, nd.l1, nd.l2, nd.c2
	thr := func() float64 {
		if thr0 >= infinite {
			return infinite
		}
		if best.cost < thr0 {
			return best.cost
		}
		return thr0
	}

	tp := e.grid[gi]
	kL := k - 1 - i

	// The right child of a split at t′ = grid[gi] does not depend on the
	// profile height busy at t′, so its dp value is shared by every busy
	// (and by the point-left branch). rights caches it per next, filled
	// lazily — −1 marks "not yet evaluated" (costs are ≥ 0) — so the
	// hoist adds no dp calls the unhoisted loop would not have made.
	for x := range rs {
		rs[x] = -1
	}

	// Context jobs stacked at t2 by ancestors count toward the
	// profile at t′+1 exactly when t′+1 = t2.
	ctx := 0
	if tp+1 == t2 {
		ctx = c2
	}

	// Candidate-level cuts: a candidate costs left + right + boundary
	// with boundary ≥ 0, so when the sum of the children's admissible
	// bounds already meets the threshold the candidate is skipped before
	// any dp call. Skipped candidates are provably ≥ the threshold in
	// force at the time — which only shrinks — so no strict improvement
	// is ever discarded and the first-attainment choice is untouched.
	// Crucially the skip writes no memo state: children that do get
	// evaluated still see the full thr(), so their entries stay exactly
	// as reusable as in the uncut recursion (budget-keyed markers at
	// per-candidate budgets would wreck memo reuse for continuous
	// costs). rLB is the right child's bound minimized over next —
	// attained at next = p, as nodeLB is non-increasing in l1 — and the
	// per-busy left bound is computed in the loop.
	rLB := 0.0
	if thr0 < infinite {
		rLB = e.model.nodeLB(i, e.p, l2, c2, e.t1val[gi+1], e.t2val[nd.i2])
	}

	if tp == t1 {
		// j_k and the kL left jobs all sit at t1; the left child is
		// the single-point base with j_k as context.
		pl1, pl2, ok := e.model.pointLeft(l1, kL)
		if !ok {
			return best
		}
		if thr0 < infinite && e.model.nodeLB(kL, pl1, pl2, 1, e.t1val[nd.i1], e.t2val[gi])+rLB >= thr() {
			return best
		}
		left := e.dp(node{nd.i1, gi, kL, pl1, pl2, 1}, thr())
		if left >= infinite {
			return best
		}
		for next := 0; next <= e.p; next++ {
			right := rs[next]
			if right < 0 {
				right = e.dp(node{gi + 1, nd.i2, i, next, l2, c2}, thr())
				rs[next] = right
			}
			if right >= infinite {
				continue
			}
			if c := left + right + e.model.boundary(l1, next, ctx); c < best.cost {
				best = entry{cost: c, choice: choiceB, tp: int32(gi), lp: -1, lpp: int16(next)}
			}
		}
		return best
	}

	for busy := 1; busy <= e.p; busy++ { // profile height at t′, including j_k
		lv := e.model.leftLevel(busy)
		if thr0 < infinite && e.model.nodeLB(kL, l1, lv, 1, e.t1val[nd.i1], e.t2val[gi])+rLB >= thr() {
			continue
		}
		left := e.dp(node{nd.i1, gi, kL, l1, lv, 1}, thr())
		if left >= infinite {
			continue
		}
		for next := 0; next <= e.p; next++ {
			right := rs[next]
			if right < 0 {
				right = e.dp(node{gi + 1, nd.i2, i, next, l2, c2}, thr())
				rs[next] = right
			}
			if right >= infinite {
				continue
			}
			if c := left + right + e.model.boundary(busy, next, ctx); c < best.cost {
				best = entry{cost: c, choice: choiceB, tp: int32(gi), lp: int16(lv), lpp: int16(next)}
			}
		}
	}
	return best
}

// rebuild replays the recorded choices, recording job→time placements.
func (e *engine[M]) rebuild(nd node, placed map[int]int) {
	r, ok := e.memo.get(nd)
	if !ok || r.choice == choiceNone || r.choice == choicePruned {
		// Pruned entries never lie on an optimal path: the path's nodes
		// were all evaluated under thresholds above their true costs.
		return
	}
	t1, t2 := e.t1val[nd.i1], e.t2val[nd.i2]
	k := nd.k
	switch r.choice {
	case choiceEmpty:
		return
	case choicePoint:
		for _, j := range e.list(t1, t2)[:k] {
			placed[j] = t1
		}
	case choiceA:
		jk := e.list(t1, t2)[k-1]
		placed[jk] = t2
		cl2, cc2, _ := e.model.caseAChild(nd.l2, nd.c2)
		e.rebuild(node{nd.i1, nd.i2, k - 1, nd.l1, cl2, cc2}, placed)
	case choiceB:
		list := e.list(t1, t2)
		jk := list[k-1]
		gi := int(r.tp)
		placed[jk] = e.grid[gi]
		var pend [1]int
		e.pendingCounts(list, k, gi, gi+1, pend[:])
		i := pend[0]
		kL := k - 1 - i
		if r.lp < 0 {
			pl1, pl2, _ := e.model.pointLeft(nd.l1, kL)
			e.rebuild(node{nd.i1, gi, kL, pl1, pl2, 1}, placed)
		} else {
			e.rebuild(node{nd.i1, gi, kL, nd.l1, int(r.lp), 1}, placed)
		}
		e.rebuild(node{gi + 1, nd.i2, i, int(r.lpp), nd.l2, nd.c2}, placed)
	}
}
