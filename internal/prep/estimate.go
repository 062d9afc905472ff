package prep

// A-priori DP size estimation for the facade's adaptive mode: ModeAuto
// decides per fragment whether the exact engine is affordable, before
// running it, by comparing AdmissionEstimate with Solver.StateBudget.

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sched"
)

// pruneDiscount scales the index-space shape to reflect
// branch-and-bound pruning: the shape models the unpruned state space,
// while the bounded engine expands a fraction of it on real workloads
// (the state-count reductions E21 measures run well above this factor),
// so admitting by the raw shape would send the exact tier's affordable
// fragments to the heuristic. Dividing the estimate, rather than
// multiplying the budget, keeps MaxInt budgets overflow-free.
const pruneDiscount = 32

// AdmissionEstimate returns the deterministic a-priori size estimate of
// the exact DP on one instance (typically a fragment after Decompose)
// that ModeAuto compares with its state budget: the engine's
// index-space shape G²·(n+1)·(p+1)³ divided by pruneDiscount, where G
// is the size of the candidate execution grid (AppendGrid) and p is Procs
// capped at n like the engine caps it. With at most one effective
// processor it is the smaller of that and G·(n+1): at p = 1 every level
// dimension of the engine's state collapses to a bit, so this
// lower-degree shape prices the per-interval frontier the bounded
// recursion actually walks, where the G² pair space would reject dense
// fragments from about 800 jobs on.
//
// This is an upper-bound-flavoured signal, not a prediction of visited
// states — the DP touches a vanishingly small fraction of its index
// space — but it is monotone in fragment size and depends only on the
// job multiset and processor count, which is what an admission decision
// needs: two Solvers with the same budget classify a fragment and its
// canonical form alike. Products saturate at MaxInt instead of
// overflowing on huge horizons. The empty instance estimates 0.
func AdmissionEstimate(in sched.Instance) int {
	n := len(in.Jobs)
	if n == 0 {
		return 0
	}
	p := min(in.Procs, n)
	g := gridSize(in)
	est := g
	for _, dim := range [...]int{g, n + 1, p + 1, p + 1, p + 1} {
		est = satMul(est, dim)
	}
	est /= pruneDiscount
	if p <= 1 {
		est = min(est, satMul(g, n+1))
	}
	return est
}

// gridSize computes the size of the exact engine's candidate execution
// grid without materialising it: the measure of the union of the
// clipped anchor neighbourhoods [a−n, a+n] over all releases and
// deadlines a — exactly the grid AppendGrid lists.
func gridSize(in sched.Instance) int {
	_, size := gridRuns(in)
	return size
}

// AppendGrid appends the exact engine's candidate execution grid to
// grid, in ascending order, and returns the extended slice: every time
// within distance n of a release or a deadline, clipped to the horizon
// (the span-anchoring argument of internal/core). Passing the previous
// grid's storage reuses it.
func AppendGrid(grid []int, in sched.Instance) []int {
	runs, size := gridRuns(in)
	grid = slices.Grow(grid, size)
	for _, r := range runs {
		// Stop at r[1] before incrementing: t <= r[1] holds for every
		// t when r[1] is MaxInt.
		for t := r[0]; ; t++ {
			grid = append(grid, t)
			if t == r[1] {
				break
			}
		}
	}
	return grid
}

// gridRuns returns the candidate grid as ascending, disjoint runs of
// consecutive times [lo, hi], plus its size, by one sort and one sweep
// over the 2n clipped anchor neighbourhoods — so measuring the grid
// costs O(n log n) however large it is.
func gridRuns(in sched.Instance) (runs [][2]int, size int) {
	n := len(in.Jobs)
	lo, hi := in.TimeHorizon()
	ivs := make([][2]int, 0, 2*n)
	for _, j := range in.Jobs {
		for _, a := range [2]int{j.Release, j.Deadline} {
			if from, to := max(satAdd(a, -n), lo), min(satAdd(a, n), hi); from <= to {
				ivs = append(ivs, [2]int{from, to})
			}
		}
	}
	slices.SortFunc(ivs, func(x, y [2]int) int { return cmp.Compare(x[0], y[0]) })
	runs = ivs[:0] // merges in place: runs never outgrows the intervals read
	for _, v := range ivs {
		if k := len(runs) - 1; k >= 0 && v[0] <= runs[k][1] {
			if v[1] > runs[k][1] {
				size += v[1] - runs[k][1]
				runs[k][1] = v[1]
			}
		} else {
			runs = append(runs, v)
			size += v[1] - v[0] + 1
		}
	}
	return runs, size
}

// satAdd adds a and b, saturating at MinInt and MaxInt: the anchor
// neighbourhoods of times near the ends of int must clip to the
// horizon, not wrap past it.
func satAdd(a, b int) int {
	switch {
	case b > 0 && a > math.MaxInt-b:
		return math.MaxInt
	case b < 0 && a < math.MinInt-b:
		return math.MinInt
	}
	return a + b
}

// satMul multiplies non-negative ints, saturating at MaxInt.
func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}
