package prep

// A-priori DP size estimation for the facade's adaptive mode: ModeAuto
// decides per fragment whether the exact engine is affordable, before
// running it, by comparing these estimates against Solver.StateBudget.

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sched"
)

// StateEstimate returns a deterministic a-priori size estimate of the
// exact DP on one instance (typically a fragment after Decompose): the
// engine's index-space shape G²·(n+1)·(p+1)³, where G is the size of
// the candidate execution grid (the union of the ±n neighbourhoods of
// releases and deadlines, clipped to the horizon — exactly the grid
// internal/core builds) and p is capped at n like the engine caps it.
//
// This is an upper-bound-flavoured signal, not a prediction of visited
// states — the DP touches a vanishingly small fraction of its index
// space — but it is monotone in fragment size and stable across runs,
// which is what an admission decision needs: two Solvers with the same
// budget always classify a fragment the same way. Saturates at MaxInt
// instead of overflowing on huge horizons. The empty instance
// estimates 0.
func StateEstimate(in sched.Instance) int {
	state, _, _ := AdmissionEstimates(in)
	return state
}

// SingleProcEstimate is the admission signal for instances with at
// most one effective processor (Procs capped at the job count, as the
// engine caps it): G·(n+1), saturating, with ok reporting whether the
// instance is single-processor at all. At p = 1 every level dimension
// of the engine's state collapses to a bit, so this lower-degree shape
// prices the per-interval frontier the bounded recursion actually
// walks, where StateEstimate's G² pair space would reject dense
// fragments from about 800 jobs on. The empty instance estimates 0.
func SingleProcEstimate(in sched.Instance) (est int, ok bool) {
	_, est, ok = AdmissionEstimates(in)
	return est, ok
}

// AdmissionEstimates returns StateEstimate(in) as state and
// SingleProcEstimate(in) as single and singleProc, from one sweep of
// the candidate grid: the facade's ModeAuto admission reads both, and
// the sweep's sort of the 2n anchor neighbourhoods is the estimates'
// whole cost.
func AdmissionEstimates(in sched.Instance) (state, single int, singleProc bool) {
	n := len(in.Jobs)
	if n == 0 {
		return 0, 0, true
	}
	p := min(in.Procs, n)
	g := GridSize(in)
	state = g
	for _, dim := range [...]int{g, n + 1, p + 1, p + 1, p + 1} {
		state = satMul(state, dim)
	}
	if p > 1 {
		return state, 0, false
	}
	return state, satMul(g, n+1), true
}

// GridSize computes the size of the exact engine's candidate execution
// grid without materialising it: the measure of the union of the
// clipped anchor neighbourhoods [a−n, a+n] over all releases and
// deadlines a — exactly the grid Grid lists. Exported so tests and
// experiments can reproduce the admission estimates.
func GridSize(in sched.Instance) int {
	_, size := gridRuns(in)
	return size
}

// Grid lists the exact engine's candidate execution grid in ascending
// order: every time within distance n of a release or a deadline,
// clipped to the horizon (the span-anchoring argument of internal/core).
func Grid(in sched.Instance) []int {
	runs, size := gridRuns(in)
	grid := make([]int, 0, size)
	for _, r := range runs {
		for t := r[0]; t <= r[1]; t++ {
			grid = append(grid, t)
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
			if from, to := max(a-n, lo), min(a+n, hi); from <= to {
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
