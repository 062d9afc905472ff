package exact

import (
	"slices"

	"repro/internal/sched"
)

// HallFeasible reports whether the one-interval p-processor instance is
// feasible by testing Hall's condition for interval bipartite graphs
// directly: for every release s and deadline e, the jobs whose windows
// lie inside [s, e] must number at most p·max(0, e − s + 1). Pairs with
// e < s have no capacity, so a job with an empty window (release after
// deadline) fails the pair formed by its own endpoints, and any job fails
// when p < 1. It loops releases × deadlines × jobs, O(n³): the
// deliberately slow reference the O(n log n) EDF sweep of
// feas.FeasibleOneInterval is tested against.
func HallFeasible(in sched.Instance) bool {
	releases := make([]int, 0, len(in.Jobs))
	deadlines := make([]int, 0, len(in.Jobs))
	for _, j := range in.Jobs {
		releases = append(releases, j.Release)
		deadlines = append(deadlines, j.Deadline)
	}
	slices.Sort(releases)
	slices.Sort(deadlines)
	for _, s := range slices.Compact(releases) {
		for _, e := range slices.Compact(deadlines) {
			inside := 0
			for _, j := range in.Jobs {
				if j.Release >= s && j.Deadline <= e {
					inside++
				}
			}
			if inside > in.Procs*max(0, e-s+1) {
				return false
			}
		}
	}
	return true
}
