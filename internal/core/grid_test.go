package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/prep"
	"repro/internal/sched"
)

// TestCandidateGridIsAnchorUnion: the engine's candidate grid is
// exactly the union of the ±n neighbourhoods of every release and
// deadline, clipped to the horizon, brute-forced pointwise; and
// prep.GridSize, the admission estimates' grid measure, counts that
// same set.
func TestCandidateGridIsAnchorUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	dist := func(a, b int) int { return max(a-b, b-a) }
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(8)
		jobs := make([]sched.Job, n)
		spread := 1 + rng.Intn(80)
		for i := range jobs {
			r := rng.Intn(spread)
			jobs[i] = sched.Job{Release: r, Deadline: r + rng.Intn(15)}
		}
		in := sched.Instance{Jobs: jobs, Procs: 1 + rng.Intn(3)}
		lo, hi := in.TimeHorizon()
		var want []int
		for t := lo; t <= hi; t++ {
			for _, j := range jobs {
				if dist(t, j.Release) <= n || dist(t, j.Deadline) <= n {
					want = append(want, t)
					break
				}
			}
		}
		if got := newBase(in, false).grid; !slices.Equal(got, want) {
			t.Fatalf("trial %d: grid %v, anchor union %v (jobs %v)", trial, got, want, jobs)
		}
		if got := prep.GridSize(in); got != len(want) {
			t.Fatalf("trial %d: GridSize %d, anchor union has %d points (jobs %v)", trial, got, len(want), jobs)
		}
	}
}
