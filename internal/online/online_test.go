package online

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestLowerBoundFamilyOfflineOptimum verifies the analytical claim that
// the adversarial family has a one-span offline schedule, using the
// exact DP for small n.
func TestLowerBoundFamilyOfflineOptimum(t *testing.T) {
	for n := 1; n <= 5; n++ {
		in := workload.OnlineLowerBound(n)
		res, err := core.Solve(in, core.Objective{}, core.Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Cost != 1 {
			t.Fatalf("n=%d: offline optimum %v spans, want 1", n, res.Cost)
		}
	}
}

// TestLowerBoundOnlineGrowsLinearly: eager EDF pays n spans (the
// flexible block merges with the first tight job; the other n−1 tight
// jobs are isolated).
func TestLowerBoundOnlineGrowsLinearly(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 25} {
		rep, err := LowerBound(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rep.OnlineSpans != n {
			t.Fatalf("n=%d: online spans %d, want %d", n, rep.OnlineSpans, n)
		}
		if rep.OfflineSpans != 1 {
			t.Fatalf("n=%d: offline spans %d, want 1", n, rep.OfflineSpans)
		}
		if rep.Ratio != float64(n) {
			t.Fatalf("n=%d: ratio %v, want %v", n, rep.Ratio, float64(n))
		}
	}
}

func TestEDFInfeasible(t *testing.T) {
	in := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}})
	if _, err := EDF(in); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestEDFNeverIdlesWhilePending(t *testing.T) {
	in := sched.NewInstance([]sched.Job{
		{Release: 0, Deadline: 10},
		{Release: 0, Deadline: 10},
		{Release: 5, Deadline: 10},
	})
	s, err := EDF(in)
	if err != nil {
		t.Fatal(err)
	}
	// Eagerness: the two flexible jobs run at 0 and 1, not later.
	times := map[int]bool{}
	for _, a := range s.Slots {
		times[a.Time] = true
	}
	if !times[0] || !times[1] {
		t.Fatalf("EDF idled while work was pending: %v", s.Slots)
	}
}
