package gapsched

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestOnlineSessionAdversarialRatio: on the §1 adversarial family the
// online tier pays n spans against an offline optimum of 1, so the
// measured competitive ratio is exactly n (the mirror solves the
// prefix exactly at these sizes, so LowerBound = OPT = 1).
func TestOnlineSessionAdversarialRatio(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		ss, err := Solver{}.OpenOnline(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range workload.OnlineLowerBound(n).Jobs {
			if _, err := ss.Add(j); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := ss.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Spans != n {
			t.Fatalf("n=%d: online run has %d spans, want %d", n, sol.Spans, n)
		}
		if sol.LowerBound != 1 {
			t.Fatalf("n=%d: mirror LowerBound %v, want 1", n, sol.LowerBound)
		}
		if sol.CompetitiveRatio != float64(n) {
			t.Fatalf("n=%d: CompetitiveRatio %v, want %d", n, sol.CompetitiveRatio, n)
		}
		ss.Close()
	}
}

// TestOnlineSessionRatioHonest: across random release-ordered streams,
// on both objectives, every mid-stream Resolve reports a validated
// schedule whose cost is ≥ the exact offline optimum of the revealed
// prefix, and a CompetitiveRatio ≥ 1.
func TestOnlineSessionRatioHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, cfg := range []Solver{{}, {Objective: ObjectivePower, Alpha: 2.5}} {
		for trial := 0; trial < 60; trial++ {
			p := 1 + rng.Intn(2)
			in := workload.Multiproc(rng, 1+rng.Intn(8), p, 1+rng.Intn(20), 1+rng.Intn(5))
			jobs := append([]sched.Job(nil), in.Jobs...)
			sort.SliceStable(jobs, func(x, y int) bool { return jobs[x].Release < jobs[y].Release })
			ss, err := cfg.OpenOnline(p)
			if err != nil {
				t.Fatal(err)
			}
			infeasible := false
			for _, j := range jobs {
				if _, err := ss.Add(j); err != nil {
					t.Fatalf("Add(%+v): %v", j, err)
				}
				sol, err := ss.Resolve()
				if err != nil {
					if !errors.Is(err, ErrInfeasible) {
						t.Fatal(err)
					}
					infeasible = true
					continue
				}
				if infeasible {
					t.Fatal("session recovered from infeasibility with no job removed")
				}
				opt, err := cfg.Solve(ss.Instance())
				if err != nil {
					t.Fatalf("offline prefix solve: %v", err)
				}
				online, optCost := cfg.Objective.Cost(sol), cfg.Objective.Cost(opt)
				if online < optCost-1e-9 {
					t.Fatalf("online cost %v beats offline optimum %v", online, optCost)
				}
				if sol.CompetitiveRatio < 1-1e-12 {
					t.Fatalf("CompetitiveRatio %v < 1", sol.CompetitiveRatio)
				}
				if sol.Mode != ModeAuto {
					t.Fatalf("online mirror mode %v, want auto", sol.Mode)
				}
			}
			ss.Close()
		}
	}
}

// expectWatermark checks an online session's watermark through
// behaviour: an arrival released just before wm is rejected with
// ErrReleaseOrder and not admitted, and one released at wm is admitted
// (which leaves the watermark at wm).
func expectWatermark(t *testing.T, ss *Session, wm int) {
	t.Helper()
	n := ss.Len()
	if _, err := ss.Add(Job{Release: wm - 1, Deadline: wm + 2}); !errors.Is(err, ErrReleaseOrder) {
		t.Fatalf("arrival at %d: %v, want ErrReleaseOrder (watermark %d)", wm-1, err, wm)
	}
	if _, err := ss.Add(Job{Release: wm, Deadline: wm + 2}); err != nil {
		t.Fatalf("arrival at the watermark %d: %v", wm, err)
	}
	if ss.Len() != n+1 {
		t.Fatalf("watermark probes admitted %d jobs, want 1", ss.Len()-n)
	}
}

// TestOnlineSessionCommitOnly: removals are rejected from the start,
// out-of-order Adds are rejected without being admitted, and the
// watermark tracks the last arrival.
func TestOnlineSessionCommitOnly(t *testing.T) {
	ss, err := Solver{}.OpenOnline(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.Remove(0); !errors.Is(err, ErrCommitOnly) {
		t.Fatalf("Remove before the first arrival: %v, want ErrCommitOnly", err)
	}
	id, err := ss.Add(Job{Release: 5, Deadline: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Remove(id); !errors.Is(err, ErrCommitOnly) {
		t.Fatalf("Remove on online session: %v, want ErrCommitOnly", err)
	}
	if _, err := ss.Add(Job{Release: 3, Deadline: 9}); !errors.Is(err, ErrReleaseOrder) {
		t.Fatalf("out-of-order Add: %v, want ErrReleaseOrder", err)
	}
	if ss.Len() != 1 {
		t.Fatalf("rejected Add was admitted: Len %d", ss.Len())
	}
	sol, err := ss.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.CompetitiveRatio != 1 || sol.Spans != 1 {
		t.Fatalf("singleton prefix: ratio %v spans %d", sol.CompetitiveRatio, sol.Spans)
	}
	// The sole job is not yet committed: its unit lies at the frontier.
	if sol.CommittedJobs != 0 || sol.CommittedCost != 0 {
		t.Fatalf("nothing is committed yet: %d jobs / cost %v", sol.CommittedJobs, sol.CommittedCost)
	}
	expectWatermark(t, ss, 5) // admits a second job released at 5
	if _, err := ss.Add(Job{Release: 40, Deadline: 41}); err != nil {
		t.Fatal(err)
	}
	sol, err = ss.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.CommittedJobs != 2 {
		t.Fatalf("both jobs released at 5 should be committed after time advanced: %+v", sol.CommittedJobs)
	}
	// An offline session is not commit-only: it admits arrivals in any
	// order and removes them.
	off, err := Solver{}.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	late, err := off.Add(Job{Release: 5, Deadline: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Add(Job{Release: 3, Deadline: 9}); err != nil {
		t.Fatalf("offline out-of-order Add: %v", err)
	}
	if err := off.Remove(late); err != nil {
		t.Fatalf("offline Remove: %v", err)
	}
}

// TestOnlineSessionStepMisuse: an arrival released before the
// watermark is rejected with ErrReleaseOrder, an empty window is
// rejected as a window error whether its release is before the
// watermark or after it, and no rejected Add is admitted or moves the
// watermark.
func TestOnlineSessionStepMisuse(t *testing.T) {
	ss, err := Solver{}.OpenOnline(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.Add(Job{Release: 5, Deadline: 6}); err != nil {
		t.Fatal(err)
	}
	for _, early := range []Job{{Release: 3, Deadline: 9}, {Release: 4, Deadline: 5}} {
		if _, err := ss.Add(early); !errors.Is(err, ErrReleaseOrder) {
			t.Fatalf("pre-watermark Add %v: %v, want ErrReleaseOrder", early, err)
		}
	}
	// The window is checked first, so an empty window is never reported
	// as a release-order error.
	for _, bad := range []Job{{Release: 3, Deadline: 1}, {Release: 9, Deadline: 8}} {
		if _, err := ss.Add(bad); err == nil || errors.Is(err, ErrReleaseOrder) {
			t.Fatalf("empty-window Add %v: %v, want a window error", bad, err)
		}
	}
	if ss.Len() != 1 {
		t.Fatalf("rejected Adds were admitted: Len %d", ss.Len())
	}
	expectWatermark(t, ss, 5)
}

// TestOpenOnlineValidation: OpenOnline rejects the configurations Open
// rejects — a negative processor count, a negative transition cost —
// and defaults 0 processors to 1.
func TestOpenOnlineValidation(t *testing.T) {
	if _, err := (Solver{}).OpenOnline(-1); err == nil {
		t.Error("OpenOnline(-1) accepted")
	}
	for _, s := range []Solver{{Alpha: -1}, {Objective: ObjectivePower, Alpha: -1}} {
		if _, err := s.OpenOnline(1); err == nil {
			t.Errorf("%+v.OpenOnline accepted", s)
		}
	}
	ss, err := Solver{Objective: ObjectivePower, Alpha: 3}.OpenOnline(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.Instance().Procs != 1 {
		t.Fatalf("OpenOnline(0) runs on %d processors, want 1", ss.Instance().Procs)
	}
}

// TestOnlineSessionInfeasibleIsSticky: a committed deadline miss makes
// every later Resolve infeasible, while Adds continue to be accepted.
func TestOnlineSessionInfeasibleIsSticky(t *testing.T) {
	ss, err := Solver{}.OpenOnline(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for i := 0; i < 2; i++ {
		if _, err := ss.Add(Job{Release: 0, Deadline: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.Add(Job{Release: 10, Deadline: 12}); err != nil {
		t.Fatalf("Add after miss: %v", err)
	}
	if _, err := ss.Resolve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Resolve: %v, want ErrInfeasible", err)
	}
	if ss.Len() != 3 {
		t.Fatalf("Len %d, want 3", ss.Len())
	}
}

// TestOnlineSessionEmptyAndClosed: zero-job Resolve works; closed
// sessions answer like offline ones.
func TestOnlineSessionEmptyAndClosed(t *testing.T) {
	ss, err := Solver{}.OpenOnline(2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ss.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Spans != 0 || sol.CompetitiveRatio != 1 {
		t.Fatalf("empty resolve: %+v", sol)
	}
	ss.Close()
	if _, err := ss.Add(Job{Release: 0, Deadline: 1}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Add after Close: %v", err)
	}
	// Closing is checked before the commit-only rule.
	if err := ss.Remove(0); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Remove after Close: %v, want ErrSessionClosed", err)
	}
	if ss.Len() != 0 || len(ss.Instance().Jobs) != 0 {
		t.Fatal("closed online session still reports live state")
	}
}
