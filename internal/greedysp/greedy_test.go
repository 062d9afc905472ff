package greedysp

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSolveProducesValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(9), 1, 14, 5)
		res, err := Solve(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Spans != res.Schedule.Spans() {
			t.Fatalf("trial %d: spans field %d, schedule %d", trial, res.Spans, res.Schedule.Spans())
		}
	}
}

// TestGreedyWithin3OfOptimalSpans asserts the [FHKN06] factor against
// the exact DP under the paper's §5 convention, which counts one
// infinite idle interval as a gap — i.e. on span counts. Under strict
// finite-gap counting the multiplicative claim is unsatisfiable by the
// literal largest-gap-first greedy: instances with OPT = 0 gaps can
// force it to introduce gaps (see TestGreedyOptZeroCounterexample).
// Since [FHKN06] is an unpublished manuscript, we record the guarantee
// that does hold empirically — spans ≤ 3·OPTspans — here and in
// EXPERIMENTS.md (E10).
func TestGreedyWithin3OfOptimalSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 150; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(8), 1, 12, 5)
		res, err := Solve(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := core.Solve(in, core.Objective{}, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if float64(res.Spans) > 3*opt.Cost {
			t.Fatalf("trial %d: greedy %d spans > 3×OPT %v (jobs %v)", trial, res.Spans, opt.Cost, in.Jobs)
		}
	}
}

// TestGreedyOptZeroCounterexample pins down the strict-gap-counting
// failure mode: the only largest feasible idle interval splits an
// instance whose optimum is a single span.
func TestGreedyOptZeroCounterexample(t *testing.T) {
	in := sched.NewInstance([]sched.Job{
		{Release: 7, Deadline: 8}, {Release: 2, Deadline: 6}, {Release: 9, Deadline: 11},
		{Release: 8, Deadline: 10}, {Release: 7, Deadline: 11},
	})
	opt, err := core.Solve(in, core.Objective{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost != 1 {
		t.Fatalf("counterexample optimum %v spans, expected 1 (no gaps)", opt.Cost)
	}
	res, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Spans - 1; got < 1 {
		t.Fatalf("greedy gaps = %d; the documented counterexample expects ≥ 1", got)
	}
}

func TestSolveInfeasible(t *testing.T) {
	in := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}})
	if _, err := Solve(in); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveRejectsMultiproc(t *testing.T) {
	in := sched.NewMultiprocInstance([]sched.Job{{Release: 0, Deadline: 1}}, 2)
	if _, err := Solve(in); err == nil {
		t.Fatal("accepted multiprocessor instance")
	}
}

func TestSolveEmptyAndSingle(t *testing.T) {
	if res, err := Solve(sched.NewInstance(nil)); err != nil || res.Spans != 0 {
		t.Fatalf("empty: res=%+v err=%v", res, err)
	}
	res, err := Solve(sched.NewInstance([]sched.Job{{Release: 2, Deadline: 6}}))
	if err != nil || res.Spans != 1 {
		t.Fatalf("single: spans=%d err=%v", res.Spans, err)
	}
}

// TestForbiddenIntervalsAreMaximal: after termination no further unit
// can be forbidden — every allowed time is needed by every schedule.
func TestForbiddenIntervalsAreMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(6), 1, 10, 4)
		res, err := Solve(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The schedule saturates its allowed region: spans of the
		// schedule equal spans of the non-forbidden busy region.
		want, _ := exact.SpansOneInterval(in)
		if res.Spans < want {
			t.Fatalf("trial %d: greedy %d spans below optimum %d — invalid", trial, res.Spans, want)
		}
	}
}
