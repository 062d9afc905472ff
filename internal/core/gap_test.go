package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/feas"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSolveGapsTrivial(t *testing.T) {
	cases := []struct {
		name  string
		in    sched.Instance
		spans int
	}{
		{"empty", sched.NewInstance(nil), 0},
		{"single job", sched.NewInstance([]sched.Job{{Release: 3, Deadline: 7}}), 1},
		{"chain", workload.TightChain(5), 1},
		{"two isolated", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 10, Deadline: 10}}), 2},
		{"mergeable", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 2}, {Release: 0, Deadline: 2}}), 1},
		{"forced gap", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 2, Deadline: 2}}), 2},
		{"bridgeable window", sched.NewInstance([]sched.Job{
			{Release: 0, Deadline: 0}, {Release: 0, Deadline: 4}, {Release: 2, Deadline: 2}}), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(tc.in, Objective{}, Options{})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Cost != float64(tc.spans) {
				t.Fatalf("spans = %v, want %d", res.Cost, tc.spans)
			}
			if len(tc.in.Jobs) > 0 && float64(res.Schedule.Spans()) != res.Cost {
				t.Fatalf("schedule has %d spans, DP claims %v", res.Schedule.Spans(), res.Cost)
			}
		})
	}
}

func TestSolveGapsInfeasible(t *testing.T) {
	in := sched.NewInstance([]sched.Job{
		{Release: 0, Deadline: 0},
		{Release: 0, Deadline: 0},
	})
	if _, err := Solve(in, Objective{}, Options{}); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	in.Procs = 2
	if _, err := Solve(in, Objective{}, Options{}); err != nil {
		t.Fatalf("two processors make it feasible, got %v", err)
	}
}

// TestSolveRejectsOutOfRangeTimes: Solve applies the time-range rule
// itself, so no caller of the engine reaches its grid and boundary
// arithmetic with times near the ends of int, where the grid never
// ended (near MaxInt) or the virtual start wrapped into a wrong
// "infeasible" (near MinInt).
func TestSolveRejectsOutOfRangeTimes(t *testing.T) {
	for _, jobs := range [][]sched.Job{
		{{Release: math.MaxInt - 3, Deadline: math.MaxInt - 1}, {Release: math.MaxInt - 2, Deadline: math.MaxInt}},
		{{Release: math.MinInt, Deadline: math.MinInt + 2}, {Release: math.MinInt + 1, Deadline: math.MinInt + 3}},
	} {
		for _, obj := range []Objective{{}, {Power: true, Alpha: 2}} {
			for _, opts := range []Options{{}, {NoPrune: true}} {
				if _, err := Solve(sched.NewInstance(jobs), obj, opts); !errors.Is(err, sched.ErrTimeRange) {
					t.Fatalf("jobs %v, %+v %+v: error %v, want sched.ErrTimeRange", jobs, obj, opts, err)
				}
			}
		}
	}
}

// TestGreedyRejectsWhatSolveRejects: the heuristic entry applies
// Solve's input checks — the instance, the time-range rule, the alpha
// — and reports an infeasible instance as ErrInfeasible, the error
// Solve and the facade report, not the greedy's own.
func TestGreedyRejectsWhatSolveRejects(t *testing.T) {
	clash := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}})
	if _, err := Greedy(clash, Objective{}); err != ErrInfeasible {
		t.Errorf("clash: err = %v, want ErrInfeasible", err)
	}
	edge := sched.NewInstance([]sched.Job{{Release: math.MaxInt - 3, Deadline: math.MaxInt - 1}, {Release: 0, Deadline: 0}})
	if _, err := Greedy(edge, Objective{}); !errors.Is(err, sched.ErrTimeRange) {
		t.Errorf("times near MaxInt: err = %v, want sched.ErrTimeRange", err)
	}
	if _, err := Greedy(sched.NewInstance([]sched.Job{{Release: 2, Deadline: 1}}), Objective{}); err == nil {
		t.Error("an empty window was accepted")
	}
	if _, err := Greedy(sched.NewInstance([]sched.Job{{Release: 0, Deadline: 1}}), Objective{Power: true, Alpha: -1}); err != errInvalidAlpha {
		t.Errorf("alpha −1: err = %v, want errInvalidAlpha", err)
	}
	r, err := Greedy(sched.Instance{Procs: 2}, Objective{Power: true, Alpha: 2})
	if err != nil || r.Cost != 0 || r.LowerBound != 0 || len(r.Schedule.Slots) != 0 || r.Schedule.Procs != 2 {
		t.Errorf("empty instance: %+v, %v", r, err)
	}
}

func TestSolveGapsMatchesOracleSingleProc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		in := workload.OneInterval(rng, n, 12, 5)
		want, feasible := exact.SpansOneInterval(in)
		res, err := Solve(in, Objective{}, Options{})
		if !feasible {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: oracle says infeasible, DP says %v (instance %v)", trial, err, in.Jobs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: oracle feasible but DP failed: %v (instance %v)", trial, err, in.Jobs)
		}
		if res.Cost != float64(want) {
			t.Fatalf("trial %d: DP spans %v, oracle %d (instance %v)", trial, res.Cost, want, in.Jobs)
		}
		if got := res.Schedule.Spans(); got != want {
			t.Fatalf("trial %d: reconstructed schedule has %d spans, want %d", trial, got, want)
		}
	}
}

func TestSolveGapsMatchesOracleMultiProc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(3)
		in := workload.Multiproc(rng, n, p, 10, 4)
		want, feasible := exact.SpansOneInterval(in)
		res, err := Solve(in, Objective{}, Options{})
		if !feasible {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: oracle infeasible, DP err %v (p=%d jobs %v)", trial, err, p, in.Jobs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: DP failed on feasible instance: %v (p=%d jobs %v)", trial, err, p, in.Jobs)
		}
		if res.Cost != float64(want) {
			t.Fatalf("trial %d: DP spans %v, oracle %d (p=%d jobs %v)", trial, res.Cost, want, p, in.Jobs)
		}
	}
}

// TestOracleMatchesUltraBrute certifies the staircase/EDF normalizations
// of the oracle itself against a normalization-free enumeration.
func TestOracleMatchesUltraBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(5)
		p := 1 + rng.Intn(2)
		in := workload.Multiproc(rng, n, p, 7, 3)
		a, okA := exact.SpansOneInterval(in)
		b, okB := exact.UltraBruteSpans(in)
		if okA != okB {
			t.Fatalf("trial %d: oracle feasible=%v, ultra-brute=%v (p=%d jobs %v)", trial, okA, okB, p, in.Jobs)
		}
		if okA && a != b {
			t.Fatalf("trial %d: oracle %d, ultra-brute %d (p=%d jobs %v)", trial, a, b, p, in.Jobs)
		}
	}
}

func TestSolveGapsFeasibilityAgreesWithHall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(7)
		p := 1 + rng.Intn(2)
		in := workload.Multiproc(rng, n, p, 8, 3)
		_, feasible := exact.SpansOneInterval(in)
		if hall := feas.FeasibleOneInterval(in); hall != feasible {
			t.Fatalf("trial %d: Hall=%v oracle=%v (p=%d jobs %v)", trial, hall, feasible, p, in.Jobs)
		}
	}
}

func TestSolveGapsLargerSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := workload.FeasibleOneInterval(rng, 16, 2, 24, 6)
	res, err := Solve(in, Objective{}, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if float64(res.Schedule.Spans()) != res.Cost {
		t.Fatalf("schedule spans %d != claimed %v", res.Schedule.Spans(), res.Cost)
	}
}
