package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/sched"
	"repro/internal/workload"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSolvePowerTrivial(t *testing.T) {
	cases := []struct {
		name  string
		in    sched.Instance
		alpha float64
		power float64
	}{
		{"empty", sched.NewInstance(nil), 2, 0},
		{"single job", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 5}}), 2, 3},
		{"chain", workload.TightChain(4), 3, 7},
		// Two jobs two apart: bridge (cost 1) beats sleeping (alpha=2):
		// 2 busy + alpha + 1 bridge = 5.
		{"bridge short gap", sched.NewInstance([]sched.Job{
			{Release: 0, Deadline: 0}, {Release: 2, Deadline: 2}}), 2, 5},
		// Gap of 5 with alpha=2: sleep. 2 busy + 2 wakes * 2 = 6.
		{"sleep long gap", sched.NewInstance([]sched.Job{
			{Release: 0, Deadline: 0}, {Release: 6, Deadline: 6}}), 2, 6},
		// alpha = 0: transitions free; any feasible schedule costs n.
		{"alpha zero", sched.NewInstance([]sched.Job{
			{Release: 0, Deadline: 0}, {Release: 4, Deadline: 4}}), 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolvePower(tc.in, tc.alpha)
			if err != nil {
				t.Fatalf("SolvePower: %v", err)
			}
			if !almostEqual(res.Power, tc.power) {
				t.Fatalf("power = %v, want %v", res.Power, tc.power)
			}
		})
	}
}

func TestSolvePowerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphas := []float64{0, 0.5, 1, 2, 3.5, 10}
	for trial := 0; trial < 250; trial++ {
		n := 1 + rng.Intn(7)
		p := 1 + rng.Intn(3)
		alpha := alphas[rng.Intn(len(alphas))]
		in := workload.Multiproc(rng, n, p, 10, 4)
		want, feasible := exact.PowerOneInterval(in, alpha)
		res, err := SolvePower(in, alpha)
		if !feasible {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: oracle infeasible, DP err %v (p=%d α=%v jobs %v)", trial, err, p, alpha, in.Jobs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: DP failed on feasible instance: %v (p=%d α=%v jobs %v)", trial, err, p, alpha, in.Jobs)
		}
		if !almostEqual(res.Power, want) {
			t.Fatalf("trial %d: DP power %v, oracle %v (p=%d α=%v jobs %v)", trial, res.Power, want, p, alpha, in.Jobs)
		}
		if got := res.Schedule.PowerCost(alpha); !almostEqual(got, want) {
			t.Fatalf("trial %d: schedule power %v, oracle %v (p=%d α=%v jobs %v)", trial, got, want, p, alpha, in.Jobs)
		}
	}
}

// TestPowerOracleMatchesUltraBrute certifies the staircase normalization
// of the power oracle against a normalization-free enumeration.
func TestPowerOracleMatchesUltraBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alphas := []float64{0.5, 1.5, 4}
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(5)
		p := 1 + rng.Intn(2)
		alpha := alphas[rng.Intn(len(alphas))]
		in := workload.Multiproc(rng, n, p, 7, 3)
		a, okA := exact.PowerOneInterval(in, alpha)
		b, okB := exact.UltraBrutePower(in, alpha)
		if okA != okB {
			t.Fatalf("trial %d: oracle feasible=%v ultra-brute=%v (p=%d jobs %v)", trial, okA, okB, p, in.Jobs)
		}
		if okA && !almostEqual(a, b) {
			t.Fatalf("trial %d: oracle %v, ultra-brute %v (p=%d α=%v jobs %v)", trial, a, b, p, alpha, in.Jobs)
		}
	}
}

// TestPowerGapConsistency checks the relations between the two optima:
// the power optimum is bounded above by the optimal-bridging power of the
// gap-optimal schedule, bounded below by n + alpha (one wake-up is
// unavoidable), and equals exactly n when transitions are free.
func TestPowerGapConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphas := []float64{0.5, 2, 1000}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		p := 1 + rng.Intn(2)
		alpha := alphas[trial%len(alphas)]
		in := workload.FeasibleOneInterval(rng, n, p, 10, 4)
		gapRes, err := SolveGaps(in)
		if err != nil {
			t.Fatalf("trial %d: SolveGaps: %v", trial, err)
		}
		powRes, err := SolvePower(in, alpha)
		if err != nil {
			t.Fatalf("trial %d: SolvePower: %v", trial, err)
		}
		upper := gapRes.Schedule.PowerCost(alpha)
		if powRes.Power > upper+1e-9 {
			t.Fatalf("trial %d: power %v exceeds gap-schedule power %v (p=%d α=%v jobs %v)",
				trial, powRes.Power, upper, p, alpha, in.Jobs)
		}
		if lower := float64(n) + alpha; powRes.Power < lower-1e-9 {
			t.Fatalf("trial %d: power %v below n+α = %v", trial, powRes.Power, lower)
		}
		free, err := SolvePower(in, 0)
		if err != nil {
			t.Fatalf("trial %d: SolvePower(0): %v", trial, err)
		}
		if !almostEqual(free.Power, float64(n)) {
			t.Fatalf("trial %d: α=0 power %v, want n = %d", trial, free.Power, n)
		}
	}
}

// TestSolvePowerRejectsNegativeAlpha: a negative, NaN or infinite
// alpha is rejected as invalid, never answered as infeasible.
func TestSolvePowerRejectsNegativeAlpha(t *testing.T) {
	in := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 1}})
	for _, alpha := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := SolvePower(in, alpha); err != errInvalidAlpha {
			t.Fatalf("α=%v: got %v, want %v", alpha, err, errInvalidAlpha)
		}
	}
}
