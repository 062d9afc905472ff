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
		// The widest horizon the time-range rule admits: three point
		// jobs at ±2⁶¹ on three processors sleep through the 2⁶² gap,
		// 6 busy units + 6 wakes · α = 18; bridging it would cost
		// 3·(2⁶²−1), which overflowed an int product.
		{"wide horizon", sched.NewMultiprocInstance([]sched.Job{
			{Release: -1 << 61, Deadline: -1 << 61}, {Release: -1 << 61, Deadline: -1 << 61}, {Release: -1 << 61, Deadline: -1 << 61},
			{Release: 1 << 61, Deadline: 1 << 61}, {Release: 1 << 61, Deadline: 1 << 61}, {Release: 1 << 61, Deadline: 1 << 61}}, 3), 2, 18},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(tc.in, Objective{Power: true, Alpha: tc.alpha}, Options{})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if !almostEqual(res.Cost, tc.power) {
				t.Fatalf("power = %v, want %v", res.Cost, tc.power)
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
		res, err := Solve(in, Objective{Power: true, Alpha: alpha}, Options{})
		if !feasible {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: oracle infeasible, DP err %v (p=%d α=%v jobs %v)", trial, err, p, alpha, in.Jobs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: DP failed on feasible instance: %v (p=%d α=%v jobs %v)", trial, err, p, alpha, in.Jobs)
		}
		if !almostEqual(res.Cost, want) {
			t.Fatalf("trial %d: DP power %v, oracle %v (p=%d α=%v jobs %v)", trial, res.Cost, want, p, alpha, in.Jobs)
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
		gapRes, err := Solve(in, Objective{}, Options{})
		if err != nil {
			t.Fatalf("trial %d: gaps: %v", trial, err)
		}
		powRes, err := Solve(in, Objective{Power: true, Alpha: alpha}, Options{})
		if err != nil {
			t.Fatalf("trial %d: power: %v", trial, err)
		}
		upper := gapRes.Schedule.PowerCost(alpha)
		if powRes.Cost > upper+1e-9 {
			t.Fatalf("trial %d: power %v exceeds gap-schedule power %v (p=%d α=%v jobs %v)",
				trial, powRes.Cost, upper, p, alpha, in.Jobs)
		}
		if lower := float64(n) + alpha; powRes.Cost < lower-1e-9 {
			t.Fatalf("trial %d: power %v below n+α = %v", trial, powRes.Cost, lower)
		}
		free, err := Solve(in, Objective{Power: true}, Options{})
		if err != nil {
			t.Fatalf("trial %d: power at α=0: %v", trial, err)
		}
		if !almostEqual(free.Cost, float64(n)) {
			t.Fatalf("trial %d: α=0 power %v, want n = %d", trial, free.Cost, n)
		}
	}
}

// TestSolvePowerRejectsNegativeAlpha: a negative, NaN or infinite
// alpha is rejected as invalid, never answered as infeasible.
func TestSolvePowerRejectsNegativeAlpha(t *testing.T) {
	in := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 1}})
	for _, alpha := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Solve(in, Objective{Power: true, Alpha: alpha}, Options{}); err != errInvalidAlpha {
			t.Fatalf("α=%v: got %v, want %v", alpha, err, errInvalidAlpha)
		}
	}
}
