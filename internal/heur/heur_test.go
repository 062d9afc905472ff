package heur_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	gapsched "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/feas"
	"repro/internal/heur"
	"repro/internal/sched"
	"repro/internal/workload"
)

// heurGaps and heurPower run the heuristic tier through the facade for
// the whole-instance assertions below: Greedy on every fragment, and
// the per-fragment certificates FragmentSpanLB and FragmentPowerLB
// summed into Solution.LowerBound.
var heurGaps = gapsched.Solver{Mode: gapsched.ModeHeuristic}

func heurPower(alpha float64) gapsched.Solver {
	return gapsched.Solver{Mode: gapsched.ModeHeuristic, Objective: gapsched.ObjectivePower, Alpha: alpha}
}

// TestGreedyMatchesFeasibilityOracle: the lazy-wakeup greedy must agree
// with Hall's condition on every random instance — succeeding with a
// valid schedule exactly when the instance is feasible.
func TestGreedyMatchesFeasibilityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(9)
		p := 1 + rng.Intn(3)
		in := workload.Multiproc(rng, n, p, 4+rng.Intn(24), 1+rng.Intn(5))
		want := feas.FeasibleOneInterval(in)
		s, err := heur.Greedy(in)
		if want != (err == nil) {
			t.Fatalf("greedy feasibility %v, Hall %v (jobs %v procs %d)", err == nil, want, in.Jobs, in.Procs)
		}
		if err != nil {
			if !errors.Is(err, heur.ErrInfeasible) {
				t.Fatalf("greedy failed with %v, want heur.ErrInfeasible", err)
			}
			continue
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("greedy schedule invalid: %v (jobs %v procs %d)", err, in.Jobs, in.Procs)
		}
	}
}

// TestSolveSandwich: on small instances the heuristic cost must be
// sandwiched by the certificates — LowerBound ≤ OPT ≤ Cost — for both
// objectives, against the exact DP.
func TestSolveSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(2)
		in := workload.FeasibleOneInterval(rng, n, p, 4+rng.Intn(30), 1+rng.Intn(5))
		alpha := float64(rng.Intn(9)) / 2

		gr, err := heurGaps.Solve(in)
		if err != nil {
			t.Fatalf("heuristic gaps: %v (jobs %v)", err, in.Jobs)
		}
		opt, err := core.Solve(in, core.Objective{}, core.Options{})
		if err != nil {
			t.Fatalf("core.Solve: %v", err)
		}
		if opt.Cost < gr.LowerBound || float64(gr.Spans) < opt.Cost {
			t.Fatalf("span sandwich violated: lb %v opt %v heur %d (jobs %v procs %d)",
				gr.LowerBound, opt.Cost, gr.Spans, in.Jobs, in.Procs)
		}
		if gr.Spans != gr.Schedule.Spans() {
			t.Fatalf("span accounting inconsistent: Spans %d, schedule %d", gr.Spans, gr.Schedule.Spans())
		}

		pr, err := heurPower(alpha).Solve(in)
		if err != nil {
			t.Fatalf("heuristic power: %v (jobs %v)", err, in.Jobs)
		}
		popt, err := core.Solve(in, core.Objective{Power: true, Alpha: alpha}, core.Options{})
		if err != nil {
			t.Fatalf("core.Solve: %v", err)
		}
		if popt.Cost < pr.LowerBound-1e-9 || pr.Power < popt.Cost-1e-9 {
			t.Fatalf("power sandwich violated: lb %v opt %v heur %v (jobs %v procs %d alpha %v)",
				pr.LowerBound, popt.Cost, pr.Power, in.Jobs, in.Procs, alpha)
		}
	}
}

// TestGreedyIsOptimalOnEasyShapes: on shapes where laziness plus eager
// extension is obviously right, the greedy must hit the exact optimum.
func TestGreedyIsOptimalOnEasyShapes(t *testing.T) {
	cases := []struct {
		name string
		in   sched.Instance
		want int // optimal spans
	}{
		{"tight chain", workload.TightChain(6), 1},
		{"two far clusters", sched.NewInstance([]sched.Job{
			{Release: 0, Deadline: 2}, {Release: 1, Deadline: 3},
			{Release: 50, Deadline: 52}, {Release: 51, Deadline: 53},
		}), 2},
		{"flexible absorbed by forced", sched.NewInstance([]sched.Job{
			{Release: 0, Deadline: 100},
			{Release: 40, Deadline: 40},
		}), 1},
		{"single job", sched.NewInstance([]sched.Job{{Release: 7, Deadline: 9}}), 1},
	}
	for _, c := range cases {
		res, err := heurGaps.Solve(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Spans != c.want {
			t.Errorf("%s: greedy spans %d, want %d", c.name, res.Spans, c.want)
		}
		if res.LowerBound > float64(c.want) {
			t.Errorf("%s: lower bound %v above optimum %d", c.name, res.LowerBound, c.want)
		}
	}
}

// TestLowerBoundsAgainstOracle: the certificates must never exceed the
// true optimum on exhaustively checkable instances.
func TestLowerBoundsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		in := workload.FeasibleOneInterval(rng, n, 1+rng.Intn(2), 3+rng.Intn(14), 1+rng.Intn(4))
		alpha := float64(rng.Intn(7)) / 2
		if spans, ok := exact.SpansOneInterval(in); ok {
			if lb := lowerBound(t, heurGaps, in); lb > float64(spans) {
				t.Fatalf("span LB %v > oracle optimum %d (jobs %v procs %d)", lb, spans, in.Jobs, in.Procs)
			}
		}
		if power, ok := exact.PowerOneInterval(in, alpha); ok {
			if lb := lowerBound(t, heurPower(alpha), in); lb > power+1e-9 {
				t.Fatalf("power LB %v > oracle optimum %v (jobs %v procs %d alpha %v)", lb, power, in.Jobs, in.Procs, alpha)
			}
		}
	}
}

// lowerBound returns the certified lower bound of s's solve of a
// feasible instance.
func lowerBound(t *testing.T, s gapsched.Solver, in sched.Instance) float64 {
	t.Helper()
	sol, err := s.Solve(in)
	if err != nil {
		t.Fatalf("%v heuristic solve: %v (jobs %v procs %d)", s.Objective, err, in.Jobs, in.Procs)
	}
	return sol.LowerBound
}

// TestLowerBoundShapes pins the bounds on hand-checkable instances.
func TestLowerBoundShapes(t *testing.T) {
	// Three singleton clusters far apart: 3 forced spans; at alpha = 2
	// each cluster pays its active unit plus one wake.
	scattered := sched.NewInstance([]sched.Job{
		{Release: 0, Deadline: 0}, {Release: 50, Deadline: 50}, {Release: 100, Deadline: 100},
	})
	if lb := lowerBound(t, heurGaps, scattered); lb != 3 {
		t.Errorf("scattered span LB %v, want 3", lb)
	}
	if lb := lowerBound(t, heurPower(2), scattered); lb != 3+3*2 {
		t.Errorf("scattered power LB %v, want 9", lb)
	}
	// A huge alpha bridges everything: one power fragment, one wake.
	if lb := lowerBound(t, heurPower(1000), scattered); lb != 3+1000 {
		t.Errorf("bridged power LB %v, want 1003", lb)
	}
	// Density: 6 jobs crammed into a width-2 window force level 3, so
	// at least 3 spans even though it is a single fragment.
	dense := sched.NewMultiprocInstance([]sched.Job{
		{Release: 0, Deadline: 1}, {Release: 0, Deadline: 1}, {Release: 0, Deadline: 1},
		{Release: 0, Deadline: 1}, {Release: 0, Deadline: 1}, {Release: 0, Deadline: 1},
	}, 3)
	if lb := lowerBound(t, heurGaps, dense); lb != 3 {
		t.Errorf("dense span LB %v, want 3", lb)
	}
	// Empty instance: nothing to pay for.
	if lb := lowerBound(t, heurGaps, sched.Instance{Procs: 1}); lb != 0 {
		t.Errorf("empty span LB %v, want 0", lb)
	}
	if lb := lowerBound(t, heurPower(2), sched.Instance{Procs: 1}); lb != 0 {
		t.Errorf("empty power LB %v, want 0", lb)
	}
}

// TestGreedyLargeInstance: the constructor must handle a 100k-job
// stress instance quickly and feasibly — the scale the exact tier
// cannot touch. (Plain go test; the timed version is E20.)
func TestGreedyLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	rng := rand.New(rand.NewSource(23))
	in := workload.StressBursty(rng, 100_000, 4)
	res, err := heurGaps.Solve(in)
	if err != nil {
		t.Fatalf("heuristic gaps: %v", err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if res.LowerBound < 1 || float64(res.Spans) < res.LowerBound {
		t.Fatalf("degenerate certificate: cost %d lb %v", res.Spans, res.LowerBound)
	}
	pres, err := heurPower(4).Solve(in)
	if err != nil {
		t.Fatalf("heuristic power: %v", err)
	}
	if pres.Power < pres.LowerBound {
		t.Fatalf("power certificate inverted: cost %v lb %v", pres.Power, pres.LowerBound)
	}
}

// TestGreedyLargeAbsoluteTimes: instances living at huge absolute
// times (epoch-scale timestamps, windows near MaxInt) must not
// overflow the wake-bound arithmetic into spurious infeasibility —
// the greedy translates to a zero-based timeline and saturates.
func TestGreedyLargeAbsoluteTimes(t *testing.T) {
	base := math.MaxInt/2 + 10
	in := sched.NewMultiprocInstance([]sched.Job{
		{Release: base, Deadline: base},
		{Release: base, Deadline: base},
		{Release: base + 1000, Deadline: base + 1002},
	}, 2)
	s, err := heur.Greedy(in)
	if err != nil {
		t.Fatalf("greedy on large absolute times: %v", err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// Two simultaneous jobs occupy two processors (2 per-processor
	// spans) and the far cluster adds one more: 3 spans, certified.
	res, err := heurGaps.Solve(in)
	if err != nil || res.Spans != 3 || res.LowerBound != 3 {
		t.Fatalf("large-time solve: spans %d lb %v err %v", res.Spans, res.LowerBound, err)
	}
	// Degenerate width: a single job whose window spans most of the
	// int range still schedules (saturated wake bound, conservative
	// wake).
	wide := sched.NewInstance([]sched.Job{{Release: 0, Deadline: math.MaxInt - 4}})
	if _, err := heur.Greedy(wide); err != nil {
		t.Fatalf("greedy on a near-MaxInt window: %v", err)
	}
	// Saturated regime with a late arrival: the zero-based horizon
	// exceeds MaxInt/p, so the capped wake bound dips below the far
	// arrival — the overflow-safe Hall re-check must recognize the
	// instance as feasible and wake at the arrival instead.
	sat := sched.NewMultiprocInstance([]sched.Job{
		{Release: 0, Deadline: math.MaxInt - 5},
		{Release: 0, Deadline: 0},
		{Release: math.MaxInt - 10, Deadline: math.MaxInt - 5},
	}, 2)
	s, err = heur.Greedy(sat)
	if err != nil {
		t.Fatalf("greedy on a saturated horizon: %v", err)
	}
	if err := s.Validate(sat); err != nil {
		t.Fatalf("saturated-horizon schedule invalid: %v", err)
	}
	// And a genuinely infeasible instance in the same regime is still
	// detected (three point jobs on two processors).
	satBad := sched.NewMultiprocInstance([]sched.Job{
		{Release: 0, Deadline: math.MaxInt - 5},
		{Release: math.MaxInt - 7, Deadline: math.MaxInt - 7},
		{Release: math.MaxInt - 7, Deadline: math.MaxInt - 7},
		{Release: math.MaxInt - 7, Deadline: math.MaxInt - 7},
	}, 2)
	if _, err := heur.Greedy(satBad); !errors.Is(err, heur.ErrInfeasible) {
		t.Fatalf("saturated infeasible instance: got %v, want heur.ErrInfeasible", err)
	}
}

// TestGreedyEmptyAndDegenerate covers the trivial shapes.
func TestGreedyEmptyAndDegenerate(t *testing.T) {
	s, err := heur.Greedy(sched.Instance{Procs: 2})
	if err != nil || len(s.Slots) != 0 {
		t.Fatalf("empty instance: %v %v", s, err)
	}
	if _, err := heur.Greedy(sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 0}}, Procs: 0}); err == nil {
		t.Fatal("0-processor instance must be rejected")
	}
	if _, err := heurPower(-1).Solve(sched.Instance{Procs: 1}); err == nil {
		t.Fatal("negative alpha must be rejected")
	}
	// Two same-slot jobs on one processor: infeasible.
	clash := sched.NewInstance([]sched.Job{{Release: 3, Deadline: 3}, {Release: 3, Deadline: 3}})
	if _, err := heur.Greedy(clash); !errors.Is(err, heur.ErrInfeasible) {
		t.Fatalf("clash: got %v, want heur.ErrInfeasible", err)
	}
	if _, err := heurGaps.Solve(clash); !errors.Is(err, gapsched.ErrInfeasible) {
		t.Fatalf("heuristic gaps: got %v, want gapsched.ErrInfeasible", err)
	}
	if _, err := heurPower(1).Solve(clash); !errors.Is(err, gapsched.ErrInfeasible) {
		t.Fatalf("heuristic power: got %v, want gapsched.ErrInfeasible", err)
	}
}
