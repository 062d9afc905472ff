package gapsched

// Property tests for the Solver pipeline: the prep layer plus the
// unified DP engine must agree with the exponential-time oracles in
// internal/exact on randomized small instances, for both objectives,
// with preprocessing on and off; and SolveBatch must be a pure fan-out
// of Solve.

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exact"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSolverGapsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 250; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(3)
		// Wide, sparse horizons force prep splits; narrow ones force
		// infeasibility and single-fragment solves.
		horizon := 6 + rng.Intn(30)
		in := workload.Multiproc(rng, n, p, horizon, 4)
		want, feasible := exact.SpansOneInterval(in)
		for _, noPrep := range []bool{false, true} {
			sol, err := Solver{NoPreprocess: noPrep}.Solve(in)
			if !feasible {
				if err != ErrInfeasible {
					t.Fatalf("trial %d (noPrep=%v): oracle infeasible, solver err %v (p=%d jobs %v)",
						trial, noPrep, err, p, in.Jobs)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d (noPrep=%v): solver failed on feasible instance: %v (p=%d jobs %v)",
					trial, noPrep, err, p, in.Jobs)
			}
			if sol.Spans != want {
				t.Fatalf("trial %d (noPrep=%v): solver spans %d, oracle %d (p=%d jobs %v)",
					trial, noPrep, sol.Spans, want, p, in.Jobs)
			}
			if err := sol.Schedule.Validate(in); err != nil {
				t.Fatalf("trial %d (noPrep=%v): invalid schedule: %v", trial, noPrep, err)
			}
			if got := sol.Schedule.Spans(); got != want {
				t.Fatalf("trial %d (noPrep=%v): schedule spans %d, oracle %d", trial, noPrep, got, want)
			}
			if noPrep && sol.Subinstances != 1 {
				t.Fatalf("trial %d: NoPreprocess reported %d subinstances", trial, sol.Subinstances)
			}
		}
	}
}

func TestSolverPowerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	alphas := []float64{0, 0.5, 1, 2, 3.5, 10}
	for trial := 0; trial < 250; trial++ {
		n := 1 + rng.Intn(7)
		p := 1 + rng.Intn(2)
		alpha := alphas[rng.Intn(len(alphas))]
		horizon := 6 + rng.Intn(24)
		in := workload.Multiproc(rng, n, p, horizon, 4)
		want, feasible := exact.PowerOneInterval(in, alpha)
		for _, noPrep := range []bool{false, true} {
			sol, err := Solver{Objective: ObjectivePower, Alpha: alpha, NoPreprocess: noPrep}.Solve(in)
			if !feasible {
				if err != ErrInfeasible {
					t.Fatalf("trial %d (noPrep=%v): oracle infeasible, solver err %v (p=%d α=%v jobs %v)",
						trial, noPrep, err, p, alpha, in.Jobs)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d (noPrep=%v): solver failed: %v (p=%d α=%v jobs %v)",
					trial, noPrep, err, p, alpha, in.Jobs)
			}
			if math.Abs(sol.Power-want) > 1e-9 {
				t.Fatalf("trial %d (noPrep=%v): solver power %v, oracle %v (p=%d α=%v jobs %v)",
					trial, noPrep, sol.Power, want, p, alpha, in.Jobs)
			}
			if err := sol.Schedule.Validate(in); err != nil {
				t.Fatalf("trial %d (noPrep=%v): invalid schedule: %v", trial, noPrep, err)
			}
			if got := sol.Schedule.PowerCost(alpha); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d (noPrep=%v): schedule power %v, oracle %v", trial, noPrep, got, want)
			}
		}
	}
}

func TestSolverRejectsBadInput(t *testing.T) {
	if _, err := (Solver{Objective: ObjectivePower, Alpha: -1}).Solve(NewInstance(nil)); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := (Solver{Objective: Objective(99)}).Solve(NewInstance(nil)); err == nil {
		t.Fatal("unknown objective accepted")
	}
	bad := Instance{Jobs: []Job{{Release: 3, Deadline: 1}}, Procs: 1}
	for _, noPrep := range []bool{false, true} {
		if _, err := (Solver{NoPreprocess: noPrep}).Solve(bad); err == nil {
			t.Fatalf("empty-window job accepted (noPrep=%v)", noPrep)
		}
	}
}

// outOfRange lists instances whose times break the time-range rule:
// near MaxInt (the engine's grid loop never ended), near MinInt (its
// virtual start wrapped into a wrong "infeasible"), the whole int range
// and a ±2⁶² window (the zero-based translation overflowed into an
// empty window) and two point jobs MaxTime+1 apart.
var outOfRange = map[string][]Job{
	"near MaxInt":     {{Release: math.MaxInt - 3, Deadline: math.MaxInt - 1}, {Release: math.MaxInt - 2, Deadline: math.MaxInt}},
	"near MinInt":     {{Release: math.MinInt, Deadline: math.MinInt + 2}, {Release: math.MinInt + 1, Deadline: math.MinInt + 3}},
	"whole int range": {{Release: math.MinInt, Deadline: math.MaxInt}, {Release: 0, Deadline: 0}},
	"window ±2^62":    {{Release: -1 << 62, Deadline: 1 << 62}, {Release: 0, Deadline: 0}},
	"span MaxTime+1":  {{Release: -1 << 61, Deadline: -1 << 61}, {Release: 1<<62 + 1, Deadline: 1<<62 + 1}},
}

// TestTimeRangeRule: Solve and SolveBatch, in every mode and under
// both NoPreprocess settings, and Session.Apply reject every instance
// of outOfRange with an error wrapping sched.ErrTimeRange — never an
// answer, never ErrInfeasible, never a hang — and leave the session
// empty. A delta that breaks the rule only together with the session's
// live jobs is rejected too, and the widest instance the rule admits,
// three point jobs at −2⁶¹ and three at 2⁶¹ on three processors, is
// solved to its optimum by Solve, SolveBatch and a session in every
// mode: 6 spans, and power 6 + 6α = 18 at α = 2, where the engine's
// bridging cost once overflowed to −4.6·10¹⁸ under NoPreprocess.
func TestTimeRangeRule(t *testing.T) {
	for name, jobs := range outOfRange {
		in := NewMultiprocInstance(jobs, 2)
		for _, obj := range []Objective{ObjectiveGaps, ObjectivePower} {
			for _, mode := range []Mode{ModeExact, ModeHeuristic, ModeAuto} {
				for _, noPrep := range []bool{false, true} {
					s := Solver{Objective: obj, Alpha: 2, Mode: mode, NoPreprocess: noPrep}
					if _, err := s.Solve(in); !errors.Is(err, sched.ErrTimeRange) {
						t.Fatalf("%s, %v %v noPrep=%v: Solve error %v, want sched.ErrTimeRange", name, obj, mode, noPrep, err)
					}
					if res := s.SolveBatch([]Instance{in}); !errors.Is(res[0].Err, sched.ErrTimeRange) {
						t.Fatalf("%s, %v %v noPrep=%v: SolveBatch error %v, want sched.ErrTimeRange", name, obj, mode, noPrep, res[0].Err)
					}
				}
				ss, err := Solver{Objective: obj, Alpha: 2, Mode: mode}.Open(2)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := ss.Apply(jobs, nil); !errors.Is(err, sched.ErrTimeRange) || ss.Len() != 0 {
					t.Fatalf("%s, %v %v: Apply error %v with %d live jobs, want sched.ErrTimeRange and none", name, obj, mode, err, ss.Len())
				}
			}
		}
	}

	ss, err := Solver{}.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ss.Apply([]Job{{Release: -1 << 61, Deadline: -1 << 61}}, nil); err != nil {
		t.Fatal(err)
	}
	far := Job{Release: 1<<62 + 1, Deadline: 1<<62 + 1}
	if _, _, err := ss.Apply([]Job{far}, nil); !errors.Is(err, sched.ErrTimeRange) || ss.Len() != 1 {
		t.Fatalf("delta beyond the live horizon: error %v with %d live jobs, want sched.ErrTimeRange and 1", err, ss.Len())
	}

	var wide []Job
	for _, t0 := range []int{-1 << 61, 1 << 61} {
		wide = append(wide, Job{Release: t0, Deadline: t0}, Job{Release: t0, Deadline: t0}, Job{Release: t0, Deadline: t0})
	}
	in := NewMultiprocInstance(wide, 3)
	for _, mode := range []Mode{ModeExact, ModeHeuristic, ModeAuto} {
		for _, obj := range []Objective{ObjectiveGaps, ObjectivePower} {
			want := 6.0 // spans; power is 6 busy units + 6 wakes · α
			if obj == ObjectivePower {
				want = 18
			}
			for _, noPrep := range []bool{false, true} {
				s := Solver{Objective: obj, Alpha: 2, Mode: mode, NoPreprocess: noPrep}
				sol, err := s.Solve(in)
				if err != nil || obj.Cost(sol) != want {
					t.Fatalf("%v %v noPrep=%v: Solve cost %v, error %v; want %v", obj, mode, noPrep, obj.Cost(sol), err, want)
				}
				if res := s.SolveBatch([]Instance{in}); res[0].Err != nil || obj.Cost(res[0].Solution) != want {
					t.Fatalf("%v %v noPrep=%v: SolveBatch cost %v, error %v; want %v", obj, mode, noPrep, obj.Cost(res[0].Solution), res[0].Err, want)
				}
			}
			ss, err := Solver{Objective: obj, Alpha: 2, Mode: mode}.Open(3)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ss.Apply(wide, nil); err != nil {
				t.Fatal(err)
			}
			if sol, err := ss.Resolve(); err != nil || obj.Cost(sol) != want {
				t.Fatalf("%v %v: session cost %v, error %v; want %v", obj, mode, obj.Cost(sol), err, want)
			}
		}
	}
}

// TestInvalidAlphaRejected: a NaN, infinite or negative transition
// cost, or one above 2⁵³, is an invalid configuration for either
// objective. Solve in every mode, SolveBatch, Open and OpenOnline
// reject it with the same error, which names alpha, rather than pricing
// a schedule at NaN or ±Inf or calling a feasible instance infeasible.
func TestInvalidAlphaRejected(t *testing.T) {
	in := NewInstance([]Job{{Release: 0, Deadline: 2}, {Release: 1, Deadline: 3}, {Release: 9, Deadline: 12}})
	for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e308, math.Nextafter(1<<53, math.Inf(1))} {
		for _, obj := range []Objective{ObjectiveGaps, ObjectivePower} {
			for _, mode := range []Mode{ModeExact, ModeHeuristic, ModeAuto} {
				s := Solver{Objective: obj, Alpha: alpha, Mode: mode}
				_, err := s.Solve(in)
				if err == nil || errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "alpha") {
					t.Fatalf("%v %v α=%v: Solve error %v, want an invalid-alpha error", obj, mode, alpha, err)
				}
				if res := s.SolveBatch([]Instance{in}); res[0].Err == nil || res[0].Err.Error() != err.Error() {
					t.Fatalf("%v %v α=%v: SolveBatch error %v, want %v", obj, mode, alpha, res[0].Err, err)
				}
				if _, errOpen := s.Open(1); errOpen == nil || errOpen.Error() != err.Error() {
					t.Fatalf("%v %v α=%v: Open error %v, want %v", obj, mode, alpha, errOpen, err)
				}
				if _, errOpen := s.OpenOnline(1); errOpen == nil || errOpen.Error() != err.Error() {
					t.Fatalf("%v %v α=%v: OpenOnline error %v, want %v", obj, mode, alpha, errOpen, err)
				}
			}
		}
	}
}

func TestSolverPreprocessSplitsSparseInstances(t *testing.T) {
	// Three clusters far apart: the prep layer must split them and the
	// state count must shrink versus the monolithic solve.
	var jobs []Job
	for _, base := range []int{0, 1000, 2000} {
		for i := 0; i < 4; i++ {
			jobs = append(jobs, Job{Release: base + i, Deadline: base + i + 3})
		}
	}
	in := NewInstance(jobs)
	split, err := Solver{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Solver{NoPreprocess: true}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if split.Subinstances != 3 {
		t.Fatalf("expected 3 subinstances, got %d", split.Subinstances)
	}
	if split.Spans != mono.Spans {
		t.Fatalf("split spans %d != monolithic %d", split.Spans, mono.Spans)
	}
	if split.States >= mono.States {
		t.Fatalf("preprocessing did not shrink the DP: %d states split vs %d monolithic",
			split.States, mono.States)
	}
}

func TestSolveBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ins := make([]Instance, 40)
	for i := range ins {
		// A mix of feasible and infeasible instances.
		ins[i] = workload.Multiproc(rng, 1+rng.Intn(7), 1+rng.Intn(2), 8+rng.Intn(10), 4)
	}
	for _, s := range []Solver{
		{},
		{Workers: 1},
		{Workers: 3},
		{Objective: ObjectivePower, Alpha: 2},
	} {
		batch := s.SolveBatch(ins)
		if len(batch) != len(ins) {
			t.Fatalf("batch returned %d results for %d instances", len(batch), len(ins))
		}
		for i, in := range ins {
			sol, err := s.Solve(in)
			if (err == nil) != (batch[i].Err == nil) || (err != nil && err.Error() != batch[i].Err.Error()) {
				t.Fatalf("instance %d: batch err %v, sequential %v", i, batch[i].Err, err)
			}
			if err != nil {
				continue
			}
			if batch[i].Solution.Spans != sol.Spans || batch[i].Solution.States != sol.States ||
				math.Abs(batch[i].Solution.Power-sol.Power) > 1e-9 {
				t.Fatalf("instance %d: batch solution %+v differs from sequential %+v",
					i, batch[i].Solution, sol)
			}
		}
	}
	if out := (Solver{}).SolveBatch(nil); len(out) != 0 {
		t.Fatal("empty batch returned results")
	}
}

// TestWrappersReportSolverCounters: MinimizeGaps and MinimizePower
// report every state counter of the Solver run they wrap, the pruned
// and expanded counts included.
func TestWrappersReportSolverCounters(t *testing.T) {
	in := NewMultiprocInstance([]Job{
		{Release: 0, Deadline: 6}, {Release: 1, Deadline: 3}, {Release: 2, Deadline: 9},
		{Release: 4, Deadline: 5}, {Release: 7, Deadline: 12}, {Release: 8, Deadline: 8},
		{Release: 10, Deadline: 14},
	}, 2)
	const alpha = 2
	gaps, err := MinimizeGaps(in)
	if err != nil {
		t.Fatal(err)
	}
	power, err := MinimizePower(in, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                     string
		s                        Solver
		states, pruned, expanded int
	}{
		{"gaps", Solver{}, gaps.States, gaps.PrunedStates, gaps.ExpandedStates},
		{"power", Solver{Objective: ObjectivePower, Alpha: alpha}, power.States, power.PrunedStates, power.ExpandedStates},
	} {
		sol, err := c.s.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if sol.PrunedStates == 0 || sol.ExpandedStates == 0 {
			t.Fatalf("%s: instance exercises no pruning (%d pruned, %d expanded)", c.name, sol.PrunedStates, sol.ExpandedStates)
		}
		if c.states != sol.States || c.pruned != sol.PrunedStates || c.expanded != sol.ExpandedStates {
			t.Errorf("%s wrapper: states/pruned/expanded %d/%d/%d, Solver %d/%d/%d", c.name,
				c.states, c.pruned, c.expanded, sol.States, sol.PrunedStates, sol.ExpandedStates)
		}
	}
}

func TestObjectiveString(t *testing.T) {
	if ObjectiveGaps.String() != "gaps" || ObjectivePower.String() != "power" {
		t.Fatal("objective names changed")
	}
	if Objective(7).String() == "" {
		t.Fatal("unknown objective has empty name")
	}
}

// TestTimingsAndCacheHitsContract pins what Timings and CacheHits
// measure: the work of this call, stage by stage. An uncached exact
// solve spends its time on the DP engine and none on the cache; a
// warm-cache re-solve serves every fragment from the cache with zero
// solve time while reporting the first solve's counters and lower
// bound; a no-op session resolve reuses every fragment and does no
// solve work; a mixed auto solve times both backends.
func TestTimingsAndCacheHitsContract(t *testing.T) {
	var jobs []Job
	for c := 0; c < 6; c++ { // six distinct clusters, one fragment each
		base := 40 * c
		for k := 0; k <= c; k++ {
			jobs = append(jobs, Job{Release: base + k, Deadline: base + k + 3})
		}
	}
	in := NewInstance(jobs)

	cold, err := Solver{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Subinstances != 6 || cold.CacheHits != 0 {
		t.Fatalf("uncached solve: %d fragments, %d hits; want 6, 0", cold.Subinstances, cold.CacheHits)
	}
	if tm := cold.Timings; tm.Cache != 0 || tm.SolveDP <= 0 || tm.SolveHeur != 0 {
		t.Fatalf("uncached exact timings %+v: want Cache 0, SolveDP > 0, SolveHeur 0", tm)
	}

	cached := Solver{Cache: NewFragmentCache(64)}
	first, err := cached.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cached.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.Subinstances {
		t.Fatalf("warm re-solve: %d hits of %d fragments", warm.CacheHits, warm.Subinstances)
	}
	if tm := warm.Timings; tm.Solve() != 0 || tm.Cache <= 0 {
		t.Fatalf("warm re-solve timings %+v: want zero solve time, Cache > 0", tm)
	}
	if warm.States != first.States || warm.PrunedStates != first.PrunedStates ||
		warm.ExpandedStates != first.ExpandedStates || warm.LowerBound != first.LowerBound {
		t.Fatalf("warm re-solve counters %d/%d/%d lb %v, first solve %d/%d/%d lb %v",
			warm.States, warm.PrunedStates, warm.ExpandedStates, warm.LowerBound,
			first.States, first.PrunedStates, first.ExpandedStates, first.LowerBound)
	}

	sess, err := Solver{}.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, j := range jobs {
		if _, err := sess.Add(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Resolve(); err != nil {
		t.Fatal(err)
	}
	noop, err := sess.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if noop.ReusedFragments != noop.Subinstances || noop.ResolvedFragments != 0 {
		t.Fatalf("no-op resolve: %d reused, %d resolved of %d fragments",
			noop.ReusedFragments, noop.ResolvedFragments, noop.Subinstances)
	}
	if tm := noop.Timings; tm.Solve() != 0 || tm.Cache != 0 {
		t.Fatalf("no-op resolve timings %+v: want no solve or cache time", tm)
	}
	if noop.States != cold.States || noop.LowerBound != cold.LowerBound {
		t.Fatalf("no-op resolve states %d lb %v, scratch %d lb %v", noop.States, noop.LowerBound, cold.States, cold.LowerBound)
	}

	// A budget of 8 admits the one-job cluster (its admission estimate
	// is G·(n+1) = 4·2) and nothing larger.
	mixed, err := Solver{Mode: ModeAuto, StateBudget: 8}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.HeuristicFragments == 0 || mixed.HeuristicFragments == mixed.Subinstances {
		t.Fatalf("auto solve not mixed: %d heuristic of %d fragments", mixed.HeuristicFragments, mixed.Subinstances)
	}
	if tm := mixed.Timings; tm.SolveDP <= 0 || tm.SolveHeur <= 0 {
		t.Fatalf("mixed auto timings %+v: want both solve stages > 0", tm)
	}
}
