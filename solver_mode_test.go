package gapsched

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workload"
)

// modeCost extracts the configured objective's cost from a Solution.
func modeCost(s Solver, sol Solution) float64 {
	return s.Objective.Cost(sol)
}

// TestModeHeuristicSandwich: heuristic solutions must be feasible and
// sandwiched by their own certificate around the exact optimum, for
// both objectives, through every pipeline shape (prep on and off,
// cached and not).
func TestModeHeuristicSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 120; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(9), 1+rng.Intn(3), 4+rng.Intn(30), 1+rng.Intn(5))
		for _, base := range []Solver{
			{},
			{Objective: ObjectivePower, Alpha: float64(rng.Intn(9)) / 2},
		} {
			exact := base
			want, err := exact.Solve(in)
			if err != nil {
				t.Fatalf("exact: %v (jobs %v)", err, in.Jobs)
			}
			for _, cfg := range []Solver{
				{Mode: ModeHeuristic},
				{Mode: ModeHeuristic, NoPreprocess: true},
				{Mode: ModeHeuristic, Cache: NewFragmentCache(64)},
			} {
				h := base
				h.Mode, h.NoPreprocess, h.Cache = cfg.Mode, cfg.NoPreprocess, cfg.Cache
				got, err := h.Solve(in)
				if err != nil {
					t.Fatalf("heuristic: %v (jobs %v)", err, in.Jobs)
				}
				if err := got.Schedule.Validate(in); err != nil {
					t.Fatalf("heuristic schedule invalid: %v", err)
				}
				opt, cost := modeCost(base, want), modeCost(base, got)
				if got.LowerBound > opt+1e-9 || cost < opt-1e-9 {
					t.Fatalf("sandwich violated: lb %v opt %v heur %v (jobs %v procs %d cfg %+v)",
						got.LowerBound, opt, cost, in.Jobs, in.Procs, cfg)
				}
				if got.Mode != ModeHeuristic {
					t.Fatalf("solution mode %v, want heuristic", got.Mode)
				}
				if got.HeuristicFragments != got.Subinstances {
					t.Fatalf("heuristic fragments %d, want all %d", got.HeuristicFragments, got.Subinstances)
				}
				if got.States != 0 {
					t.Fatalf("heuristic solve reported %d DP states", got.States)
				}
			}
		}
	}
}

// TestModeAutoGenerousBudgetIsExact: with an unbounded budget ModeAuto
// must be bit-identical to ModeExact — costs, schedules, counters.
func TestModeAutoGenerousBudgetIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(10), 1+rng.Intn(3), 4+rng.Intn(40), 1+rng.Intn(6))
		for _, base := range []Solver{
			{},
			{Objective: ObjectivePower, Alpha: 2.5},
		} {
			auto := base
			auto.Mode, auto.StateBudget = ModeAuto, math.MaxInt
			want, errE := base.Solve(in)
			got, errA := auto.Solve(in)
			if (errE == nil) != (errA == nil) {
				t.Fatalf("auto err %v, exact err %v", errA, errE)
			}
			if errE != nil {
				continue
			}
			if modeCost(base, got) != modeCost(base, want) {
				t.Fatalf("auto cost %v, exact %v (jobs %v)", modeCost(base, got), modeCost(base, want), in.Jobs)
			}
			if !reflect.DeepEqual(got.Schedule, want.Schedule) {
				t.Fatalf("auto schedule differs from exact (jobs %v)", in.Jobs)
			}
			if got.HeuristicFragments != 0 {
				t.Fatalf("auto under unbounded budget used the heuristic on %d fragments", got.HeuristicFragments)
			}
			if got.LowerBound != modeCost(base, want) {
				t.Fatalf("auto-exact lower bound %v, want the optimum %v", got.LowerBound, modeCost(base, want))
			}
			if got.Mode != ModeAuto {
				t.Fatalf("solution mode %v, want auto", got.Mode)
			}
		}
	}
}

// TestModeAutoNegativeBudgetIsHeuristic: a negative budget admits
// nothing to the exact tier, so ModeAuto degenerates to ModeHeuristic
// with identical costs and certificates.
func TestModeAutoNegativeBudgetIsHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(9), 1+rng.Intn(2), 4+rng.Intn(30), 1+rng.Intn(5))
		auto := Solver{Mode: ModeAuto, StateBudget: -1}
		h := Solver{Mode: ModeHeuristic}
		a, errA := auto.Solve(in)
		b, errB := h.Solve(in)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("auto err %v, heuristic err %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.Spans != b.Spans || a.LowerBound != b.LowerBound {
			t.Fatalf("auto(-1) %d/%v, heuristic %d/%v (jobs %v)", a.Spans, a.LowerBound, b.Spans, b.LowerBound, in.Jobs)
		}
		if a.HeuristicFragments != a.Subinstances {
			t.Fatalf("auto(-1) solved %d of %d fragments heuristically", a.HeuristicFragments, a.Subinstances)
		}
	}
}

// TestModeAutoMixesTiers: on an instance pairing many small clusters
// with one oversized single-processor fragment, a budget between the
// small fragments' estimates and the big one's must solve the clusters
// exactly and send exactly the big fragment to the heuristic, under a
// certificate that still sandwiches the cost.
func TestModeAutoMixesTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var jobs []sched.Job
	for c := 0; c < 4; c++ { // small exact-friendly clusters
		base := c * 100
		for k := 0; k < 4; k++ {
			r := base + rng.Intn(4)
			jobs = append(jobs, sched.Job{Release: r, Deadline: r + 3})
		}
	}
	big := workload.StressDense(rng, 300, 1) // one huge fragment
	for _, j := range big.Jobs {
		jobs = append(jobs, sched.Job{Release: j.Release + 1000, Deadline: j.Deadline + 1000})
	}
	in := NewInstance(jobs)

	// Pick a budget between the small fragments' estimates and the big
	// one's cheaper admission route, derived from the decomposition.
	pl := prep.ForGaps(in)
	smallMax, bigEst := 0, 0
	for _, sub := range pl.Subs {
		est := prep.StateEstimate(sub.Instance)
		if len(sub.Instance.Jobs) < 100 {
			smallMax = max(smallMax, est)
		} else {
			single, _ := prep.SingleProcEstimate(sub.Instance)
			bigEst = min(est/autoPruneDiscount, single)
		}
	}
	if smallMax == 0 || bigEst <= smallMax {
		t.Fatalf("test instance degenerate: smallMax %d bigEst %d", smallMax, bigEst)
	}

	sol, err := Solver{Mode: ModeAuto, StateBudget: smallMax}.Solve(in)
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if sol.HeuristicFragments != 1 {
		t.Fatalf("auto solved %d fragments heuristically, want exactly the big one", sol.HeuristicFragments)
	}
	if err := sol.Schedule.Validate(in); err != nil {
		t.Fatalf("mixed schedule invalid: %v", err)
	}
	if sol.LowerBound <= 0 || float64(sol.Spans) < sol.LowerBound {
		t.Fatalf("mixed certificate inverted: spans %d lb %v", sol.Spans, sol.LowerBound)
	}
	if sol.States == 0 {
		t.Fatal("exact fragments reported no DP states")
	}
}

// TestModeAutoAdmissionBoundary pins the single-processor route's edge
// on one dense fragment whose index-space estimate is far over budget:
// a StateBudget of exactly GridSize·(n+1) solves it exactly, one less
// sends it to the heuristic, and a two-processor fragment of the same
// size, which has no single-processor route, goes heuristic at that
// budget.
func TestModeAutoAdmissionBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	in := NewInstance(workload.StressDense(rng, 200, 1).Jobs)

	pl := prep.ForGaps(in)
	if len(pl.Subs) != 1 {
		t.Fatalf("dense instance split into %d fragments, want 1", len(pl.Subs))
	}
	frag := pl.Subs[0].Instance
	edge := prep.GridSize(frag) * (len(frag.Jobs) + 1)
	if prep.StateEstimate(frag)/autoPruneDiscount <= edge {
		t.Fatalf("index-space route admits the fragment at budget %d; the test needs it priced out", edge)
	}

	solve := func(in Instance, budget int) Solution {
		t.Helper()
		sol, err := Solver{Mode: ModeAuto, StateBudget: budget}.Solve(in)
		if err != nil {
			t.Fatalf("auto(StateBudget %d): %v", budget, err)
		}
		if err := sol.Schedule.Validate(in); err != nil {
			t.Fatalf("schedule invalid (StateBudget %d): %v", budget, err)
		}
		return sol
	}

	admitted := solve(in, edge)
	if admitted.HeuristicFragments != 0 {
		t.Fatalf("budget == GridSize·(n+1): %d of %d fragments heuristic, want none",
			admitted.HeuristicFragments, admitted.Subinstances)
	}
	if float64(admitted.Spans) != admitted.LowerBound {
		t.Fatalf("exact fragment not certified: spans %d lb %v", admitted.Spans, admitted.LowerBound)
	}

	rejected := solve(in, edge-1)
	if rejected.HeuristicFragments != rejected.Subinstances {
		t.Fatalf("budget == GridSize·(n+1)−1: %d of %d fragments heuristic, want all",
			rejected.HeuristicFragments, rejected.Subinstances)
	}
	if float64(rejected.Spans) < rejected.LowerBound {
		t.Fatalf("heuristic certificate inverted: spans %d lb %v", rejected.Spans, rejected.LowerBound)
	}

	multi := NewMultiprocInstance(workload.StressDense(rng, 200, 2).Jobs, 2)
	if sol := solve(multi, edge); sol.HeuristicFragments != sol.Subinstances {
		t.Fatalf("two-proc at budget %d: %d of %d fragments heuristic, want all",
			edge, sol.HeuristicFragments, sol.Subinstances)
	}
}

// TestModeTiersShareCacheSafely: a cache shared between an exact and a
// heuristic Solver must never serve one tier's fragment solution to the
// other — solving the same instance through both, in both orders, must
// keep the exact answer optimal.
func TestModeTiersShareCacheSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 40; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(8), 1, 4+rng.Intn(24), 1+rng.Intn(5))
		want, err := Solver{}.Solve(in)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		cache := NewFragmentCache(256)
		hs := Solver{Mode: ModeHeuristic, Cache: cache}
		es := Solver{Cache: cache}
		// Heuristic first (possibly suboptimal entries in the cache),
		// then exact through the same cache.
		h1, err := hs.Solve(in)
		if err != nil {
			t.Fatalf("heuristic: %v", err)
		}
		e1, err := es.Solve(in)
		if err != nil {
			t.Fatalf("exact-cached: %v", err)
		}
		if e1.Spans != want.Spans {
			t.Fatalf("exact through shared cache got %d spans, want %d (heur had %d; jobs %v)",
				e1.Spans, want.Spans, h1.Spans, in.Jobs)
		}
		// And the heuristic's own repeat must hit its tier's entries
		// without changing its answer.
		h2, err := hs.Solve(in)
		if err != nil {
			t.Fatalf("heuristic repeat: %v", err)
		}
		if h2.Spans != h1.Spans || h2.LowerBound != h1.LowerBound {
			t.Fatalf("cached heuristic drifted: %d/%v then %d/%v", h1.Spans, h1.LowerBound, h2.Spans, h2.LowerBound)
		}
		if h2.CacheHits == 0 && h2.Subinstances > 0 {
			t.Fatal("heuristic repeat missed the cache entirely")
		}
	}
}

// TestModeValidation: an out-of-range mode must fail identically
// through Solve, SolveBatch, and Open.
func TestModeValidation(t *testing.T) {
	bad := Solver{Mode: Mode(99)}
	in := NewInstance([]sched.Job{{Release: 0, Deadline: 1}})
	_, errSolve := bad.Solve(in)
	if errSolve == nil {
		t.Fatal("Solve accepted mode 99")
	}
	res := bad.SolveBatch([]Instance{in})
	if res[0].Err == nil || res[0].Err.Error() != errSolve.Error() {
		t.Fatalf("SolveBatch error %v, want %v", res[0].Err, errSolve)
	}
	if _, err := bad.Open(1); err == nil || err.Error() != errSolve.Error() {
		t.Fatalf("Open error %v, want %v", err, errSolve)
	}
}

// TestParseMode round-trips every mode name and rejects garbage.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeExact, ModeHeuristic, ModeAuto} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeExact {
		t.Fatalf("ParseMode(\"\") = %v, %v", m, err)
	}
	if _, err := ParseMode("fast"); err == nil {
		t.Fatal("ParseMode accepted \"fast\"")
	}
	if s := Mode(99).String(); s != "Mode(99)" {
		t.Fatalf("Mode(99).String() = %q", s)
	}
}

// TestExactSolutionsCertifyThemselves: every exact solve's LowerBound
// must equal its own optimal cost, for both objectives, solo and
// batched.
func TestExactSolutionsCertifyThemselves(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ins := make([]Instance, 16)
	for i := range ins {
		ins[i] = workload.FeasibleOneInterval(rng, 1+rng.Intn(8), 1+rng.Intn(2), 4+rng.Intn(24), 1+rng.Intn(5))
	}
	for _, s := range []Solver{{}, {Objective: ObjectivePower, Alpha: 3}} {
		for i, r := range s.SolveBatch(ins) {
			if r.Err != nil {
				t.Fatalf("batch[%d]: %v", i, r.Err)
			}
			if r.Solution.LowerBound != modeCost(s, r.Solution) {
				t.Fatalf("exact solution %d: lb %v != cost %v", i, r.Solution.LowerBound, modeCost(s, r.Solution))
			}
			if r.Solution.HeuristicFragments != 0 || r.Solution.Mode != ModeExact {
				t.Fatalf("exact solution %d carries heuristic markers: %+v", i, r.Solution)
			}
		}
	}
}

// TestHeuristicSessionMatchesOneShot: a heuristic-mode session must
// stay bit-identical to a from-scratch heuristic solve of its snapshot
// after every delta, certificates included.
func TestHeuristicSessionMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, s := range []Solver{
		{Mode: ModeHeuristic},
		{Mode: ModeHeuristic, Objective: ObjectivePower, Alpha: 3},
		{Mode: ModeAuto, StateBudget: -1},
	} {
		sess, err := s.Open(1)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var live []int
		for d := 0; d < 40; d++ {
			if d%3 != 2 || len(live) == 0 {
				r := rng.Intn(120)
				id, err := sess.Add(Job{Release: r, Deadline: r + rng.Intn(6)})
				if err != nil {
					t.Fatalf("Add: %v", err)
				}
				live = append(live, id)
			} else {
				k := rng.Intn(len(live))
				if err := sess.Remove(live[k]); err != nil {
					t.Fatalf("Remove: %v", err)
				}
				live = append(live[:k], live[k+1:]...)
			}
			snapshot := sess.Instance()
			want, wantErr := s.Solve(snapshot)
			got, gotErr := sess.Resolve()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("session err %v, scratch err %v", gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrInfeasible) {
					t.Fatalf("session err %v, want ErrInfeasible", gotErr)
				}
				continue
			}
			if modeCost(s, got) != modeCost(s, want) || got.LowerBound != want.LowerBound {
				t.Fatalf("session %v/%v, scratch %v/%v (jobs %v)",
					modeCost(s, got), got.LowerBound, modeCost(s, want), want.LowerBound, snapshot.Jobs)
			}
			if got.HeuristicFragments != want.HeuristicFragments || got.Mode != s.Mode {
				t.Fatalf("session markers %d/%v, scratch %d", got.HeuristicFragments, got.Mode, want.HeuristicFragments)
			}
		}
		sess.Close()
	}
}
