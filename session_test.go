package gapsched

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workload"
)

// sessionConfigs is the configuration matrix the session tests sweep:
// both objectives, with and without a shared fragment cache, plus an
// auto-mode lane whose small StateBudget keeps only the tiniest
// fragments on the exact engine and sends the rest to the heuristic.
func sessionConfigs() []Solver {
	return []Solver{
		{},
		{Cache: NewFragmentCache(1 << 10)},
		{Objective: ObjectivePower, Alpha: 2.5},
		{Objective: ObjectivePower, Alpha: 2.5, Cache: NewFragmentCache(1 << 10)},
		{Mode: ModeAuto, StateBudget: 4, Cache: NewFragmentCache(1 << 10)},
	}
}

func sessionCost(s Solver, sol Solution) float64 {
	if s.Objective == ObjectivePower {
		return sol.Power
	}
	return float64(sol.Spans)
}

// TestSessionMatchesScratchUnderChurn drives random add/remove churn
// and asserts after every delta that Resolve is bit-identical to a
// from-scratch Solve of the session's snapshot instance, under every
// configuration of the matrix: cost, schedule validity, and every
// per-fragment aggregate (state counters, lower bound, backend split,
// fragment count, mode). The from-scratch reference uses the same
// Solver (same cache), which is exactly the claim the subsystem makes.
func TestSessionMatchesScratchUnderChurn(t *testing.T) {
	type aggregates struct {
		States, Pruned, Expanded int
		LowerBound               float64
		Heuristic, Subinstances  int
		Mode                     Mode
	}
	agg := func(sol Solution) aggregates {
		return aggregates{sol.States, sol.PrunedStates, sol.ExpandedStates,
			sol.LowerBound, sol.HeuristicFragments, sol.Subinstances, sol.Mode}
	}
	for _, cfg := range sessionConfigs() {
		rng := rand.New(rand.NewSource(23))
		dpFrags, heurFrags := 0, 0
		sess, err := cfg.Open(2)
		if err != nil {
			t.Fatal(err)
		}
		var live []int
		for step := 0; step < 60; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := sess.Remove(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				r := rng.Intn(50)
				id, err := sess.Add(Job{Release: r, Deadline: r + rng.Intn(6)})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
			snapshot := sess.Instance()
			want, wantErr := cfg.Solve(snapshot)
			got, gotErr := sess.Resolve()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("step %d: session err %v, scratch err %v", step, gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrInfeasible) {
					t.Fatalf("step %d: session err %v, want ErrInfeasible", step, gotErr)
				}
				continue
			}
			if sessionCost(cfg, got) != sessionCost(cfg, want) {
				t.Fatalf("step %d: session cost %v, scratch %v (jobs %v)",
					step, sessionCost(cfg, got), sessionCost(cfg, want), snapshot.Jobs)
			}
			if got.Spans != want.Spans || got.Gaps != want.Gaps {
				t.Fatalf("step %d: session spans/gaps %d/%d, scratch %d/%d", step, got.Spans, got.Gaps, want.Spans, want.Gaps)
			}
			if err := got.Schedule.Validate(snapshot); err != nil {
				t.Fatalf("step %d: session schedule invalid: %v", step, err)
			}
			if got.ResolvedFragments+got.ReusedFragments != got.Subinstances {
				t.Fatalf("step %d: counters %d+%d do not cover %d fragments",
					step, got.ResolvedFragments, got.ReusedFragments, got.Subinstances)
			}
			if agg(got) != agg(want) {
				t.Fatalf("step %d: session aggregates %+v, scratch %+v (jobs %v)",
					step, agg(got), agg(want), snapshot.Jobs)
			}
			heurFrags += got.HeuristicFragments
			dpFrags += got.Subinstances - got.HeuristicFragments
		}
		sess.Close()
		if cfg.Mode == ModeAuto && (dpFrags == 0 || heurFrags == 0) {
			t.Fatalf("auto lane never mixed backends: %d dp, %d heuristic fragment results", dpFrags, heurFrags)
		}
	}
}

// TestSessionReusesCleanFragments pins the point of the subsystem: on
// a many-fragment instance, a single-job delta re-solves one fragment
// and reuses the rest.
func TestSessionReusesCleanFragments(t *testing.T) {
	sess, err := Solver{}.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const clusters = 8
	for c := 0; c < clusters; c++ {
		base := 20 * c
		for k := 0; k < 3; k++ {
			if _, err := sess.Add(Job{Release: base + k, Deadline: base + k + 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sol, err := sess.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Subinstances != clusters || sol.ResolvedFragments != clusters {
		t.Fatalf("initial resolve: %d fragments, %d resolved; want %d/%d",
			sol.Subinstances, sol.ResolvedFragments, clusters, clusters)
	}
	id, err := sess.Add(Job{Release: 61, Deadline: 63}) // inside cluster 3
	if err != nil {
		t.Fatal(err)
	}
	sol, err = sess.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.ResolvedFragments != 1 || sol.ReusedFragments != clusters-1 {
		t.Fatalf("single add: resolved %d reused %d, want 1/%d", sol.ResolvedFragments, sol.ReusedFragments, clusters-1)
	}
	if err := sess.Remove(id); err != nil {
		t.Fatal(err)
	}
	sol, err = sess.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.ResolvedFragments != 1 || sol.ReusedFragments != clusters-1 {
		t.Fatalf("single remove: resolved %d reused %d, want 1/%d", sol.ResolvedFragments, sol.ReusedFragments, clusters-1)
	}
}

// TestSessionSharedCacheAcrossSessions: a fragment solved in one
// session is a cache hit in another sharing the same FragmentCache.
func TestSessionSharedCacheAcrossSessions(t *testing.T) {
	cache := NewFragmentCache(1 << 10)
	cfg := Solver{Cache: cache}
	a, err := cfg.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := cfg.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	jobs := []Job{{Release: 5, Deadline: 7}, {Release: 6, Deadline: 9}}
	for _, j := range jobs {
		if _, err := a.Add(j); err != nil {
			t.Fatal(err)
		}
		// Same windows, different absolute location: prep's coordinate
		// compression makes the canonical fragment identical.
		if _, err := b.Add(Job{Release: j.Release + 100, Deadline: j.Deadline + 100}); err != nil {
			t.Fatal(err)
		}
	}
	solA, err := a.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if solA.CacheHits != 0 {
		t.Fatalf("first session hit the cache %d times on a cold cache", solA.CacheHits)
	}
	solB, err := b.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if solB.CacheHits != 1 || solB.Spans != solA.Spans {
		t.Fatalf("second session: hits %d spans %d, want 1 hit and spans %d", solB.CacheHits, solB.Spans, solA.Spans)
	}
}

// TestSessionErrors covers the error surface: invalid configuration,
// invalid jobs, unknown removals, and use after Close.
func TestSessionErrors(t *testing.T) {
	if _, err := (Solver{Alpha: -1}).Open(1); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := (Solver{Objective: Objective(9)}).Open(1); err == nil {
		t.Fatal("unknown objective accepted")
	}
	if _, err := (Solver{}).Open(-2); err == nil {
		t.Fatal("negative procs accepted")
	}

	sess, err := Solver{}.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Instance().Procs; got != 1 {
		t.Fatalf("Open(0) procs = %d, want 1", got)
	}
	if _, err := sess.Add(Job{Release: 3, Deadline: 1}); err == nil {
		t.Fatal("empty-window job accepted")
	}
	if err := sess.Remove(42); err == nil {
		t.Fatal("unknown removal succeeded")
	}
	if sol, err := sess.Resolve(); err != nil || sol.Spans != 0 || len(sol.Schedule.Slots) != 0 {
		t.Fatalf("empty resolve: %+v err %v", sol, err)
	}

	if _, err := sess.Add(Job{Release: 1, Deadline: 2}); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	sess.Close() // idempotent
	if sess.Len() != 0 || len(sess.Instance().Jobs) != 0 {
		t.Fatal("closed session still reports live state")
	}
	if _, ok := sess.Job(0); ok {
		t.Fatal("closed session still serves jobs")
	}
	if _, err := sess.Add(Job{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Add after Close: %v", err)
	}
	if err := sess.Remove(0); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Remove after Close: %v", err)
	}
	if _, err := sess.Resolve(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Resolve after Close: %v", err)
	}
}

// TestSessionConcurrentUse hammers one session from several goroutines
// (deltas, resolves, snapshots) to give the race detector a surface;
// the final resolve must still match a from-scratch solve.
func TestSessionConcurrentUse(t *testing.T) {
	cfg := Solver{Cache: NewFragmentCache(1 << 10)}
	sess, err := cfg.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rng := rand.New(rand.NewSource(7))
	in := workload.FeasibleOneInterval(rng, 12, 2, 60, 5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				id, err := sess.Add(in.Jobs[(3*w+i)%len(in.Jobs)])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.Resolve(); err != nil && !errors.Is(err, ErrInfeasible) {
					t.Error(err)
					return
				}
				if i == 2 {
					if err := sess.Remove(id); err != nil {
						t.Error(err)
					}
				}
				sess.Instance()
			}
		}()
	}
	wg.Wait()
	got, gotErr := sess.Resolve()
	want, wantErr := cfg.Solve(sess.Instance())
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("session err %v, scratch err %v", gotErr, wantErr)
	}
	if gotErr == nil && (got.Spans != want.Spans || got.Power != want.Power) {
		t.Fatalf("after concurrent churn: session %d/%v, scratch %d/%v", got.Spans, got.Power, want.Spans, want.Power)
	}
}
