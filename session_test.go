package gapsched

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
// fragment count, mode), and Spans equal to its schedule's count, which
// the session sums from reused and re-solved fragment records alike.
// The from-scratch reference uses the same
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
			if n := got.Schedule.Spans(); got.Spans != n {
				t.Fatalf("step %d: session Spans %d, its schedule has %d", step, got.Spans, n)
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
	if _, _, err := sess.Apply([]Job{{Release: 1, Deadline: 2}}, []int{0}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Apply after Close: %v", err)
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
// (single-op and multi-op deltas, resolves, snapshots) to give the race
// detector a surface; the final resolve must still match a
// from-scratch solve.
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
				switch i {
				case 1:
					// Swap the job just added for two others in one delta.
					swap := []Job{in.Jobs[(3*w+i+1)%len(in.Jobs)], in.Jobs[(3*w+i+2)%len(in.Jobs)]}
					if _, _, err := sess.Apply(swap, []int{id}); err != nil {
						t.Error(err)
						return
					}
				case 2:
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

// TestSessionApplyAtomic: on offline and online sessions, every
// rejecting delta — mixed ones whose first op is legal included —
// returns its documented error and leaves the session exactly as an
// untouched twin with the same history: the same Instance, Len, next
// assigned id and next Resolve (every field but Timings). An accepted
// multi-op delta equals the same ops applied one at a time, removals
// first, down to the resolved/reused fragment split.
func TestSessionApplyAtomic(t *testing.T) {
	windowErr := func(err error) bool {
		return err != nil && !errors.Is(err, ErrReleaseOrder) && strings.Contains(err.Error(), "empty window")
	}
	unknown := func(id int) func(error) bool {
		return func(err error) bool {
			var u *UnknownJobError
			return errors.As(err, &u) && u.ID == id
		}
	}
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	type delta struct {
		name   string
		add    []Job
		remove []int
		want   func(error) bool
	}
	for _, tc := range []struct {
		online  bool
		rejects []delta
		accept  delta
	}{{
		rejects: []delta{
			{"empty window after a legal add", []Job{{Release: 30, Deadline: 31}, {Release: 5, Deadline: 4}}, nil, windowErr},
			{"unknown id after a legal removal", []Job{{Release: 30, Deadline: 31}}, []int{0, 99}, unknown(99)},
			{"repeated id", nil, []int{1, 2, 1}, unknown(1)},
			{"empty window before an unknown id", []Job{{Release: 5, Deadline: 4}}, []int{99}, windowErr},
		},
		accept: delta{"mixed", []Job{{Release: 11, Deadline: 13}, {Release: 2, Deadline: 9}, {Release: 40, Deadline: 41}}, []int{3, 0}, nil},
	}, {
		online: true,
		rejects: []delta{
			{"removal after a legal arrival", []Job{{Release: 25, Deadline: 26}}, []int{0}, is(ErrCommitOnly)},
			{"removal of an unknown id", nil, []int{99}, is(ErrCommitOnly)},
			{"arrival before the watermark", []Job{{Release: 19, Deadline: 30}}, nil, is(ErrReleaseOrder)},
			{"out of order after a legal arrival", []Job{{Release: 30, Deadline: 31}, {Release: 26, Deadline: 40}}, nil, is(ErrReleaseOrder)},
			{"empty window before the watermark", []Job{{Release: 30, Deadline: 31}, {Release: 19, Deadline: 18}}, nil, windowErr},
		},
		accept: delta{"arrivals", []Job{{Release: 20, Deadline: 22}, {Release: 21, Deadline: 30}, {Release: 21, Deadline: 21}}, nil, nil},
	}} {
		open := func() *Session {
			s, err := Solver{}.Open(2)
			if tc.online {
				s, err = Solver{}.OpenOnline(2)
			}
			if err != nil {
				t.Fatal(err)
			}
			seed := []Job{{Release: 0, Deadline: 3}, {Release: 1, Deadline: 4}, {Release: 10, Deadline: 12}, {Release: 20, Deadline: 25}}
			if _, _, err := s.Apply(seed, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Resolve(); err != nil {
				t.Fatal(err)
			}
			return s
		}
		sess, twin := open(), open()
		same := func(when string) {
			t.Helper()
			if !reflect.DeepEqual(sess.Instance(), twin.Instance()) || sess.Len() != twin.Len() {
				t.Fatalf("online=%v, %s: instance %v, twin %v", tc.online, when, sess.Instance().Jobs, twin.Instance().Jobs)
			}
			got, gotErr := sess.Resolve()
			want, wantErr := twin.Resolve()
			got.Timings, want.Timings = Timings{}, Timings{}
			if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("online=%v, %s: resolve %+v (err %v), twin %+v (err %v)", tc.online, when, got, gotErr, want, wantErr)
			}
		}
		for _, d := range tc.rejects {
			if ids, live, err := sess.Apply(d.add, d.remove); !d.want(err) || ids != nil || live != 0 {
				t.Fatalf("online=%v, %s: Apply = %v, %d, %v", tc.online, d.name, ids, live, err)
			}
			same("after rejecting " + d.name)
			probe := []Job{{Release: 20, Deadline: 23}}
			got, _, err := sess.Apply(probe, nil)
			want, _, twinErr := twin.Apply(probe, nil)
			if err != nil || twinErr != nil || !slices.Equal(got, want) {
				t.Fatalf("online=%v, after rejecting %s: next id %v (%v), twin %v (%v)", tc.online, d.name, got, err, want, twinErr)
			}
		}

		ids, live, err := sess.Apply(tc.accept.add, tc.accept.remove)
		if err != nil {
			t.Fatalf("online=%v: accepted delta: %v", tc.online, err)
		}
		var want []int
		for _, id := range tc.accept.remove {
			if err := twin.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range tc.accept.add {
			id, err := twin.Add(j)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
		}
		if !slices.Equal(ids, want) || live != twin.Len() {
			t.Fatalf("online=%v: Apply ids %v live %d, one at a time %v live %d", tc.online, ids, live, want, twin.Len())
		}
		same("after the accepted delta")

		sess.Close()
		if _, _, err := sess.Apply([]Job{{Release: 5, Deadline: 4}}, []int{99}); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("online=%v: Apply on a closed session: %v, want ErrSessionClosed", tc.online, err)
		}
		twin.Close()
	}
}
