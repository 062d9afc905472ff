package incr

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/sched"
)

// result is the record the tests store per fragment: one engine
// solve's cost, fragment-local schedule and error.
type result struct {
	cost     float64
	schedule sched.Schedule
	err      error
}

// gapSolve is the solve callback the tests hand to Resolve: the span
// objective through the exact engine.
func gapSolve(fr sched.Instance) result {
	res, err := core.Solve(fr, core.Objective{}, core.Options{})
	return result{cost: res.Cost, schedule: res.Schedule, err: err}
}

func powerSolve(alpha float64) func(sched.Instance) result {
	return func(fr sched.Instance) result {
		res, err := core.Solve(fr, core.Objective{Power: true, Alpha: alpha}, core.Options{})
		return result{cost: res.Cost, schedule: res.Schedule, err: err}
	}
}

// tally is what the tests read back from one Resolve: the cost summed
// in visit order and the split between re-solved and reused records.
type tally struct {
	cost             float64
	resolved, reused int
}

// resolve runs Resolve with a visitor that folds every visited record
// into a tally, the way the facade session folds its records.
func resolve(tr *Tracker[result], solve func(sched.Instance) result) (tally, sched.Schedule, error) {
	var c tally
	s, err := tr.Resolve(solve, func(r *result, reused bool) (sched.Schedule, error) {
		if reused {
			c.reused++
		} else {
			c.resolved++
		}
		c.cost += r.cost
		return r.schedule, r.err
	})
	return c, s, err
}

// addOne and removeOne apply one-op deltas.
func addOne(t *testing.T, tr *Tracker[result], j sched.Job) int {
	t.Helper()
	ids, err := tr.Apply([]sched.Job{j}, nil)
	if err != nil {
		t.Fatalf("add %v: %v", j, err)
	}
	return ids[0]
}

func removeOne(tr *Tracker[result], id int) bool {
	_, err := tr.Apply(nil, []int{id})
	return err == nil
}

// checkDecomposition asserts the tracker's fragment list is identical
// to prep.Decompose of the full current job set: same fragment count,
// same job partition in the same order, same zero-based instances.
func checkDecomposition(t *testing.T, tr *Tracker[result], splitWidth float64) {
	t.Helper()
	in := tr.Instance()
	pl := prep.Decompose(in, splitWidth)
	if len(pl.Subs) != len(tr.frags) {
		t.Fatalf("tracker has %d fragments, Decompose %d (jobs %v)", len(tr.frags), len(pl.Subs), in.Jobs)
	}
	ids := tr.ids
	if len(ids) != len(tr.jobs) {
		t.Fatalf("tracker lists %d live ids for %d jobs", len(ids), len(tr.jobs))
	}
	for i, id := range ids {
		if _, ok := tr.jobs[id]; !ok || i > 0 && ids[i-1] >= id {
			t.Fatalf("live ids %v are not the ascending job ids", ids)
		}
	}
	for si, sub := range pl.Subs {
		f := tr.frags[si]
		if sub.Offset != f.start {
			t.Fatalf("fragment %d: offset %d, tracker start %d", si, sub.Offset, f.start)
		}
		if len(sub.Jobs) != len(f.ids) {
			t.Fatalf("fragment %d: %d jobs, tracker %d", si, len(sub.Jobs), len(f.ids))
		}
		for i, local := range sub.Jobs {
			if ids[local] != f.ids[i] {
				t.Fatalf("fragment %d job %d: Decompose id %d, tracker id %d", si, i, ids[local], f.ids[i])
			}
		}
		got := tr.fragmentInstance(f)
		for i := range got.Jobs {
			if got.Jobs[i] != sub.Instance.Jobs[i] {
				t.Fatalf("fragment %d job %d: instance %v, Decompose %v", si, i, got.Jobs[i], sub.Instance.Jobs[i])
			}
		}
	}
}

// scratchCost solves the full current instance from scratch the way
// the facade does — per Decompose fragment, costs summed in time
// order — so equality with Resolve is a bit-exact claim.
func scratchCost(t *testing.T, tr *Tracker[result], splitWidth float64, solve func(sched.Instance) result) (float64, error) {
	t.Helper()
	pl := prep.Decompose(tr.Instance(), splitWidth)
	cost := 0.0
	for _, sub := range pl.Subs {
		r := solve(sub.Instance)
		if r.err != nil {
			return 0, r.err
		}
		cost += r.cost
	}
	return cost, nil
}

// TestTrackerMatchesDecompose drives random add/remove sequences over
// several split widths and processor counts, checking after every
// delta that the incremental decomposition is identical to a
// from-scratch Decompose and that Resolve reproduces the from-scratch
// cost bit-exactly with a valid schedule.
func TestTrackerMatchesDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, cfg := range []struct {
		procs      int
		splitWidth float64
	}{
		{1, 1}, {2, 1}, {1, 3.5}, {2, 0.5}, {3, 6},
	} {
		solve := gapSolve
		if cfg.splitWidth != 1 {
			solve = powerSolve(cfg.splitWidth)
		}
		for trial := 0; trial < 20; trial++ {
			tr := New[result](cfg.procs, cfg.splitWidth)
			var live []int
			for step := 0; step < 30; step++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(live))
					if !removeOne(tr, live[i]) {
						t.Fatalf("live id %d not found", live[i])
					}
					live = append(live[:i], live[i+1:]...)
				} else {
					r := rng.Intn(40)
					j := sched.Job{Release: r, Deadline: r + rng.Intn(5)}
					live = append(live, addOne(t, tr, j))
				}
				checkDecomposition(t, tr, cfg.splitWidth)

				want, wantErr := scratchCost(t, tr, cfg.splitWidth, solve)
				c, s, err := resolve(tr, solve)
				if (wantErr == nil) != (err == nil) {
					t.Fatalf("Resolve err %v, scratch err %v (jobs %v)", err, wantErr, tr.Instance().Jobs)
				}
				if err != nil {
					if !errors.Is(err, core.ErrInfeasible) {
						t.Fatalf("Resolve failed with %v, want ErrInfeasible", err)
					}
					continue
				}
				if c.cost != want {
					t.Fatalf("Resolve cost %v, scratch %v (jobs %v)", c.cost, want, tr.Instance().Jobs)
				}
				if err := s.Validate(tr.Instance()); err != nil {
					t.Fatalf("Resolve schedule invalid: %v", err)
				}
				if c.resolved+c.reused != tr.Fragments() {
					t.Fatalf("counts %+v do not cover %d fragments", c, tr.Fragments())
				}
			}
		}
	}
}

// TestTrackerDeltaLocality pins the reuse contract on a deterministic
// three-cluster instance: a delta inside one cluster re-solves exactly
// that cluster, a bridging add merges exactly the bridged clusters,
// and removing the bridge splits them back — everything else is
// reused, never re-solved.
func TestTrackerDeltaLocality(t *testing.T) {
	tr := New[result](1, 1)
	for _, r := range []int{0, 10, 20} { // three clusters of two jobs
		addOne(t, tr, sched.Job{Release: r, Deadline: r + 2})
		addOne(t, tr, sched.Job{Release: r + 1, Deadline: r + 3})
	}
	if tr.Fragments() != 3 {
		t.Fatalf("fragments = %d, want 3", tr.Fragments())
	}
	if c, _, err := resolve(tr, gapSolve); err != nil || c.resolved != 3 || c.reused != 0 {
		t.Fatalf("initial resolve: counts %+v err %v, want 3 resolved", c, err)
	}

	// A job inside the middle cluster dirties only it.
	mid := addOne(t, tr, sched.Job{Release: 11, Deadline: 12})
	if c, _, err := resolve(tr, gapSolve); err != nil || c.resolved != 1 || c.reused != 2 {
		t.Fatalf("middle add: counts %+v err %v, want 1 resolved 2 reused", c, err)
	}
	if !removeOne(tr, mid) {
		t.Fatal("middle job not removed")
	}
	if c, _, err := resolve(tr, gapSolve); err != nil || c.resolved != 1 || c.reused != 2 {
		t.Fatalf("middle remove: counts %+v err %v, want 1 resolved 2 reused", c, err)
	}

	// A wide bridge merges the first two clusters into one dirty
	// fragment; the third is reused.
	bridge := addOne(t, tr, sched.Job{Release: 2, Deadline: 11})
	if tr.Fragments() != 2 {
		t.Fatalf("after bridge: fragments = %d, want 2", tr.Fragments())
	}
	if c, _, err := resolve(tr, gapSolve); err != nil || c.resolved != 1 || c.reused != 1 {
		t.Fatalf("bridge add: counts %+v err %v, want 1 resolved 1 reused", c, err)
	}

	// Removing the bridge splits the merged fragment back into two,
	// both dirty; the untouched third cluster is still reused.
	if !removeOne(tr, bridge) {
		t.Fatal("bridge not removed")
	}
	if tr.Fragments() != 3 {
		t.Fatalf("after unbridge: fragments = %d, want 3", tr.Fragments())
	}
	if c, _, err := resolve(tr, gapSolve); err != nil || c.resolved != 2 || c.reused != 1 {
		t.Fatalf("bridge remove: counts %+v err %v, want 2 resolved 1 reused", c, err)
	}

	// A steady-state resolve re-solves nothing.
	if c, _, err := resolve(tr, gapSolve); err != nil || c.resolved != 0 || c.reused != 3 {
		t.Fatalf("steady state: counts %+v err %v, want 0 resolved 3 reused", c, err)
	}
}

// TestTrackerInfeasibleAndRecover: an over-constrained fragment makes
// Resolve fail with the engine's infeasibility error; removing the
// conflicting job re-solves only that fragment and earlier results
// survive.
func TestTrackerInfeasibleAndRecover(t *testing.T) {
	tr := New[result](1, 1)
	addOne(t, tr, sched.Job{Release: 0, Deadline: 1})
	addOne(t, tr, sched.Job{Release: 10, Deadline: 10})
	if _, _, err := resolve(tr, gapSolve); err != nil {
		t.Fatalf("feasible resolve failed: %v", err)
	}
	clash := addOne(t, tr, sched.Job{Release: 10, Deadline: 10}) // two point jobs, one slot
	if _, _, err := resolve(tr, gapSolve); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if !removeOne(tr, clash) {
		t.Fatal("clash not removed")
	}
	c, s, err := resolve(tr, gapSolve)
	if err != nil {
		t.Fatalf("recovery resolve failed: %v", err)
	}
	if c.cost != 2 {
		t.Fatalf("recovered cost %v, want 2 spans", c.cost)
	}
	if c.resolved != 1 || c.reused != 1 {
		t.Fatalf("recovery counts %+v, want 1 resolved 1 reused", c)
	}
	if err := s.Validate(tr.Instance()); err != nil {
		t.Fatalf("recovered schedule invalid: %v", err)
	}
}

// TestTrackerEmptyAndUnknown covers the degenerate surface: removing
// unknown ids, resolving an empty tracker, and draining to empty.
func TestTrackerEmptyAndUnknown(t *testing.T) {
	tr := New[result](2, 1)
	if removeOne(tr, 7) {
		t.Fatal("removed a job that was never added")
	}
	c, s, err := resolve(tr, gapSolve)
	if err != nil || c.cost != 0 || len(s.Slots) != 0 || c.resolved != 0 {
		t.Fatalf("empty resolve: schedule %+v counts %+v err %v", s, c, err)
	}
	id := addOne(t, tr, sched.Job{Release: 3, Deadline: 5})
	if !removeOne(tr, id) || tr.Len() != 0 || tr.Fragments() != 0 {
		t.Fatalf("drain failed: len %d frags %d", tr.Len(), tr.Fragments())
	}
	if removeOne(tr, id) {
		t.Fatal("double remove succeeded")
	}
}

// TestTrackerArrivalOrderedDeltas pins the locality property the
// online tier leans on: when jobs arrive in non-decreasing release
// order — every new release is ≥ all previous ones, so every existing
// fragment starts at or before it — an add can only extend or append
// to the LAST fragment, never disturb an earlier one. Each arrival
// therefore dirties exactly one fragment and the mirror re-solve
// behind a streaming session is one fragment's work, not the prefix's.
func TestTrackerArrivalOrderedDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		tr := New[result](1+rng.Intn(2), 1)
		release := 0
		for k := 0; k < 12; k++ {
			release += rng.Intn(6) // non-decreasing, sometimes equal
			addOne(t, tr, sched.Job{Release: release, Deadline: release + rng.Intn(9)})
			checkDecomposition(t, tr, 1)
			c, _, err := resolve(tr, gapSolve)
			if err != nil {
				if !errors.Is(err, core.ErrInfeasible) {
					t.Fatalf("Resolve: %v", err)
				}
				continue
			}
			if c.resolved != 1 || c.reused != tr.Fragments()-1 {
				t.Fatalf("arrival-ordered add resolved %d fragments, reused %d of %d — the delta was not local (jobs %v)",
					c.resolved, c.reused, tr.Fragments(), tr.Instance().Jobs)
			}
		}
	}
}

// sameState reports the first difference between two trackers' live
// ids, id counters and fragment lists (boundaries, ids, dirty flags
// and clean fragments' stored records), or "" when they agree.
func sameState(a, b *Tracker[result]) string {
	if !slices.Equal(a.ids, b.ids) || a.nextID != b.nextID || len(a.jobs) != len(b.jobs) {
		return fmt.Sprintf("live ids %v (next %d), want %v (next %d)", a.ids, a.nextID, b.ids, b.nextID)
	}
	if len(a.frags) != len(b.frags) {
		return fmt.Sprintf("%d fragments, want %d", len(a.frags), len(b.frags))
	}
	for i, f := range a.frags {
		g := b.frags[i]
		if f.start != g.start || f.end != g.end || f.dirty != g.dirty || !f.dirty && f.rec.cost != g.rec.cost || !slices.Equal(f.ids, g.ids) {
			return fmt.Sprintf("fragment %d: %+v, want %+v", i, *f, *g)
		}
	}
	return ""
}

// TestTrackerApplyMatchesSequential: a multi-op delta applied in one
// Apply leaves the same fragment list, dirty flags, stored records and
// ids as the same ops applied one at a time (removals first, then
// additions, each in order), at every split width. Before each delta a
// random subset of fragments is marked clean with a distinct record, so
// the comparison sees which fragments a delta touched. A delta naming
// an unknown or repeated removal id is rejected whole.
func TestTrackerApplyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, w := range []float64{1, 0.5, 3.5, 6} {
		for trial := 0; trial < 30; trial++ {
			procs := 1 + rng.Intn(3)
			bulk, seq := New[result](procs, w), New[result](procs, w)
			var live []int
			for step := 0; step < 25; step++ {
				for i, f := range bulk.frags {
					if rng.Intn(2) == 0 {
						f.dirty, f.rec.cost = false, float64(100*step+i)
						seq.frags[i].dirty, seq.frags[i].rec.cost = false, f.rec.cost
					}
				}
				var add []sched.Job
				for k := rng.Intn(5); k > 0; k-- {
					r := rng.Intn(60)
					add = append(add, sched.Job{Release: r, Deadline: r + rng.Intn(6)})
				}
				var remove []int
				for _, i := range rng.Perm(len(live))[:min(len(live), rng.Intn(4))] {
					remove = append(remove, live[i])
				}
				if rng.Intn(8) == 0 {
					bad := bulk.nextID + rng.Intn(3) // never assigned
					if len(remove) > 0 && rng.Intn(2) == 0 {
						bad = remove[0] // repeated
					}
					remove = append(remove, bad)
					before := New[result](procs, w)
					before.nextID, before.ids, before.jobs = bulk.nextID, slices.Clone(bulk.ids), maps.Clone(bulk.jobs)
					for _, f := range bulk.frags {
						g := *f
						g.ids = slices.Clone(f.ids)
						before.frags = append(before.frags, &g)
					}
					var unknown *UnknownJobError
					if _, err := bulk.Apply(add, remove); !errors.As(err, &unknown) || unknown.ID != bad {
						t.Fatalf("delta removing %v: err %v, want UnknownJobError for %d", remove, err, bad)
					}
					if diff := sameState(bulk, before); diff != "" {
						t.Fatalf("rejected delta changed the tracker: %s", diff)
					}
					continue
				}

				got, err := bulk.Apply(add, remove)
				if err != nil {
					t.Fatalf("Apply(%v, %v): %v", add, remove, err)
				}
				var want []int
				for _, id := range remove {
					if !removeOne(seq, id) {
						t.Fatalf("sequential remove %d failed", id)
					}
				}
				for _, j := range add {
					want = append(want, addOne(t, seq, j))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Apply assigned ids %v, sequential %v", got, want)
				}
				if diff := sameState(bulk, seq); diff != "" {
					t.Fatalf("w=%v step %d, delta add %v remove %v: %s", w, step, add, remove, diff)
				}
				checkDecomposition(t, bulk, w)
				live = slices.DeleteFunc(live, func(id int) bool { return slices.Contains(remove, id) })
				live = append(live, got...)
			}
		}
	}
}
