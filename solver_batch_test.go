package gapsched

// Edge-case and cache tests for the fragment-level SolveBatch: mixed
// infeasible instances, determinism across worker counts, empty
// instances, uniform configuration errors, and the canonical-fragment
// cache (fresh per call, persistent, and within a single Solve).

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/workload"
)

// infeasibleInstance needs two unit jobs in one slot on one processor.
func infeasibleInstance() Instance {
	return NewInstance([]Job{
		{Release: 4, Deadline: 4},
		{Release: 4, Deadline: 4},
	})
}

// clusteredInstance builds count copies of the same 3-job cluster
// spread far apart, so prep splits it into count identical fragments.
func clusteredInstance(count, stride int) Instance {
	var jobs []Job
	for c := 0; c < count; c++ {
		base := c * stride
		jobs = append(jobs,
			Job{Release: base, Deadline: base + 2},
			Job{Release: base + 1, Deadline: base + 4},
			Job{Release: base + 4, Deadline: base + 5},
		)
	}
	return NewInstance(jobs)
}

// withFreshCache returns s with a new FragmentCache of the given
// capacity, or s unchanged when size is 0. Each call gets its own
// cache, so no entry carries over from an earlier solve and a cached
// solve is compared with an uncached one, not with another cached one.
func withFreshCache(s Solver, size int) Solver {
	if size > 0 {
		s.Cache = NewFragmentCache(size)
	}
	return s
}

func TestSolveBatchInfeasibleLeavesNeighborsUndisturbed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var ins []Instance
	for i := 0; i < 30; i++ {
		if i%3 == 1 {
			ins = append(ins, infeasibleInstance())
		} else {
			ins = append(ins, workload.FeasibleOneInterval(rng, 1+rng.Intn(6), 1+rng.Intn(2), 12, 4))
		}
	}
	for _, tc := range []struct {
		s         Solver
		cacheSize int
	}{
		{Solver{}, 0},
		{Solver{}, 256},
		{Solver{Objective: ObjectivePower, Alpha: 1.5}, 256},
	} {
		s := tc.s
		batch := withFreshCache(s, tc.cacheSize).SolveBatch(ins)
		for i := range ins {
			want, wantErr := s.Solve(ins[i])
			if i%3 == 1 {
				if !errors.Is(batch[i].Err, ErrInfeasible) {
					t.Fatalf("instance %d: want ErrInfeasible, got %v", i, batch[i].Err)
				}
				continue
			}
			if batch[i].Err != nil || wantErr != nil {
				t.Fatalf("instance %d: batch err %v, solve err %v", i, batch[i].Err, wantErr)
			}
			got := batch[i].Solution
			if got.Spans != want.Spans || got.States != want.States ||
				math.Abs(got.Power-want.Power) > 0 {
				t.Fatalf("instance %d: batch %+v, sequential %+v", i, got, want)
			}
			if err := got.Schedule.Validate(ins[i]); err != nil {
				t.Fatalf("instance %d: invalid schedule next to infeasible neighbor: %v", i, err)
			}
		}
	}
}

func TestSolveBatchInfeasibleFragmentMidInstance(t *testing.T) {
	// Three far-apart fragments, the middle one infeasible: the batch
	// path (which may skip sibling fragments once one fails) must
	// report the same error as a sequential Solve, and neighbors in the
	// batch must be untouched.
	mixed := NewInstance([]Job{
		{Release: 0, Deadline: 2},
		{Release: 1000, Deadline: 1000},
		{Release: 1000, Deadline: 1000},
		{Release: 2000, Deadline: 2003},
	})
	ins := []Instance{clusteredInstance(2, 1000), mixed, clusteredInstance(3, 1000)}
	for _, tc := range []struct {
		s         Solver
		cacheSize int
	}{{Solver{}, 0}, {Solver{}, 64}, {Solver{Workers: 4}, 0}} {
		s := tc.s
		_, solveErr := s.Solve(mixed)
		if !errors.Is(solveErr, ErrInfeasible) {
			t.Fatalf("Solve: want ErrInfeasible, got %v", solveErr)
		}
		batch := withFreshCache(s, tc.cacheSize).SolveBatch(ins)
		if batch[1].Err == nil || batch[1].Err.Error() != solveErr.Error() {
			t.Fatalf("batch err %v, Solve err %v", batch[1].Err, solveErr)
		}
		for _, i := range []int{0, 2} {
			if batch[i].Err != nil {
				t.Fatalf("neighbor %d failed: %v", i, batch[i].Err)
			}
			if err := batch[i].Solution.Schedule.Validate(ins[i]); err != nil {
				t.Fatalf("neighbor %d: %v", i, err)
			}
		}
	}
}

func TestSolveBatchDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ins := make([]Instance, 24)
	for i := range ins {
		switch i % 4 {
		case 0:
			ins[i] = clusteredInstance(3, 1000) // multi-fragment
		case 1:
			ins[i] = infeasibleInstance()
		case 2:
			ins[i] = Instance{Jobs: nil, Procs: 1} // empty
		default:
			ins[i] = workload.Multiproc(rng, 1+rng.Intn(6), 1+rng.Intn(2), 10+rng.Intn(8), 4)
		}
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range []struct {
		base      Solver
		cacheSize int
	}{
		{Solver{}, 0},
		{Solver{}, 512},
		{Solver{Objective: ObjectivePower, Alpha: 2}, 512},
	} {
		var ref []BatchResult
		for wi, workers := range workerCounts {
			s := tc.base
			s.Workers = workers
			batch := withFreshCache(s, tc.cacheSize).SolveBatch(ins)
			if wi == 0 {
				ref = batch
				continue
			}
			for i := range ins {
				a, b := ref[i], batch[i]
				if (a.Err == nil) != (b.Err == nil) ||
					(a.Err != nil && a.Err.Error() != b.Err.Error()) {
					t.Fatalf("workers=%d instance %d: err %v vs reference %v", workers, i, b.Err, a.Err)
				}
				if a.Err != nil {
					continue
				}
				// Everything except CacheHits must be bit-identical;
				// hit attribution may legitimately shift between
				// workers racing on the same fragment.
				as, bs := a.Solution, b.Solution
				as.CacheHits, bs.CacheHits = 0, 0
				if as.Spans != bs.Spans || as.Gaps != bs.Gaps || as.States != bs.States ||
					as.Subinstances != bs.Subinstances || as.Power != bs.Power {
					t.Fatalf("workers=%d instance %d: %+v vs reference %+v", workers, i, bs, as)
				}
				if err := bs.Schedule.Validate(ins[i]); err != nil {
					t.Fatalf("workers=%d instance %d: invalid schedule: %v", workers, i, err)
				}
			}
		}
	}
}

func TestSolveBatchEmptyAndZeroJobInstances(t *testing.T) {
	ins := []Instance{
		{Jobs: nil, Procs: 1},
		NewInstance([]Job{{Release: 0, Deadline: 1}}),
		{Jobs: []Job{}, Procs: 3},
		{Jobs: nil, Procs: 0}, // invalid: no processors
	}
	batch := (Solver{}).SolveBatch(ins)
	for i, in := range ins {
		want, wantErr := (Solver{}).Solve(in)
		if (wantErr == nil) != (batch[i].Err == nil) ||
			(wantErr != nil && wantErr.Error() != batch[i].Err.Error()) {
			t.Fatalf("instance %d: batch err %v, solve err %v", i, batch[i].Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		got := batch[i].Solution
		if got.Spans != want.Spans || got.Subinstances != want.Subinstances {
			t.Fatalf("instance %d: batch %+v, solve %+v", i, got, want)
		}
		if len(in.Jobs) == 0 {
			if got.Spans != 0 || got.Gaps != 0 || got.Subinstances != 0 || len(got.Schedule.Slots) != 0 {
				t.Fatalf("empty instance %d round-trip: %+v", i, got)
			}
		}
		if err := got.Schedule.Validate(in); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if batch[3].Err == nil {
		t.Fatal("zero-processor instance accepted")
	}
}

func TestSolveBatchUniformConfigErrors(t *testing.T) {
	ins := []Instance{
		NewInstance([]Job{{Release: 0, Deadline: 1}}),
		infeasibleInstance(),
	}
	for name, s := range map[string]Solver{
		"negative-alpha-power": {Objective: ObjectivePower, Alpha: -0.5},
		"negative-alpha-gaps":  {Alpha: -2},
		"unknown-objective":    {Objective: Objective(42)},
	} {
		_, solveErr := s.Solve(ins[0])
		if solveErr == nil {
			t.Fatalf("%s: Solve accepted bad config", name)
		}
		batch := s.SolveBatch(ins)
		for i, r := range batch {
			if r.Err == nil || r.Err.Error() != solveErr.Error() {
				t.Fatalf("%s: instance %d got %v, Solve reports %v", name, i, r.Err, solveErr)
			}
		}
	}
}

func TestSolveBatchCachedMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	distinct := make([]Instance, 6)
	for i := range distinct {
		distinct[i] = workload.FeasibleOneInterval(rng, 8, 2, 40, 4)
	}
	ins := make([]Instance, 48)
	for i := range ins {
		ins[i] = distinct[rng.Intn(len(distinct))]
	}
	for _, objective := range []Objective{ObjectiveGaps, ObjectivePower} {
		uncached := Solver{Objective: objective, Alpha: 2}.SolveBatch(ins)
		cached := Solver{Objective: objective, Alpha: 2, Cache: NewFragmentCache(1024)}.SolveBatch(ins)
		hits := 0
		for i := range ins {
			u, c := uncached[i], cached[i]
			if (u.Err == nil) != (c.Err == nil) {
				t.Fatalf("%v instance %d: cached err %v, uncached %v", objective, i, c.Err, u.Err)
			}
			if u.Err != nil {
				continue
			}
			if c.Solution.Spans != u.Solution.Spans || c.Solution.Power != u.Solution.Power ||
				c.Solution.States != u.Solution.States {
				t.Fatalf("%v instance %d: cached %+v, uncached %+v", objective, i, c.Solution, u.Solution)
			}
			if err := c.Solution.Schedule.Validate(ins[i]); err != nil {
				t.Fatalf("%v instance %d: cached schedule invalid: %v", objective, i, err)
			}
			hits += c.Solution.CacheHits
		}
		if hits == 0 {
			t.Fatalf("%v: duplicate-heavy batch produced no cache hits", objective)
		}
	}
}

func TestFragmentCachePersistsAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ins := make([]Instance, 12)
	for i := range ins {
		ins[i] = workload.FeasibleOneInterval(rng, 7, 1, 30, 4)
	}
	cache := NewFragmentCache(4096)
	s := Solver{Cache: cache}
	first := s.SolveBatch(ins)
	second := s.SolveBatch(ins)
	frags, secondHits := 0, 0
	for i := range ins {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("instance %d: errs %v / %v", i, first[i].Err, second[i].Err)
		}
		if first[i].Solution.Spans != second[i].Solution.Spans {
			t.Fatalf("instance %d: second batch changed the answer", i)
		}
		frags += second[i].Solution.Subinstances
		secondHits += second[i].Solution.CacheHits
	}
	if secondHits != frags {
		t.Fatalf("second identical batch: %d hits for %d fragments (want all hits)", secondHits, frags)
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 || cache.Len() == 0 {
		t.Fatalf("implausible persistent cache stats %+v len %d", st, cache.Len())
	}
}

func TestSolveUsesCacheAcrossIdenticalFragments(t *testing.T) {
	// One instance whose prep decomposition yields 5 identical
	// fragments: with a cache, a single Solve call should solve the
	// canonical fragment once and serve the other 4 as hits.
	in := clusteredInstance(5, 1000)
	cache := NewFragmentCache(64)
	withCache, err := Solver{Cache: cache}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Solver{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if withCache.Subinstances != 5 {
		t.Fatalf("expected 5 fragments, got %d", withCache.Subinstances)
	}
	if withCache.CacheHits != 4 {
		t.Fatalf("expected 4 cache hits, got %d", withCache.CacheHits)
	}
	if without.CacheHits != 0 {
		t.Fatalf("uncached solve reported %d cache hits", without.CacheHits)
	}
	if withCache.Spans != without.Spans || withCache.States != without.States {
		t.Fatalf("cached solve %+v differs from uncached %+v", withCache, without)
	}
	if err := withCache.Schedule.Validate(in); err != nil {
		t.Fatalf("cached schedule invalid: %v", err)
	}
}

// TestCorruptedCacheEntryFailsHit: a cache hit validates the schedule
// it serves against the fragment it answers, so an entry whose stored
// schedule was damaged inside the shared cache makes the next hit fail
// instead of assembling an invalid schedule, on both tiers. The damage
// puts two jobs in one slot inside their windows, which only the
// fragment's own check can see: the assembly pass checks windows and
// processors, not pairs.
func TestCorruptedCacheEntryFailsHit(t *testing.T) {
	in := NewInstance([]Job{{Release: 0, Deadline: 5}, {Release: 0, Deadline: 5}, {Release: 0, Deadline: 5}})
	for _, mode := range []Mode{ModeExact, ModeHeuristic} {
		s := Solver{Mode: mode, Cache: NewFragmentCache(64)}
		if _, err := s.Solve(in); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		rt, err := s.runtime()
		if err != nil {
			t.Fatal(err)
		}
		canon, _ := prep.Canonicalize(prep.Decompose(in, rt.splitWidth).Subs[0].Instance)
		tag := rt.tag
		if rt.tier(canon) == obs.BackendHeur {
			tag |= heurTag
		}
		stored, hit := s.Cache.c.Do(prep.CanonicalKey(canon, tag, rt.obj.Alpha), func() fragResult {
			t.Fatalf("%v: the first solve stored no entry", mode)
			return fragResult{}
		})
		if !hit || stored.err != nil {
			t.Fatalf("%v: stored entry hit %v err %v", mode, hit, stored.err)
		}
		stored.schedule.Slots[1] = stored.schedule.Slots[0] // the slice is the cache's own
		_, err = s.Solve(in)
		if err == nil || !strings.Contains(err.Error(), "cached fragment schedule") {
			t.Fatalf("%v: solve over a corrupted entry returned %v, want the hit's validation error", mode, err)
		}
	}
}

// TestAssemblyRejectsSlotOutsideWindow: the assembly pass checks every
// slot of the assembled schedule against its job's window, so a
// fragment schedule that reaches finishInstance with a job moved out of
// its window fails the solve.
func TestAssemblyRejectsSlotOutsideWindow(t *testing.T) {
	in := clusteredInstance(3, 100)
	s := Solver{}
	rt, err := s.runtime()
	if err != nil {
		t.Fatal(err)
	}
	solve := func() *preparedInstance {
		p := s.prepare(in, rt, nil)
		for i, fr := range p.frags {
			p.results[i] = s.solveFragment(rt, fr, nil)
		}
		return p
	}
	if _, err := s.finishInstance(solve(), rt, nil); err != nil {
		t.Fatalf("intact fragments: %v", err)
	}
	p := solve()
	p.results[1].schedule.Slots[2].Time = p.frags[1].Jobs[2].Deadline + 1
	if _, err := s.finishInstance(p, rt, nil); err == nil || !strings.Contains(err.Error(), "outside window") {
		t.Fatalf("finishInstance over a slot past its deadline returned %v, want a window error", err)
	}
}

// TestSolveMatchesOneInstanceBatch pins the one solve path: Solve of an
// instance equals a one-instance SolveBatch at one and at four workers
// in every Solution field but Timings, across both objectives, the
// three modes, a fresh cache or none, and preprocessing on and off.
// Infeasible instances fail with the same error.
func TestSolveMatchesOneInstanceBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := make([]Instance, 12)
	for i := range ins {
		// Clusters drawn from a small pool and placed 100 apart, so prep
		// splits the instance into fragments that often repeat (cache
		// hits within one solve) and sometimes include an infeasible one.
		procs := 1 + rng.Intn(2)
		pool := []Instance{
			workload.Multiproc(rng, 1+rng.Intn(4), procs, 6, 3),
			workload.Multiproc(rng, 4+rng.Intn(4), procs, 8, 4),
		}
		if i%3 == 2 {
			pool = append(pool, Instance{Jobs: []Job{{Release: 2, Deadline: 2}, {Release: 2, Deadline: 2}, {Release: 2, Deadline: 2}}})
		}
		var jobs []Job
		for c := 0; c < 2+rng.Intn(3); c++ {
			for _, j := range pool[rng.Intn(len(pool))].Jobs {
				jobs = append(jobs, Job{Release: j.Release + 100*c, Deadline: j.Deadline + 100*c})
			}
		}
		ins[i] = NewMultiprocInstance(jobs, procs)
	}
	failed := 0
	for _, obj := range []Objective{ObjectiveGaps, ObjectivePower} {
		for _, mode := range []Mode{ModeExact, ModeHeuristic, ModeAuto} {
			for _, raw := range []bool{false, true} {
				for _, cacheSize := range []int{0, 1 << 10} {
					base := Solver{Objective: obj, Alpha: 2, Mode: mode, NoPreprocess: raw}
					if mode == ModeAuto {
						base.StateBudget = 40
					}
					for i, in := range ins {
						want, wantErr := withFreshCache(base, cacheSize).Solve(in)
						if wantErr != nil {
							failed++
						}
						want.Timings = Timings{}
						for _, workers := range []int{1, 4} {
							s := withFreshCache(base, cacheSize)
							s.Workers = workers
							got := s.SolveBatch([]Instance{in})[0]
							if (wantErr == nil) != (got.Err == nil) || wantErr != nil && wantErr.Error() != got.Err.Error() {
								t.Fatalf("%+v cache %d workers %d instance %d: batch err %v, Solve err %v",
									base, cacheSize, workers, i, got.Err, wantErr)
							}
							got.Solution.Timings = Timings{}
							if !reflect.DeepEqual(got.Solution, want) {
								t.Fatalf("%+v cache %d workers %d instance %d:\nbatch %+v\nSolve %+v",
									base, cacheSize, workers, i, got.Solution, want)
							}
						}
					}
				}
			}
		}
	}
	if failed == 0 || failed == 24*len(ins) {
		t.Fatalf("%d of %d solves failed: want a mix of feasible and infeasible instances", failed, 24*len(ins))
	}
}
