package feas_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/feas"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestMaxMatchingSmall(t *testing.T) {
	g := feas.NewBipartite(3, 3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 2)
	m := feas.MaxMatching(g)
	if m.Size != 3 {
		t.Fatalf("matching size %d, want 3", m.Size)
	}
	for u := 0; u < 3; u++ {
		if m.MatchL[u] < 0 {
			t.Fatalf("left %d unmatched", u)
		}
		if m.MatchR[m.MatchL[u]] != u {
			t.Fatalf("inconsistent matching at %d", u)
		}
	}
}

func TestMaxMatchingDeficient(t *testing.T) {
	g := feas.NewBipartite(3, 2)
	for u := 0; u < 3; u++ {
		g.AddEdge(u, 0)
		g.AddEdge(u, 1)
	}
	if m := feas.MaxMatching(g); m.Size != 2 {
		t.Fatalf("matching size %d, want 2", m.Size)
	}
}

func TestMaxMatchingEmpty(t *testing.T) {
	if m := feas.MaxMatching(feas.NewBipartite(0, 0)); m.Size != 0 {
		t.Fatalf("empty graph matching size %d", m.Size)
	}
	if m := feas.MaxMatching(feas.NewBipartite(2, 2)); m.Size != 0 {
		t.Fatalf("edgeless graph matching size %d", m.Size)
	}
}

// TestMatchingEqualsGreedyAugmenting: Hopcroft–Karp and repeated
// feas.AugmentFrom must agree on matching size.
func TestMatchingEqualsGreedyAugmenting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nl, nr := 1+rng.Intn(8), 1+rng.Intn(8)
		g := feas.NewBipartite(nl, nr)
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		hk := feas.MaxMatching(g)
		m := feas.Matching{MatchL: make([]int, nl), MatchR: make([]int, nr)}
		for i := range m.MatchL {
			m.MatchL[i] = -1
		}
		for i := range m.MatchR {
			m.MatchR[i] = -1
		}
		for u := 0; u < nl; u++ {
			feas.AugmentFrom(g, &m, u)
		}
		if m.Size != hk.Size {
			t.Fatalf("trial %d: augmenting %d, Hopcroft–Karp %d", trial, m.Size, hk.Size)
		}
	}
}

// TestFeasibleEdgeCases pins the verdict on hand-picked instances, the
// degenerate ones included: a job whose window is empty (release after
// deadline) fits nowhere, and no job runs without a processor. The
// feasibility verdict, EDF's and the Hall oracle's must all agree.
func TestFeasibleEdgeCases(t *testing.T) {
	job := func(r, d int) sched.Job { return sched.Job{Release: r, Deadline: d} }
	cases := []struct {
		name  string
		procs int
		jobs  []sched.Job
		want  bool
	}{
		{"no jobs", 1, nil, true},
		{"chain", 1, []sched.Job{job(0, 0), job(1, 1), job(2, 2)}, true},
		{"stacked on two procs", 2, []sched.Job{job(0, 0), job(0, 0)}, true},
		{"overfull point", 1, []sched.Job{job(0, 0), job(0, 0)}, false},
		{"overfull window", 2, []sched.Job{job(3, 4), job(3, 4), job(3, 4), job(4, 4), job(3, 3)}, false},
		{"idle stretch", 1, []sched.Job{job(0, 1), job(1<<20, 1<<20+1)}, true},
		{"empty window alone", 1, []sched.Job{job(5, 3)}, false},
		{"empty window after a point", 1, []sched.Job{job(0, 0), job(2, 1)}, false},
		{"empty window, many procs", 4, []sched.Job{job(0, 9), job(7, 6)}, false},
		{"no processors", 0, []sched.Job{job(0, 1<<20)}, false},
		{"negative processors", -1, []sched.Job{job(5, 3)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := sched.Instance{Procs: c.procs, Jobs: c.jobs}
			if got := feas.FeasibleOneInterval(in); got != c.want {
				t.Errorf("FeasibleOneInterval = %v, want %v", got, c.want)
			}
			s, ok := feas.EDFOneInterval(in)
			if ok != c.want {
				t.Errorf("EDFOneInterval ok = %v, want %v", ok, c.want)
			}
			if ok {
				if err := s.Validate(in); err != nil {
					t.Errorf("EDF schedule invalid: %v", err)
				}
			} else if !reflect.DeepEqual(s, sched.Schedule{}) {
				t.Errorf("failed EDF returned a schedule: %+v", s)
			}
			if got := exact.HallFeasible(in); got != c.want {
				t.Errorf("exact.HallFeasible = %v, want %v", got, c.want)
			}
		})
	}
}

// TestEDFMatchesHall is the property test behind the O(n log n)
// verdict: on 100 000 random small instances the EDF sweep, through
// both FeasibleOneInterval and EDFOneInterval, agrees with the O(n³)
// Hall-condition oracle. Windows are tight enough that a fair share of
// instances is infeasible, and a few jobs have empty windows.
func TestEDFMatchesHall(t *testing.T) {
	const trials = 100_000
	rng := rand.New(rand.NewSource(8))
	infeasible, emptyWindows := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(8)
		in := workload.Multiproc(rng, n, 1+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(4))
		if rng.Intn(50) == 0 {
			j := &in.Jobs[rng.Intn(n)]
			j.Release, j.Deadline = j.Deadline+1, j.Release
			emptyWindows++
		}
		hall := exact.HallFeasible(in)
		_, edfOK := feas.EDFOneInterval(in)
		if sweep := feas.FeasibleOneInterval(in); sweep != hall || edfOK != hall {
			t.Fatalf("trial %d: FeasibleOneInterval=%v EDF=%v Hall=%v (p=%d jobs %v)",
				trial, sweep, edfOK, hall, in.Procs, in.Jobs)
		}
		if !hall {
			infeasible++
		}
	}
	share := float64(infeasible) / trials
	t.Logf("%d instances, %.1f%% infeasible, %d with an empty window", trials, 100*share, emptyWindows)
	if share < 0.10 {
		t.Fatalf("only %.1f%% of instances infeasible; the generator no longer exercises rejections", 100*share)
	}
}

func TestEDFSchedulesValidly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(10), 1+rng.Intn(3), 12, 4)
		s, ok := feas.EDFOneInterval(in)
		if !ok {
			t.Fatalf("trial %d: EDF failed on feasible instance", trial)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestFeasibleMultiAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		mi := workload.MultiInterval(rng, 1+rng.Intn(6), 1+rng.Intn(3), 1+rng.Intn(2), 8)
		got := feas.FeasibleMulti(mi)
		want := bruteFeasible(mi)
		if got != want {
			t.Fatalf("trial %d: matching=%v brute=%v (%v)", trial, got, want, mi.Jobs)
		}
	}
}

func bruteFeasible(mi sched.MultiInstance) bool {
	used := map[int]bool{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == mi.N() {
			return true
		}
		for _, t := range mi.Jobs[i].Times() {
			if !used[t] {
				used[t] = true
				if rec(i + 1) {
					return true
				}
				delete(used, t)
			}
		}
		return false
	}
	return rec(0)
}

// TestExtendScheduleLemma3 is the Lemma 3 property test: extending a
// feasible partial schedule of n′ jobs with g spans yields a full
// schedule with at most g + (n − n′) spans.
func TestExtendScheduleLemma3(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mi := workload.FeasibleMultiInterval(r, 2+r.Intn(8), 1+r.Intn(3), 1+r.Intn(3), 14)
		full, ok := feas.SolveMulti(mi)
		if !ok {
			return false
		}
		// Random partial sub-schedule.
		partial := map[int]int{}
		for j, tm := range full.Times {
			if r.Intn(2) == 0 {
				partial[j] = tm
			}
		}
		var partialTimes []int
		for _, tm := range partial {
			partialTimes = append(partialTimes, tm)
		}
		g := sched.SpansOfTimes(partialTimes)
		ext, ok := feas.ExtendSchedule(mi, partial)
		if !ok {
			return false
		}
		if err := ext.Validate(mi); err != nil {
			return false
		}
		// Lemma 3 bound.
		return ext.Spans() <= g+(mi.N()-len(partial))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestExtendScheduleRejectsBadPartial(t *testing.T) {
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.MultiJobFromTimes(0, 1),
		sched.MultiJobFromTimes(0),
	}}
	// Job 1 pinned to 0 and job 0 also (illegally) claimed at 0.
	if _, ok := feas.ExtendSchedule(mi, map[int]int{0: 0, 1: 0}); ok {
		t.Fatal("accepted colliding partial schedule")
	}
	if _, ok := feas.ExtendSchedule(mi, map[int]int{0: 5}); ok {
		t.Fatal("accepted out-of-set partial time")
	}
	if ext, ok := feas.ExtendSchedule(mi, map[int]int{0: 1}); !ok {
		t.Fatal("rejected valid partial schedule")
	} else if err := ext.Validate(mi); err != nil {
		t.Fatal(err)
	}
}

func TestLayOutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		in := workload.Multiproc(rng, 1+rng.Intn(6), 1+rng.Intn(3), 8, 3)
		mi, _ := sched.LayOut(in)
		if got, want := feas.FeasibleMulti(mi), exact.HallFeasible(in); got != want {
			t.Fatalf("trial %d: laid-out feasibility %v, direct %v", trial, got, want)
		}
	}
}
