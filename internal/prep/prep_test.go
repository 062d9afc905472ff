package prep_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workload"
)

// solveSplit decomposes, solves every fragment with the given solver,
// and reassembles, returning the summed cost and assembled schedule.
func solveSplit(t *testing.T, pl *prep.Plan, solve func(sched.Instance) (float64, sched.Schedule, error)) (float64, sched.Schedule) {
	t.Helper()
	total := 0.0
	parts := make([]sched.Schedule, len(pl.Subs))
	for i, sub := range pl.Subs {
		cost, s, err := solve(sub.Instance)
		if err != nil {
			t.Fatalf("fragment %d (%v): %v", i, sub.Instance.Jobs, err)
		}
		total += cost
		parts[i] = s
	}
	out, err := pl.Assemble(parts)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return total, out
}

func TestDecomposeStructure(t *testing.T) {
	in := sched.NewInstance([]sched.Job{
		{Release: 100, Deadline: 102}, // fragment 0
		{Release: 0, Deadline: 1},     // fragment... sorted by release
		{Release: 101, Deadline: 105},
		{Release: 3, Deadline: 4},
	})
	pl := prep.ForGaps(in)
	if len(pl.Subs) != 3 {
		t.Fatalf("got %d fragments, want 3: %+v", len(pl.Subs), pl.Subs)
	}
	// Fragment boundaries: {job 1}, {job 3}, {jobs 0, 2}.
	wantJobs := [][]int{{1}, {3}, {0, 2}}
	for i, sub := range pl.Subs {
		if len(sub.Jobs) != len(wantJobs[i]) {
			t.Fatalf("fragment %d jobs %v, want %v", i, sub.Jobs, wantJobs[i])
		}
		for q, j := range sub.Jobs {
			if j != wantJobs[i][q] {
				t.Fatalf("fragment %d jobs %v, want %v", i, sub.Jobs, wantJobs[i])
			}
		}
		// Translation: earliest release is 0, windows preserved.
		lo := sub.Instance.Jobs[0].Release
		for q, job := range sub.Instance.Jobs {
			if job.Release < lo {
				lo = job.Release
			}
			orig := in.Jobs[sub.Jobs[q]]
			if job.Deadline-job.Release != orig.Deadline-orig.Release {
				t.Fatalf("fragment %d job %d window resized: %v from %v", i, q, job, orig)
			}
			if job.Release+sub.Offset != orig.Release {
				t.Fatalf("fragment %d job %d offset wrong: %v + %d != %v", i, q, job, sub.Offset, orig)
			}
		}
		if lo != 0 {
			t.Fatalf("fragment %d not zero-based: earliest release %d", i, lo)
		}
	}
}

func TestPowerSplitRespectsAlpha(t *testing.T) {
	// Two clusters 4 idle units apart: α ≤ 4 splits, α > 4 must not.
	in := sched.NewInstance([]sched.Job{
		{Release: 0, Deadline: 1}, {Release: 6, Deadline: 7},
	})
	if pl := prep.ForPower(in, 4); len(pl.Subs) != 2 {
		t.Fatalf("α=4 ≤ idle width 4: want split, got %d fragments", len(pl.Subs))
	}
	if pl := prep.ForPower(in, 4.5); len(pl.Subs) != 1 {
		t.Fatalf("α=4.5 > idle width 4: want no split, got fragments")
	}
	if pl := prep.ForPower(in, 0); len(pl.Subs) != 2 {
		t.Fatalf("α=0: every idle run splits, got %d fragments", len(pl.Subs))
	}
}

func TestDecomposeEmptyAndSingle(t *testing.T) {
	if pl := prep.ForGaps(sched.NewInstance(nil)); len(pl.Subs) != 0 {
		t.Fatalf("empty instance produced fragments")
	}
	s, err := prep.ForGaps(sched.NewInstance(nil)).Assemble(nil)
	if err != nil || len(s.Slots) != 0 {
		t.Fatalf("empty assemble: %v %v", s, err)
	}
	pl := prep.ForGaps(sched.NewInstance([]sched.Job{{Release: 7, Deadline: 9}}))
	if len(pl.Subs) != 1 || pl.Subs[0].Offset != 7 {
		t.Fatalf("single job plan wrong: %+v", pl.Subs)
	}
}

// TestSplitGapsMatchesDirect is the prep-layer invariant:
// decompose-then-concatenate equals direct solve in cost, and the
// assembled schedule is valid and attains that cost.
func TestSplitGapsMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(3)
		// Sparse horizon so forced-idle splits actually happen, plus a
		// large absolute offset so translation is exercised.
		in := workload.FeasibleOneInterval(rng, n, p, 30, 3)
		off := rng.Intn(1000000)
		for i := range in.Jobs {
			in.Jobs[i].Release += off
			in.Jobs[i].Deadline += off
		}
		direct, err := core.Solve(in, core.Objective{}, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: direct solve: %v", trial, err)
		}
		pl := prep.ForGaps(in)
		total, s := solveSplit(t, pl, func(sub sched.Instance) (float64, sched.Schedule, error) {
			res, err := core.Solve(sub, core.Objective{}, core.Options{})
			return res.Cost, res.Schedule, err
		})
		if total != direct.Cost {
			t.Fatalf("trial %d: split spans %v != direct %v (jobs %v)", trial, total, direct.Cost, in.Jobs)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("trial %d: assembled schedule invalid: %v", trial, err)
		}
		if got := s.Spans(); float64(got) != direct.Cost {
			t.Fatalf("trial %d: assembled schedule has %d spans, want %v", trial, got, direct.Cost)
		}
	}
}

func TestSplitPowerMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphas := []float64{0, 0.5, 1, 2.5, 6}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(7)
		p := 1 + rng.Intn(2)
		alpha := alphas[rng.Intn(len(alphas))]
		in := workload.FeasibleOneInterval(rng, n, p, 24, 3)
		direct, err := core.Solve(in, core.Objective{Power: true, Alpha: alpha}, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: direct solve: %v", trial, err)
		}
		pl := prep.ForPower(in, alpha)
		total, s := solveSplit(t, pl, func(sub sched.Instance) (float64, sched.Schedule, error) {
			res, err := core.Solve(sub, core.Objective{Power: true, Alpha: alpha}, core.Options{})
			return res.Cost, res.Schedule, err
		})
		if math.Abs(total-direct.Cost) > 1e-9 {
			t.Fatalf("trial %d: split power %v != direct %v (α=%v jobs %v)", trial, total, direct.Cost, alpha, in.Jobs)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("trial %d: assembled schedule invalid: %v", trial, err)
		}
		if got := s.PowerCost(alpha); math.Abs(got-direct.Cost) > 1e-9 {
			t.Fatalf("trial %d: assembled schedule power %v, want %v", trial, got, direct.Cost)
		}
	}
}

func TestAssembleRejectsShapeMismatch(t *testing.T) {
	pl := prep.ForGaps(sched.NewInstance([]sched.Job{{Release: 0, Deadline: 1}}))
	if _, err := pl.Assemble(nil); err == nil {
		t.Fatal("wrong part count accepted")
	}
	if _, err := pl.Assemble([]sched.Schedule{{Procs: 1}}); err == nil {
		t.Fatal("wrong slot count accepted")
	}
}
