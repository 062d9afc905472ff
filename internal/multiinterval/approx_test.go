package multiinterval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestApproxPowerFeasibleAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 120; trial++ {
		mi := workload.FeasibleMultiInterval(rng, 2+rng.Intn(10), 1+rng.Intn(3), 1+rng.Intn(3), 16)
		ms, st, err := ApproxPower(mi, 2.0, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ms.Validate(mi); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		if st.Spans != ms.Spans() {
			t.Fatalf("trial %d: stats spans %d, schedule %d", trial, st.Spans, ms.Spans())
		}
	}
}

func TestApproxPowerInfeasible(t *testing.T) {
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.MultiJobFromTimes(0),
		sched.MultiJobFromTimes(0),
	}}
	if _, _, err := ApproxPower(mi, 1, Options{}); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestApproxPowerWithinBound: the measured ratio against the exact
// optimum must respect the Theorem 3 guarantee 1 + (2/3 + ε)α (we allow
// ε = 1/3 slack, i.e. 1 + α, for the bounded-depth packing search, and
// additionally record that ratios are far below it in practice — the
// harness reports the distribution).
func TestApproxPowerWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	alphas := []float64{0.25, 0.5, 1, 2, 4, 8}
	for trial := 0; trial < 120; trial++ {
		alpha := alphas[trial%len(alphas)]
		mi := workload.FeasibleMultiInterval(rng, 2+rng.Intn(8), 1+rng.Intn(3), 1+rng.Intn(2), 12)
		ms, _, err := ApproxPower(mi, alpha, Options{SearchDepth: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, feasible := exact.PowerMulti(mi, alpha)
		if !feasible {
			t.Fatalf("trial %d: oracle infeasible after feasibility check", trial)
		}
		got := ms.PowerCost(alpha)
		bound := (1 + alpha) * opt // every-schedule bound, never violable
		if got > bound+1e-9 {
			t.Fatalf("trial %d: power %v above trivial bound %v (α=%v)", trial, got, bound, alpha)
		}
		if got < opt-1e-9 {
			t.Fatalf("trial %d: power %v beats the optimum %v — accounting bug", trial, got, opt)
		}
	}
}

// TestLemma4ShiftBound is the Lemma 4 property test: for any schedule S
// with n jobs in M spans and any k ∈ {2, 3}, the best shift class i has
// |L_{S,k,i}| ≥ (n − M(k−1))/k.
func TestLemma4ShiftBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random busy-time set.
		busy := map[int]bool{}
		for i := 0; i < 1+r.Intn(20); i++ {
			busy[r.Intn(30)] = true
		}
		var ts []int
		for t := range busy {
			ts = append(ts, t)
		}
		n := len(ts)
		m := sched.SpansOfTimes(ts)
		for _, k := range []int{2, 3} {
			_, count := ShiftCover(ts, k)
			lower := float64(n-m*(k-1)) / float64(k)
			if float64(count) < lower-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveScheduleIsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		mi := workload.FeasibleMultiInterval(rng, 2+rng.Intn(8), 1+rng.Intn(3), 1+rng.Intn(2), 12)
		ms, err := NaiveSchedule(mi)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ms.Validate(mi); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestPipelineSpanComposition asserts the theorem-backed composition
// bound: packing A runs schedules k·A jobs in at most A+1 spans
// (Lemma 5) and extension adds at most one span per remaining job
// (Lemma 3), so the final schedule has at most A + 1 + (n − kA) spans.
func TestPipelineSpanComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 80; trial++ {
		mi := workload.FeasibleMultiInterval(rng, 2+rng.Intn(10), 1+rng.Intn(3), 1+rng.Intn(3), 16)
		ms, st, err := ApproxPower(mi, 1, Options{SearchDepth: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bound := st.PackedRuns + 1 + (mi.N() - st.PackedJobs)
		if ms.Spans() > bound {
			t.Fatalf("trial %d: %d spans above composition bound %d (runs %d, packed %d, n %d)",
				trial, ms.Spans(), bound, st.PackedRuns, st.PackedJobs, mi.N())
		}
	}
}

// TestPipelinePacksSharedWindow: on jobs sharing one long window, the
// packing phase must pack every job (n/k runs), yielding a single-block
// schedule within the window.
func TestPipelinePacksSharedWindow(t *testing.T) {
	jobs := make([]sched.MultiJob, 8)
	for i := range jobs {
		jobs[i] = sched.NewMultiJob(
			sched.Interval{Lo: 0, Hi: 15},
			sched.Interval{Lo: 40 + 3*i, Hi: 40 + 3*i},
		)
	}
	mi := sched.MultiInstance{Jobs: jobs}
	ms, st, err := ApproxPower(mi, 4, Options{SearchDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.PackedJobs != 8 {
		t.Fatalf("packed %d of 8 jobs", st.PackedJobs)
	}
	if ms.Spans() > st.PackedRuns {
		t.Fatalf("spans %d exceed run count %d on fully packed instance", ms.Spans(), st.PackedRuns)
	}
}

func TestApproxPowerKIs3(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mi := workload.FeasibleMultiInterval(rng, 9, 2, 2, 14)
	ms, _, err := ApproxPower(mi, 2, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Validate(mi); err != nil {
		t.Fatal(err)
	}
}

func TestApproxPowerRejectsBadOptions(t *testing.T) {
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{sched.MultiJobFromTimes(0)}}
	if _, _, err := ApproxPower(mi, 1, Options{K: 7}); err == nil {
		t.Fatal("accepted unsupported k")
	}
	for _, alpha := range []float64{-2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, err := ApproxPower(mi, alpha, Options{}); err == nil {
			t.Fatalf("accepted alpha %v", alpha)
		}
	}
}

func TestBound(t *testing.T) {
	if b := Bound(2, 0, 3); b != 3 {
		t.Fatalf("Bound(2,0,3) = %v, want 3 (1 + 2/3·3)", b)
	}
	if b := Bound(2, 0, 0); b != 1 {
		t.Fatalf("Bound(2,0,0) = %v, want 1", b)
	}
}

func TestShiftCoverExamples(t *testing.T) {
	// Busy 0..5: for k=2 both shifts have full runs; count = 3 each
	// (t ∈ {0,2,4} for shift 0).
	_, c := ShiftCover([]int{0, 1, 2, 3, 4, 5}, 2)
	if c != 3 {
		t.Fatalf("ShiftCover count = %d, want 3", c)
	}
	// Isolated units have no length-2 runs.
	if _, c := ShiftCover([]int{0, 2, 4}, 2); c != 0 {
		t.Fatalf("isolated units count = %d, want 0", c)
	}
}
