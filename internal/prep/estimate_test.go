package prep

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestStateEstimateHandValues pins the estimate's shape on instances
// small enough to compute by hand: G²·(n+1)·(p+1)³ with G the clipped
// anchor-neighbourhood union and p capped at n.
func TestStateEstimateHandValues(t *testing.T) {
	// One job [0,0]: G = 1 (neighbourhood clipped to the horizon),
	// n+1 = 2, capped p = 1 → 1·1·2·2³ = 16.
	one := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}})
	if got := StateEstimate(one); got != 16 {
		t.Fatalf("single-point estimate %d, want 16", got)
	}
	// Same job on 8 processors: p caps at n = 1, identical estimate.
	if got := StateEstimate(sched.NewMultiprocInstance([]sched.Job{{Release: 0, Deadline: 0}}, 8)); got != 16 {
		t.Fatalf("capped-p estimate %d, want 16", got)
	}
	// Empty instance: nothing to solve.
	if got := StateEstimate(sched.Instance{Procs: 3}); got != 0 {
		t.Fatalf("empty estimate %d, want 0", got)
	}
	// Two far-apart tight jobs [0,0] and [100,100]: each anchor covers
	// ±2 clipped to the horizon ends → G = 3 + 3 = 6, n+1 = 3, p = 1
	// → 36·3·8 = 864.
	two := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 100, Deadline: 100}})
	if got := StateEstimate(two); got != 864 {
		t.Fatalf("two-point estimate %d, want 864", got)
	}
}

// TestStateEstimateMonotoneInSize: adding jobs to an instance must
// never shrink the estimate — the property ModeAuto's admission
// decision leans on.
func TestStateEstimateMonotoneInSize(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 100; trial++ {
		in := workload.Multiproc(rng, 2+rng.Intn(12), 1+rng.Intn(3), 6+rng.Intn(40), 1+rng.Intn(6))
		smaller := sched.Instance{Jobs: in.Jobs[:len(in.Jobs)-1], Procs: in.Procs}
		if StateEstimate(smaller) > StateEstimate(in) {
			t.Fatalf("estimate shrank when adding a job: %d > %d (jobs %v)",
				StateEstimate(smaller), StateEstimate(in), in.Jobs)
		}
	}
}

// TestStateEstimateSaturates: absurd horizons must clamp at MaxInt
// instead of overflowing into a small (or negative) budget pass.
func TestStateEstimateSaturates(t *testing.T) {
	jobs := make([]sched.Job, 2000)
	for i := range jobs {
		jobs[i] = sched.Job{Release: i * 1_000_000, Deadline: i*1_000_000 + 900_000}
	}
	if got := StateEstimate(sched.NewMultiprocInstance(jobs, 4)); got != math.MaxInt {
		t.Fatalf("huge estimate %d, want MaxInt saturation", got)
	}
}

// TestStateEstimateZeroProcs: a hand-built zero-processor instance must
// estimate finitely — the (p+1) dimensions collapse to 1 — rather than
// panic or go negative. The decomposition never produces one, but the
// admission gate sits on the public Solver path, where anything can
// arrive.
func TestStateEstimateZeroProcs(t *testing.T) {
	in := sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 0}}}
	if got := StateEstimate(in); got != 2 {
		t.Fatalf("zero-proc estimate %d, want 2 (1·1·2·1³)", got)
	}
	if got := StateEstimate(sched.Instance{}); got != 0 {
		t.Fatalf("zero-everything estimate %d, want 0", got)
	}
}

// TestSatMulNearOverflow pins the saturation boundary itself: products
// that fit exactly stay exact, and the first product past MaxInt clamps
// instead of wrapping negative (which would sail through any budget).
func TestSatMulNearOverflow(t *testing.T) {
	half := math.MaxInt / 2
	if got := satMul(half, 2); got != half*2 {
		t.Fatalf("satMul(MaxInt/2, 2) = %d, want exact %d", got, half*2)
	}
	if got := satMul(half+1, 2); got != math.MaxInt {
		t.Fatalf("satMul(MaxInt/2+1, 2) = %d, want MaxInt saturation", got)
	}
	if got := satMul(math.MaxInt, 1); got != math.MaxInt {
		t.Fatalf("satMul(MaxInt, 1) = %d, want MaxInt", got)
	}
	if got := satMul(math.MaxInt, 0); got != 0 {
		t.Fatalf("satMul(MaxInt, 0) = %d, want 0", got)
	}
}

// TestGridSizeHandValues pins the exported grid measure both exact
// backends' admission estimates price: the clipped ±n anchor
// neighbourhoods with overlaps merged.
func TestGridSizeHandValues(t *testing.T) {
	if got := GridSize(sched.Instance{}); got != 0 {
		t.Fatalf("empty grid %d, want 0", got)
	}
	// One job [0,2]: anchors 0 and 2, each ±1, clipped to the horizon
	// and merged into [0,2] → 3 grid points.
	if got := GridSize(sched.NewInstance([]sched.Job{{Release: 0, Deadline: 2}})); got != 3 {
		t.Fatalf("one-job grid %d, want 3", got)
	}
	// Two far-apart tight jobs: two disjoint clipped neighbourhoods of 3
	// points each.
	two := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 100, Deadline: 100}})
	if got := GridSize(two); got != 6 {
		t.Fatalf("two-cluster grid %d, want 6", got)
	}
}

// TestStateEstimateDeterministic: the estimate must not depend on job
// order (fragments are canonicalized before caching, so the admission
// decision must agree between a fragment and its canonical form).
func TestStateEstimateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		in := workload.Multiproc(rng, 2+rng.Intn(10), 1+rng.Intn(3), 6+rng.Intn(30), 1+rng.Intn(5))
		canon, _ := Canonicalize(in)
		if StateEstimate(in) != StateEstimate(canon) {
			t.Fatalf("estimate depends on job order: %d vs %d (jobs %v)",
				StateEstimate(in), StateEstimate(canon), in.Jobs)
		}
	}
}

// TestSingleProcEstimate pins the single-processor admission signal.
// "admissible": ok holds for the empty instance and for instances with
// one effective processor (Procs is capped at n first, as the engine
// caps it), and not for ones that need more. "estimate": 0 for empty,
// G·(n+1) otherwise, and monotone in the horizon.
func TestSingleProcEstimate(t *testing.T) {
	t.Run("admissible", func(t *testing.T) {
		j := sched.Job{Release: 0, Deadline: 3}
		cases := []struct {
			in   sched.Instance
			want bool
		}{
			{sched.Instance{Procs: 1}, true},                             // empty
			{sched.Instance{Jobs: []sched.Job{j}, Procs: 1}, true},       // single proc
			{sched.Instance{Jobs: []sched.Job{j}, Procs: 5}, true},       // p caps at n = 1
			{sched.Instance{Jobs: []sched.Job{j, j}, Procs: 2}, false},   // genuinely multi-proc
			{sched.Instance{Jobs: []sched.Job{j, j, j}, Procs: 1}, true}, // single proc, n > 1
		}
		for i, c := range cases {
			if _, ok := SingleProcEstimate(c.in); ok != c.want {
				t.Fatalf("case %d: ok = %v, want %v", i, ok, c.want)
			}
		}
	})

	t.Run("estimate", func(t *testing.T) {
		if est, _ := SingleProcEstimate(sched.Instance{Procs: 1}); est != 0 {
			t.Fatalf("empty estimate = %d, want 0", est)
		}
		// One job: grid is [−1, 3] clipped to [0, 2] → G = 3; G·(n+1) = 6,
		// on 1 processor and on 5 (p caps at n = 1).
		j := sched.Job{Release: 0, Deadline: 2}
		for _, procs := range []int{1, 5} {
			if est, _ := SingleProcEstimate(sched.Instance{Jobs: []sched.Job{j}, Procs: procs}); est != 6 {
				t.Fatalf("procs %d: estimate = %d, want 6", procs, est)
			}
		}
		small, _ := SingleProcEstimate(sched.Instance{Jobs: []sched.Job{j}, Procs: 1})
		wide, _ := SingleProcEstimate(sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 200}}, Procs: 1})
		if wide <= small {
			t.Fatalf("estimate not monotone: wide %d ≤ small %d", wide, small)
		}
	})
}

// TestAdmissionEstimatesMatchSeparateCalls: the one-sweep
// AdmissionEstimates must equal the two estimates computed separately
// from their definitions — G²·(n+1)·(p+1)³ with p capped at n, and
// G·(n+1) when at most one processor is effective — on random
// multiprocessor and single-processor instances, instances with more
// processors than jobs, the empty instance and a saturating horizon.
func TestAdmissionEstimatesMatchSeparateCalls(t *testing.T) {
	wantState := func(in sched.Instance) int {
		n := len(in.Jobs)
		if n == 0 {
			return 0
		}
		g, p := GridSize(in), min(in.Procs, n)
		return satMul(satMul(satMul(satMul(satMul(g, g), n+1), p+1), p+1), p+1)
	}
	wantSingle := func(in sched.Instance) (int, bool) {
		n := len(in.Jobs)
		if n == 0 {
			return 0, true
		}
		if min(in.Procs, n) > 1 {
			return 0, false
		}
		return satMul(GridSize(in), n+1), true
	}
	check := func(name string, in sched.Instance) {
		t.Helper()
		state, single, singleProc := AdmissionEstimates(in)
		ws := wantState(in)
		wsingle, wok := wantSingle(in)
		if state != ws || single != wsingle || singleProc != wok {
			t.Fatalf("%s: AdmissionEstimates = (%d, %d, %v), separate definitions (%d, %d, %v) (procs %d, jobs %v)",
				name, state, single, singleProc, ws, wsingle, wok, in.Procs, in.Jobs)
		}
		if got := StateEstimate(in); got != ws {
			t.Fatalf("%s: StateEstimate %d, want %d", name, got, ws)
		}
		if got, ok := SingleProcEstimate(in); got != wsingle || ok != wok {
			t.Fatalf("%s: SingleProcEstimate (%d, %v), want (%d, %v)", name, got, ok, wsingle, wok)
		}
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		var procs int
		switch trial % 3 {
		case 0:
			procs = 2 + rng.Intn(3) // p > 1
		case 1:
			procs = 1
		default:
			procs = n + 1 + rng.Intn(4) // Procs > n
		}
		in := workload.Multiproc(rng, n, procs, 4+rng.Intn(400), 1+rng.Intn(30))
		check("random", in)
	}
	check("empty", sched.Instance{Procs: 2})
	check("one job, many procs", sched.NewMultiprocInstance([]sched.Job{{Release: 3, Deadline: 9}}, 6))
	jobs := make([]sched.Job, 2000)
	for i := range jobs {
		jobs[i] = sched.Job{Release: i * 1_000_000, Deadline: i*1_000_000 + 900_000}
	}
	if state, _, _ := AdmissionEstimates(sched.NewMultiprocInstance(jobs, 4)); state != math.MaxInt {
		t.Fatalf("saturating horizon: state estimate %d, want MaxInt", state)
	}
	for _, procs := range []int{1, 4} {
		check("saturating", sched.NewMultiprocInstance(jobs, procs))
	}
}
