package prep

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestStateEstimateHandValues pins AdmissionEstimate on instances small
// enough to compute by hand: G²·(n+1)·(p+1)³/32 with G the clipped
// anchor-neighbourhood union and p capped at n, or G·(n+1) when that is
// smaller and p ≤ 1.
func TestStateEstimateHandValues(t *testing.T) {
	cases := []struct {
		name string
		in   sched.Instance
		want int
	}{
		// Empty instance: nothing to solve.
		{"empty", sched.Instance{Procs: 3}, 0},
		// One job [0,2]: the anchors' ±1 neighbourhoods clip to the
		// horizon, G = 3, n+1 = 2, p = 1 → 9·2·8/32 = 4 beats
		// G·(n+1) = 6.
		{"one job", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 2}}), 4},
		// Same job on 5 processors: p caps at n = 1, identical estimate.
		{"capped p", sched.NewMultiprocInstance([]sched.Job{{Release: 0, Deadline: 2}}, 5), 4},
		// Two far-apart tight jobs [0,0] and [100,100]: each anchor
		// covers ±2 clipped to the horizon ends → G = 6, n+1 = 3. On one
		// processor 36·3·8/32 = 27 loses to G·(n+1) = 18; on two the
		// single-processor shape does not apply: 36·3·27/32 = 91.
		{"two points", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 100, Deadline: 100}}), 18},
		{"two points, two procs", sched.NewMultiprocInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 100, Deadline: 100}}, 2), 91},
	}
	for _, c := range cases {
		if got := AdmissionEstimate(c.in); got != c.want {
			t.Errorf("%s: estimate %d, want %d", c.name, got, c.want)
		}
	}
}

// TestStateEstimateMonotoneInSize: adding jobs to an instance must
// never shrink AdmissionEstimate — the property ModeAuto's admission
// decision leans on — including when the added job lifts the effective
// processor count past 1 and the single-processor shape stops applying.
func TestStateEstimateMonotoneInSize(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 100; trial++ {
		in := workload.Multiproc(rng, 2+rng.Intn(12), 1+rng.Intn(3), 6+rng.Intn(40), 1+rng.Intn(6))
		for k := 1; k < len(in.Jobs); k++ {
			smaller := sched.Instance{Jobs: in.Jobs[:k], Procs: in.Procs}
			larger := sched.Instance{Jobs: in.Jobs[:k+1], Procs: in.Procs}
			if AdmissionEstimate(smaller) > AdmissionEstimate(larger) {
				t.Fatalf("estimate shrank when adding a job: %d > %d (procs %d, jobs %v)",
					AdmissionEstimate(smaller), AdmissionEstimate(larger), in.Procs, larger.Jobs)
			}
		}
	}
}

// TestStateEstimateSaturates: absurd horizons must clamp the shape at
// MaxInt instead of overflowing into a small (or negative) budget pass.
func TestStateEstimateSaturates(t *testing.T) {
	jobs := make([]sched.Job, 2000)
	for i := range jobs {
		jobs[i] = sched.Job{Release: i * 1_000_000, Deadline: i*1_000_000 + 900_000}
	}
	if got := AdmissionEstimate(sched.NewMultiprocInstance(jobs, 4)); got != math.MaxInt/pruneDiscount {
		t.Fatalf("huge estimate %d, want the saturated shape MaxInt/%d", got, pruneDiscount)
	}
}

// TestStateEstimateZeroProcs: a hand-built zero-processor instance must
// estimate finitely — the (p+1) dimensions collapse to 1 — rather than
// panic or go negative. The decomposition never produces one, but the
// admission gate sits on the public Solver path, where anything can
// arrive.
func TestStateEstimateZeroProcs(t *testing.T) {
	in := sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 0}, {Release: 100, Deadline: 100}}}
	if got := AdmissionEstimate(in); got != 3 {
		t.Fatalf("zero-proc estimate %d, want 3 (36·3·1³/32, under G·(n+1) = 18)", got)
	}
	if got := AdmissionEstimate(sched.Instance{}); got != 0 {
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

// TestGridSizeHandValues pins the grid measure AdmissionEstimate
// prices: the clipped ±n anchor neighbourhoods with overlaps merged,
// by hand on small instances and, on random ones, as the length of
// the grid AppendGrid lists.
func TestGridSizeHandValues(t *testing.T) {
	if got := gridSize(sched.Instance{}); got != 0 {
		t.Fatalf("empty grid %d, want 0", got)
	}
	// One job [0,2]: anchors 0 and 2, each ±1, clipped to the horizon
	// and merged into [0,2] → 3 grid points.
	if got := gridSize(sched.NewInstance([]sched.Job{{Release: 0, Deadline: 2}})); got != 3 {
		t.Fatalf("one-job grid %d, want 3", got)
	}
	// Two far-apart tight jobs: two disjoint clipped neighbourhoods of 3
	// points each.
	two := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 100, Deadline: 100}})
	if got := gridSize(two); got != 6 {
		t.Fatalf("two-cluster grid %d, want 6", got)
	}
	// A run that ends at MaxInt: AppendGrid's loop must stop there.
	top := sched.NewInstance([]sched.Job{{Release: math.MaxInt - 3, Deadline: math.MaxInt - 1}, {Release: math.MaxInt - 2, Deadline: math.MaxInt}})
	if got, want := listGrid(top), []int{math.MaxInt - 3, math.MaxInt - 2, math.MaxInt - 1, math.MaxInt}; !slices.Equal(got, want) || gridSize(top) != len(want) {
		t.Fatalf("grid ending at MaxInt: %v (size %d), want %v", got, gridSize(top), want)
	}
	// Anchors within n of MinInt or MaxInt: their neighbourhoods clip
	// to the horizon instead of wrapping, so every release is listed.
	low := sched.NewInstance([]sched.Job{{Release: math.MinInt, Deadline: math.MinInt}, {Release: math.MinInt + 5, Deadline: math.MinInt + 5}})
	if got, want := listGrid(low), []int{math.MinInt, math.MinInt + 1, math.MinInt + 2, math.MinInt + 3, math.MinInt + 4, math.MinInt + 5}; !slices.Equal(got, want) || gridSize(low) != len(want) {
		t.Fatalf("grid starting at MinInt: %v (size %d), want %v", got, gridSize(low), want)
	}
	high := sched.NewInstance([]sched.Job{{Release: math.MaxInt - 5, Deadline: math.MaxInt - 5}, {Release: math.MaxInt, Deadline: math.MaxInt}})
	if got, want := listGrid(high), []int{math.MaxInt - 5, math.MaxInt - 4, math.MaxInt - 3, math.MaxInt - 2, math.MaxInt - 1, math.MaxInt}; !slices.Equal(got, want) || gridSize(high) != len(want) {
		t.Fatalf("grid ending at MaxInt: %v (size %d), want %v", got, gridSize(high), want)
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 400; trial++ {
		in := workload.Multiproc(rng, 1+rng.Intn(8), 1+rng.Intn(3), 1+rng.Intn(80), 1+rng.Intn(15))
		if got, want := gridSize(in), len(listGrid(in)); got != want {
			t.Fatalf("gridSize %d, AppendGrid lists %d points (jobs %v)", got, want, in.Jobs)
		}
	}
}

// listGrid is AppendGrid's grid of in, from fresh storage.
func listGrid(in sched.Instance) []int {
	grid, _ := AppendGrid(nil, nil, in)
	return grid
}

// TestStateEstimateDeterministic: the estimate must not depend on job
// order (fragments are canonicalized before caching, so the admission
// decision must agree between a fragment and its canonical form).
func TestStateEstimateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		in := workload.Multiproc(rng, 2+rng.Intn(10), 1+rng.Intn(3), 6+rng.Intn(30), 1+rng.Intn(5))
		canon, _ := Canonicalize(in)
		if AdmissionEstimate(in) != AdmissionEstimate(canon) {
			t.Fatalf("estimate depends on job order: %d vs %d (jobs %v)",
				AdmissionEstimate(in), AdmissionEstimate(canon), in.Jobs)
		}
	}
}

// TestSingleProcEstimate pins AdmissionEstimate's single-processor
// shape. "admissible": the shape G·(n+1) caps the estimate exactly when
// at most one processor is effective (Procs is capped at n first, as
// the engine caps it), and never when more are. "estimate": on a dense
// one-processor fragment the shape undercuts the index-space estimate
// by over an order of magnitude, and it is monotone in the horizon.
func TestSingleProcEstimate(t *testing.T) {
	shape := func(in sched.Instance) int {
		n, p, g := len(in.Jobs), min(in.Procs, len(in.Jobs)), gridSize(in)
		return satMul(satMul(satMul(satMul(satMul(g, g), n+1), p+1), p+1), p+1) / pruneDiscount
	}
	t.Run("admissible", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(12)
			in := workload.Multiproc(rng, n, 1+rng.Intn(4), 4+rng.Intn(200), 1+rng.Intn(30))
			if trial%4 == 0 {
				in = sched.NewMultiprocInstance(in.Jobs[:1], in.Procs) // p caps at n = 1
			}
			want := shape(in)
			if min(in.Procs, len(in.Jobs)) <= 1 {
				want = min(want, gridSize(in)*(len(in.Jobs)+1))
			}
			if got := AdmissionEstimate(in); got != want {
				t.Fatalf("estimate %d, want %d (procs %d, jobs %v)", got, want, in.Procs, in.Jobs)
			}
		}
	})

	t.Run("estimate", func(t *testing.T) {
		dense := workload.StressDense(rand.New(rand.NewSource(44)), 200, 1)
		single := gridSize(dense) * (len(dense.Jobs) + 1)
		if got := AdmissionEstimate(dense); got != single || 10*got > shape(dense) {
			t.Fatalf("dense estimate %d, want G·(n+1) = %d, over 10× under the index-space %d", got, single, shape(dense))
		}
		small := AdmissionEstimate(sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 2}, {Release: 1, Deadline: 3}}, Procs: 1})
		wide := AdmissionEstimate(sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 200}, {Release: 1, Deadline: 3}}, Procs: 1})
		if wide <= small {
			t.Fatalf("estimate not monotone in the horizon: wide %d ≤ small %d", wide, small)
		}
	})
}

// TestAdmissionEstimateRouting: comparing AdmissionEstimate with a
// budget must route every fragment as the two-route admission rule it
// replaced did — with p = min(Procs, n), admit when the saturating
// G²·(n+1)·(p+1)³/32 fits the budget, or when p ≤ 1 and G·(n+1) fits
// it — at budgets on both sides of the estimate, at the default budget
// and at MaxInt. The fragments come from random instances on 1 to 4
// processors (Procs > n included) with narrow and wide horizons, plus
// a saturating horizon.
func TestAdmissionEstimateRouting(t *testing.T) {
	const defaultBudget = 1 << 25 // gapsched.DefaultStateBudget, which prep cannot import
	oracle := func(in sched.Instance, budget int) bool {
		n := len(in.Jobs)
		g, p := gridSize(in), min(in.Procs, n)
		state := satMul(satMul(satMul(satMul(satMul(g, g), n+1), p+1), p+1), p+1)
		return state/32 <= budget || p <= 1 && satMul(g, n+1) <= budget
	}
	check := func(in sched.Instance) {
		t.Helper()
		est := AdmissionEstimate(in)
		for _, budget := range []int{est - 1, est, est + 1, defaultBudget, math.MaxInt} {
			if budget < 0 {
				continue // ModeAuto budgets are non-negative once resolved
			}
			if got, want := est <= budget, oracle(in, budget); got != want {
				t.Fatalf("budget %d: estimate %d admits %v, the two-route rule %v (procs %d, jobs %v)",
					budget, est, got, want, in.Procs, in.Jobs)
			}
		}
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		procs := 1 + rng.Intn(4)
		if trial%5 == 0 {
			procs = n + 1 + rng.Intn(3) // Procs > n
		}
		horizon := 2 + rng.Intn(2*n) // narrow: fragments stay long
		if trial%2 == 1 {
			horizon = 4 + rng.Intn(40*n) // wide: many short fragments
		}
		in := workload.Multiproc(rng, n, procs, horizon, 1+rng.Intn(30))
		for _, sub := range ForGaps(in).Subs {
			check(sub.Instance)
		}
	}
	check(sched.Instance{Procs: 2})
	jobs := make([]sched.Job, 2000)
	for i := range jobs {
		jobs[i] = sched.Job{Release: i * 1_000_000, Deadline: i*1_000_000 + 900_000}
	}
	for _, procs := range []int{1, 4} {
		check(sched.NewMultiprocInstance(jobs, procs))
	}
}
