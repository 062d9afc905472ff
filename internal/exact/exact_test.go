package exact

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSpansOneIntervalKnown(t *testing.T) {
	cases := []struct {
		name  string
		jobs  []sched.Job
		p     int
		spans int
		ok    bool
	}{
		{"empty", nil, 1, 0, true},
		{"single", []sched.Job{{Release: 0, Deadline: 3}}, 1, 1, true},
		{"chain", []sched.Job{{Release: 0, Deadline: 0}, {Release: 1, Deadline: 1}, {Release: 2, Deadline: 2}}, 1, 1, true},
		{"forced split", []sched.Job{{Release: 0, Deadline: 0}, {Release: 5, Deadline: 5}}, 1, 2, true},
		{"stack on 2 procs", []sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}}, 2, 2, true},
		{"infeasible", []sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}}, 1, 0, false},
		{"mergeable window", []sched.Job{{Release: 0, Deadline: 4}, {Release: 0, Deadline: 4}, {Release: 0, Deadline: 4}}, 1, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := sched.Instance{Jobs: c.jobs, Procs: c.p}
			got, ok := SpansOneInterval(in)
			if ok != c.ok {
				t.Fatalf("ok = %v, want %v", ok, c.ok)
			}
			if ok && got != c.spans {
				t.Fatalf("spans = %d, want %d", got, c.spans)
			}
		})
	}
}

func TestPowerOneIntervalKnown(t *testing.T) {
	// Two jobs with a gap of 3: bridging costs 3, sleeping costs α.
	in := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 4, Deadline: 4}})
	if got, ok := PowerOneInterval(in, 10); !ok || got != 2+10+3 {
		t.Fatalf("bridge case: %v %v", got, ok)
	}
	if got, ok := PowerOneInterval(in, 1); !ok || got != 2+1+1 {
		t.Fatalf("sleep case: %v %v", got, ok)
	}
	if got, ok := PowerOneInterval(in, 3); !ok || got != 2+3+3 {
		t.Fatalf("tie case: %v %v", got, ok)
	}
}

func TestSpansMultiKnown(t *testing.T) {
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.MultiJobFromTimes(0, 5),
		sched.MultiJobFromTimes(1, 6),
	}}
	// {0,1} or {5,6} are contiguous: 1 span.
	if got, ok := SpansMulti(mi); !ok || got != 1 {
		t.Fatalf("spans = %d ok=%v, want 1", got, ok)
	}
	bad := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.MultiJobFromTimes(0),
		sched.MultiJobFromTimes(0),
	}}
	if _, ok := SpansMulti(bad); ok {
		t.Fatal("infeasible accepted")
	}
}

func TestPowerMultiMatchesSpansForHugeAlpha(t *testing.T) {
	// With enormous α and short horizons every gap is bridged, so
	// power = busy + α·1... unless the instance forces isolation beyond
	// bridging reach — here windows are close, so one wake suffices.
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.MultiJobFromTimes(0, 1),
		sched.MultiJobFromTimes(3, 4),
	}}
	got, ok := PowerMulti(mi, 1000)
	if !ok {
		t.Fatal("infeasible")
	}
	// Best: times {1,3}: 2 busy + 1000 + bridge 1 = 1003.
	if got != 1003 {
		t.Fatalf("power = %v, want 1003", got)
	}
}

func TestMaxThroughputMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mi := workload.MultiInterval(r, 1+r.Intn(7), 1+r.Intn(3), 1+r.Intn(2), 10)
		prev := 0
		for budget := 0; budget <= 4; budget++ {
			cur := MaxThroughput(mi, budget)
			if cur < prev || cur > mi.N() {
				return false
			}
			prev = cur
		}
		// With n spans allowed, a feasible instance schedules all jobs.
		full := MaxThroughput(mi, mi.N())
		if _, ok := SpansMulti(mi); ok && full != mi.N() {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOracleConsistencyAcrossModels: spans and power oracles agree on
// the sleep-only relationship when bridging cannot help (alpha = 0
// makes transitions free: power = n; and for instances with no gaps
// shorter than alpha, power = n + alpha·spans).
func TestOracleConsistencyAcrossModels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		in := workload.OneInterval(rng, 1+rng.Intn(6), 8, 3)
		spans, ok1 := SpansOneInterval(in)
		powerFree, ok2 := PowerOneInterval(in, 0)
		if ok1 != ok2 {
			t.Fatalf("trial %d: feasibility disagreement", trial)
		}
		if !ok1 {
			continue
		}
		if powerFree != float64(len(in.Jobs)) {
			t.Fatalf("trial %d: α=0 power %v, want n=%d", trial, powerFree, len(in.Jobs))
		}
		// α = 1: bridging a gap of length ≥ 1 costs ≥ 1 = α, so power
		// n + spans is always achievable and optimal.
		powerOne, _ := PowerOneInterval(in, 1)
		if want := float64(len(in.Jobs) + spans); math.Abs(powerOne-want) > 1e-9 {
			t.Fatalf("trial %d: α=1 power %v, want n+spans=%v", trial, powerOne, want)
		}
	}
}

// TestSpansMultiMatchesUltraBrute certifies the multi-interval oracle,
// the reference of the reduction, arithmetic and facade tests, against
// an enumeration of every injective assignment of jobs to allowed
// times, on both interval-shaped and scattered unit-time windows.
func TestSpansMultiMatchesUltraBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		var mi sched.MultiInstance
		if trial%2 == 0 {
			mi = workload.MultiInterval(rng, n, 1+rng.Intn(3), 1+rng.Intn(2), 10)
		} else {
			mi = workload.UnitMulti(rng, n, 1+rng.Intn(4), 10)
		}
		a, okA := SpansMulti(mi)
		b, okB := UltraBruteMultiSpans(mi)
		if okA != okB {
			t.Fatalf("trial %d: oracle feasible=%v, ultra-brute=%v (jobs %v)", trial, okA, okB, mi.Jobs)
		}
		if okA && a != b {
			t.Fatalf("trial %d: oracle %d spans, ultra-brute %d (jobs %v)", trial, a, b, mi.Jobs)
		}
		if okA {
			feasible++
		} else {
			infeasible++
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("draws cover one side only: %d feasible, %d infeasible", feasible, infeasible)
	}
}

func TestUltraBruteLimits(t *testing.T) {
	big := sched.NewInstance(make([]sched.Job, MaxUltraBruteJobs+1))
	bigMulti := sched.MultiInstance{Jobs: make([]sched.MultiJob, MaxUltraBruteJobs+1)}
	for i := range big.Jobs {
		big.Jobs[i] = sched.Job{Release: i, Deadline: i}
		bigMulti.Jobs[i] = sched.MultiJobFromTimes(i)
	}
	assertPanics(t, func() { UltraBruteSpans(big) })
	assertPanics(t, func() { UltraBrutePower(big, 1) })
	assertPanics(t, func() { UltraBruteMultiSpans(bigMulti) })
	huge := sched.Instance{Jobs: make([]sched.Job, MaxOracleJobs+1), Procs: 1}
	for i := range huge.Jobs {
		huge.Jobs[i] = sched.Job{Release: i, Deadline: i}
	}
	assertPanics(t, func() { SpansOneInterval(huge) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
