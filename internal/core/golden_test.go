package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// goldenFragment is one seeded engine input of the counts golden: an
// instance and the objective it is solved under.
type goldenFragment struct {
	name    string
	in      sched.Instance
	power   bool
	alpha   float64
	noPrune bool
}

// goldenCounts is what a solve must reproduce exactly: the optimal cost
// and the engine's three state counters.
type goldenCounts struct {
	cost                     float64
	states, pruned, expanded int
}

// goldenFragments draws the golden's 45 fragments: random windows
// (FeasibleOneInterval with windows up to half the horizon, the
// long-probe shape), dense and bursty stress fragments, on 1 to 3
// processors, each solved for gaps and for power; the first seed of
// each shape is also solved for gaps under NoPrune, the unbounded
// recursion the defensive retry runs.
func goldenFragments() []goldenFragment {
	shapes := []struct {
		name string
		gen  func(rng *rand.Rand, seed, p int) sched.Instance
	}{
		{"random-window", func(rng *rand.Rand, seed, p int) sched.Instance {
			n := 16 + 8*seed
			return workload.FeasibleOneInterval(rng, n, p, n, n/2)
		}},
		{"dense", func(rng *rand.Rand, seed, p int) sched.Instance {
			return workload.StressDense(rng, 24+24*seed, p)
		}},
		{"bursty", func(rng *rand.Rand, seed, p int) sched.Instance {
			return workload.StressBursty(rng, 64*seed, p)
		}},
	}
	alphas := []float64{0.5, 2, 3.7}
	var fs []goldenFragment
	for _, sh := range shapes {
		for p := 1; p <= 3; p++ {
			for seed := 1; seed <= 2; seed++ {
				in := sh.gen(rand.New(rand.NewSource(int64(100*p+seed))), seed, p)
				name := fmt.Sprintf("%s/p=%d/seed=%d", sh.name, p, seed)
				alpha := alphas[(p+seed)%len(alphas)]
				fs = append(fs,
					goldenFragment{name: name + "/gaps", in: in},
					goldenFragment{name: fmt.Sprintf("%s/power/α=%v", name, alpha), in: in, power: true, alpha: alpha})
				if seed == 1 {
					fs = append(fs, goldenFragment{name: name + "/gaps/noprune", in: in, noPrune: true})
				}
			}
		}
	}
	return fs
}

// solve runs the fragment's objective through the public entry points.
func (f goldenFragment) solve() (goldenCounts, sched.Schedule, error) {
	if f.power {
		r, err := SolvePower(f.in, f.alpha)
		return goldenCounts{r.Power, r.States, r.PrunedStates, r.ExpandedStates}, r.Schedule, err
	}
	r, err := SolveGapsOpt(f.in, Options{NoPrune: f.noPrune})
	return goldenCounts{float64(r.Spans), r.States, r.PrunedStates, r.ExpandedStates}, r.Schedule, err
}

// engineGolden was recorded from the engine before its memo table was
// re-laid out and pooled; layout, hashing and table reuse must change
// none of these numbers.
var engineGolden = map[string]goldenCounts{
	"random-window/p=1/seed=1/gaps":         {1, 249, 175, 248},
	"random-window/p=1/seed=1/power/α=3.7":  {27.7, 534, 516, 562},
	"random-window/p=1/seed=1/gaps/noprune": {1, 549, 0, 549},
	"random-window/p=1/seed=2/gaps":         {2, 1259, 2715, 1347},
	"random-window/p=1/seed=2/power/α=0.5":  {33, 1391, 2847, 1761},
	"random-window/p=2/seed=1/gaps":         {3, 1746, 2658, 1999},
	"random-window/p=2/seed=1/power/α=0.5":  {25.5, 2224, 1991, 2491},
	"random-window/p=2/seed=1/gaps/noprune": {3, 2250, 0, 2250},
	"random-window/p=2/seed=2/gaps":         {1, 4757, 17694, 5825},
	"random-window/p=2/seed=2/power/α=2":    {34, 8271, 24440, 9786},
	"random-window/p=3/seed=1/gaps":         {1, 6198, 44634, 10328},
	"random-window/p=3/seed=1/power/α=2":    {26, 9102, 21943, 10767},
	"random-window/p=3/seed=1/gaps/noprune": {1, 10431, 0, 10431},
	"random-window/p=3/seed=2/gaps":         {1, 12139, 116683, 20843},
	"random-window/p=3/seed=2/power/α=3.7":  {35.7, 15780, 36885, 19578},
	"dense/p=1/seed=1/gaps":                 {1, 394, 308, 390},
	"dense/p=1/seed=1/power/α=3.7":          {51.7, 2577, 11110, 3064},
	"dense/p=1/seed=1/gaps/noprune":         {1, 2799, 0, 2799},
	"dense/p=1/seed=2/gaps":                 {1, 469, 326, 462},
	"dense/p=1/seed=2/power/α=0.5":          {72.5, 3876, 16958, 4023},
	"dense/p=2/seed=1/gaps":                 {2, 592, 779, 615},
	"dense/p=2/seed=1/power/α=0.5":          {49, 6183, 41233, 6261},
	"dense/p=2/seed=1/gaps/noprune":         {2, 6398, 0, 6398},
	"dense/p=2/seed=2/gaps":                 {2, 1133, 1787, 1165},
	"dense/p=2/seed=2/power/α=2":            {76, 11504, 78757, 11796},
	"dense/p=3/seed=1/gaps":                 {2, 869, 1134, 869},
	"dense/p=3/seed=1/power/α=2":            {52, 12589, 50320, 12630},
	"dense/p=3/seed=1/gaps/noprune":         {2, 14321, 0, 14321},
	"dense/p=3/seed=2/gaps":                 {2, 2097, 3896, 2171},
	"dense/p=3/seed=2/power/α=3.7":          {79.4, 19972, 133385, 20688},
	"bursty/p=1/seed=1/gaps":                {1, 264, 68, 259},
	"bursty/p=1/seed=1/power/α=3.7":         {67.7, 327, 95, 327},
	"bursty/p=1/seed=1/gaps/noprune":        {1, 339, 0, 339},
	"bursty/p=1/seed=2/gaps":                {2, 603, 137, 597},
	"bursty/p=1/seed=2/power/α=0.5":         {129, 631, 142, 632},
	"bursty/p=2/seed=1/gaps":                {2, 544, 509, 560},
	"bursty/p=2/seed=1/power/α=0.5":         {65, 1022, 1242, 1031},
	"bursty/p=2/seed=1/gaps/noprune":        {2, 1015, 0, 1015},
	"bursty/p=2/seed=2/gaps":                {4, 1575, 1601, 1618},
	"bursty/p=2/seed=2/power/α=2":           {136, 1732, 1965, 1745},
	"bursty/p=3/seed=1/gaps":                {3, 927, 1332, 974},
	"bursty/p=3/seed=1/power/α=2":           {70, 1926, 3760, 1967},
	"bursty/p=3/seed=1/gaps/noprune":        {3, 1949, 0, 1949},
	"bursty/p=3/seed=2/gaps":                {6, 3422, 5277, 3636},
	"bursty/p=3/seed=2/power/α=3.7":         {150.2, 3873, 6486, 4016},
}

// TestEngineCountsGolden pins cost, States, PrunedStates and
// ExpandedStates on every golden fragment to the recorded table.
func TestEngineCountsGolden(t *testing.T) {
	fs := goldenFragments()
	if len(fs) != len(engineGolden) {
		t.Fatalf("%d golden fragments, %d recorded results", len(fs), len(engineGolden))
	}
	for _, f := range fs {
		got, _, err := f.solve()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if want, ok := engineGolden[f.name]; !ok || got != want {
			t.Errorf("%s: got %+v, want %+v", f.name, got, want)
		}
	}
}

// TestMemoPoolReuseMatchesGolden: a pooled memo table carries nothing
// from one solve into the next. A large fragment first grows a table
// through the size classes up to 65536 slots and hands them all back;
// then every golden fragment is solved on recycled tables, serially and
// from four goroutines at once (each after the large fragment again),
// and each must reproduce its golden counts and the serial pass's
// schedule.
func TestMemoPoolReuseMatchesGolden(t *testing.T) {
	large := workload.FeasibleOneInterval(rand.New(rand.NewSource(1)), 40, 3, 40, 20)
	solveLarge := func() error {
		r, err := SolvePower(large, 2)
		if err == nil && r.States < 3*(1<<15)/4 {
			err = fmt.Errorf("large fragment memoized only %d states", r.States)
		}
		return err
	}
	if err := solveLarge(); err != nil {
		t.Fatal(err)
	}
	fs := goldenFragments()
	schedules := make([]sched.Schedule, len(fs))
	for i, f := range fs {
		got, s, err := f.solve()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if want := engineGolden[f.name]; got != want {
			t.Errorf("serial %s: got %+v, want %+v", f.name, got, want)
		}
		schedules[i] = s
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := solveLarge(); err != nil {
				t.Error(err)
				return
			}
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(fs)) {
				f := fs[i]
				got, s, err := f.solve()
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", w, f.name, err)
					return
				}
				if want := engineGolden[f.name]; got != want || !reflect.DeepEqual(s, schedules[i]) {
					t.Errorf("goroutine %d, %s: got %+v, want %+v (schedules equal: %v)",
						w, f.name, got, want, reflect.DeepEqual(s, schedules[i]))
				}
			}
		}(w)
	}
	wg.Wait()
}
