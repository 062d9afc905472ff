package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
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

// goldenCounts is what a solve must reproduce exactly: the optimal
// cost, the engine's three state counters and the fingerprint of the
// returned schedule.
type goldenCounts struct {
	cost                     float64
	states, pruned, expanded int
	schedule                 uint64
}

// fingerprint is FNV-64a over every slot's (proc, time), in job order:
// two schedules share it only if they place every job identically
// (up to a hash collision).
func fingerprint(s sched.Schedule) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, a := range s.Slots {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a.Proc))
		binary.LittleEndian.PutUint64(buf[8:], uint64(a.Time))
		h.Write(buf[:])
	}
	return h.Sum64()
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

// solve runs the fragment's objective through Solve.
func (f goldenFragment) solve() (goldenCounts, sched.Schedule, error) {
	r, err := Solve(f.in, Objective{Power: f.power, Alpha: f.alpha}, Options{NoPrune: f.noPrune})
	return goldenCounts{r.Cost, r.States, r.PrunedStates, r.ExpandedStates, fingerprint(r.Schedule)}, r.Schedule, err
}

// engineGolden pins each fragment's answer and effort. Costs and
// schedule fingerprints were recorded from the engine before its
// candidate scan learned to stop at the node's own bound; only the
// three counts were re-recorded then, and the NoPrune rows not at all.
// An optimisation of the search may move the counts (and must re-record
// them) but never a cost or a fingerprint; memo layout, hashing and
// table reuse must change none of these numbers.
var engineGolden = map[string]goldenCounts{
	"random-window/p=1/seed=1/gaps":         {1, 182, 153, 183, 0xbdccfcc23fdfc0fd},
	"random-window/p=1/seed=1/power/α=3.7":  {27.7, 255, 175, 260, 0xbdccfcc23fdfc0fd},
	"random-window/p=1/seed=1/gaps/noprune": {1, 549, 0, 549, 0xbdccfcc23fdfc0fd},
	"random-window/p=1/seed=2/gaps":         {2, 807, 1512, 867, 0xb44f389e66e9d6e7},
	"random-window/p=1/seed=2/power/α=0.5":  {33, 1208, 2838, 1574, 0xb44f389e66e9d6e7},
	"random-window/p=2/seed=1/gaps":         {3, 996, 1455, 1093, 0xc88e67fefd53b9a1},
	"random-window/p=2/seed=1/power/α=0.5":  {25.5, 1109, 1606, 1336, 0xc88e67fefd53b9a1},
	"random-window/p=2/seed=1/gaps/noprune": {3, 2250, 0, 2250, 0xc88e67fefd53b9a1},
	"random-window/p=2/seed=2/gaps":         {1, 3441, 9560, 4136, 0x55caea3603bc3b25},
	"random-window/p=2/seed=2/power/α=2":    {34, 6932, 19863, 8472, 0x55caea3603bc3b25},
	"random-window/p=3/seed=1/gaps":         {1, 4381, 22367, 7131, 0x77ec85846d8fbce5},
	"random-window/p=3/seed=1/power/α=2":    {26, 6371, 13402, 8045, 0x77ec85846d8fbce5},
	"random-window/p=3/seed=1/gaps/noprune": {1, 10431, 0, 10431, 0x77ec85846d8fbce5},
	"random-window/p=3/seed=2/gaps":         {1, 8999, 65356, 14586, 0xea5baa868ccf9ba5},
	"random-window/p=3/seed=2/power/α=3.7":  {35.7, 10521, 22435, 13861, 0xea5baa868ccf9ba5},
	"dense/p=1/seed=1/gaps":                 {1, 291, 259, 291, 0x8b78d3cce5996be5},
	"dense/p=1/seed=1/power/α=3.7":          {51.7, 1027, 5395, 1106, 0x8b78d3cce5996be5},
	"dense/p=1/seed=1/gaps/noprune":         {1, 2799, 0, 2799, 0x8b78d3cce5996be5},
	"dense/p=1/seed=2/gaps":                 {1, 358, 287, 358, 0xa7dbc813d64b3265},
	"dense/p=1/seed=2/power/α=0.5":          {72.5, 1561, 9369, 1600, 0xa7dbc813d64b3265},
	"dense/p=2/seed=1/gaps":                 {2, 451, 687, 451, 0x6447e5de4354c365},
	"dense/p=2/seed=1/power/α=0.5":          {49, 1465, 14519, 1465, 0x6447e5de4354c365},
	"dense/p=2/seed=1/gaps/noprune":         {2, 6398, 0, 6398, 0x6447e5de4354c365},
	"dense/p=2/seed=2/gaps":                 {2, 843, 1451, 843, 0x200aa6de5fd93e25},
	"dense/p=2/seed=2/power/α=2":            {76, 2714, 33103, 2719, 0x200aa6de5fd93e25},
	"dense/p=3/seed=1/gaps":                 {2, 749, 1127, 749, 0x25a7c5166a0fac25},
	"dense/p=3/seed=1/power/α=2":            {52, 4998, 36123, 5011, 0x25a7c5166a0fac25},
	"dense/p=3/seed=1/gaps/noprune":         {2, 14321, 0, 14321, 0x25a7c5166a0fac25},
	"dense/p=3/seed=2/gaps":                 {2, 1626, 3267, 1626, 0x810d2d49542211a5},
	"dense/p=3/seed=2/power/α=3.7":          {79.4, 13851, 117844, 14953, 0x810d2d49542211a5},
	"bursty/p=1/seed=1/gaps":                {1, 196, 63, 196, 0x2714bc40796134e5},
	"bursty/p=1/seed=1/power/α=3.7":         {67.7, 272, 63, 272, 0x2714bc40796134e5},
	"bursty/p=1/seed=1/gaps/noprune":        {1, 339, 0, 339, 0x2714bc40796134e5},
	"bursty/p=1/seed=2/gaps":                {2, 428, 131, 428, 0xc893763e970f91d9},
	"bursty/p=1/seed=2/power/α=0.5":         {129, 586, 142, 587, 0xc893763e970f91d9},
	"bursty/p=2/seed=1/gaps":                {2, 419, 473, 419, 0x4f817d5ed46d26a5},
	"bursty/p=2/seed=1/power/α=0.5":         {65, 553, 632, 553, 0x4f817d5ed46d26a5},
	"bursty/p=2/seed=1/gaps/noprune":        {2, 1015, 0, 1015, 0x4f817d5ed46d26a5},
	"bursty/p=2/seed=2/gaps":                {4, 1099, 1465, 1099, 0x54f289ba97c08e5d},
	"bursty/p=2/seed=2/power/α=2":           {136, 1492, 1853, 1497, 0x54f289ba97c08e5d},
	"bursty/p=3/seed=1/gaps":                {3, 747, 1254, 747, 0x9b6efe3c141b147},
	"bursty/p=3/seed=1/power/α=2":           {70, 949, 1745, 956, 0x9b6efe3c141b147},
	"bursty/p=3/seed=1/gaps/noprune":        {3, 1949, 0, 1949, 0x9b6efe3c141b147},
	"bursty/p=3/seed=2/gaps":                {6, 2195, 4317, 2263, 0xf9f775a739bc1491},
	"bursty/p=3/seed=2/power/α=3.7":         {150.2, 2984, 5581, 3064, 0xf9f775a739bc1491},
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

// TestMemoPoolReuseMatchesGolden: a reused workspace carries nothing
// from one solve into the next. A large fragment first grows a memo
// table through the size classes up to 65536 slots (it must memoize at
// least 3/4·2^15 states, the load at which a 32768-slot table grows)
// and hands them all back; then every golden fragment is solved on
// recycled workspaces, serially and from four goroutines at once (each
// after the large fragment again, then in its own order), and each
// must reproduce its golden counts and the serial pass's schedule. The
// fragments differ in their job count n and their release count R, so
// each workspace's interval index is rebuilt over storage an earlier
// fragment of another shape left behind, and the free list must end up
// holding those index tables.
func TestMemoPoolReuseMatchesGolden(t *testing.T) {
	large := workload.FeasibleOneInterval(rand.New(rand.NewSource(1)), 44, 3, 44, 20)
	solveLarge := func() error {
		r, err := Solve(large, Objective{Power: true, Alpha: 2}, Options{})
		if err == nil && r.States < 3*(1<<15)/4 {
			err = fmt.Errorf("large fragment memoized only %d states", r.States)
		}
		return err
	}
	if err := solveLarge(); err != nil {
		t.Fatal(err)
	}
	fs := goldenFragments()
	shapes := map[[2]int]bool{}
	for _, f := range fs {
		var w workspace
		w.reset(f.in, false)
		shapes[[2]int{len(f.in.Jobs), w.cols - 1}] = true
	}
	if len(shapes) < 10 {
		t.Fatalf("golden fragments cover only %d (n, R) shapes", len(shapes))
	}
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
	workspaces.Lock()
	defer workspaces.Unlock()
	if len(workspaces.free) == 0 {
		t.Fatal("no workspace went back to the free list")
	}
	for _, w := range workspaces.free {
		if cap(w.below) == 0 {
			t.Error("a workspace on the free list holds no index table")
		}
	}
}

// TestSolveAllocations pins what the workspace saves: after one warm
// solve, a solve of a 192-job dense fragment on two processors
// allocates at most a quarter of what it did when the engine built a
// job list per interval and leased memo tables from sync.Pools (1,577
// allocations for gaps and 1,584 for power at α = 2 there). It reads 9
// for each; what remains is the feasibility sweep, pricing the greedy
// incumbent, and the copy and validation of the result.
func TestSolveAllocations(t *testing.T) {
	in := workload.StressDense(rand.New(rand.NewSource(1)), 192, 2)
	for _, c := range []struct {
		obj  Objective
		most float64
	}{
		{Objective{}, 1577 / 4},
		{Objective{Power: true, Alpha: 2}, 1584 / 4},
	} {
		if _, err := Solve(in, c.obj, Options{}); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(5, func() { Solve(in, c.obj, Options{}) }); got > c.most {
			t.Errorf("%+v: %v allocations per solve, want at most %v", c.obj, got, c.most)
		}
	}
}

// TestResetAllocatesNothing: rebuilding a warm workspace for the same
// fragment allocates nothing, the sorted grid anchors included, on the
// anchor grid and on the full grid.
func TestResetAllocatesNothing(t *testing.T) {
	in := workload.StressDense(rand.New(rand.NewSource(1)), 192, 2)
	for _, fullGrid := range []bool{false, true} {
		var w workspace
		w.reset(in, fullGrid)
		if got := testing.AllocsPerRun(5, func() { w.reset(in, fullGrid) }); got != 0 {
			t.Errorf("FullGrid %v: a warm reset allocates %v times, want 0", fullGrid, got)
		}
	}
}

// TestGreedyAllocations pins the heuristic entry's reuse: after one
// warm call, Greedy on a 5,000-job fragment allocates at most 24 times
// for either objective — the returned schedule, Schedule.Validate's
// map and the rows that price the schedule — where a greedy with a
// Scratch of its own and a certificate that sorted the jobs itself
// allocated its index arrays on every call.
func TestGreedyAllocations(t *testing.T) {
	for _, prof := range []string{workload.ProfileBursty, workload.ProfileDense} {
		in, err := workload.Stress(rand.New(rand.NewSource(2)), prof, 5000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{{}, {Power: true, Alpha: 2}} {
			if _, err := Greedy(in, obj); err != nil {
				t.Fatalf("%s %+v: %v", prof, obj, err)
			}
			if got := testing.AllocsPerRun(5, func() { Greedy(in, obj) }); got > 24 {
				t.Errorf("%s %+v: %v allocations per warm Greedy, want at most 24", prof, obj, got)
			}
		}
	}
}

// TestWorkspaceRetention: a workspace goes back to the free list
// without any buffer above maxKeptBytes, and without the solved
// instance's jobs, even after a solve whose interval index exceeds the
// cap (a 1,600-job dense fragment with over a thousand distinct
// releases); the free list never holds more than GOMAXPROCS
// workspaces.
func TestWorkspaceRetention(t *testing.T) {
	in := workload.StressDense(rand.New(rand.NewSource(5)), 1600, 1)
	var probe workspace
	probe.reset(in, false)
	if bytesOf(probe.below) <= maxKeptBytes {
		t.Fatalf("index table of %d bytes does not exceed the cap", bytesOf(probe.below))
	}
	if _, err := Solve(in, Objective{}, Options{}); err != nil {
		t.Fatal(err)
	}
	workspaces.Lock()
	defer workspaces.Unlock()
	if n := len(workspaces.free); n == 0 || n > runtime.GOMAXPROCS(0) {
		t.Fatalf("%d workspaces on the free list, want 1 to GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
	for _, w := range workspaces.free {
		if w.jobs != nil {
			t.Error("a kept workspace still references the solved jobs")
		}
		for name, size := range keptBytes(w) {
			if size > maxKeptBytes {
				t.Errorf("a kept workspace holds %s of %d bytes, above the cap %d", name, size, maxKeptBytes)
			}
		}
	}
}

// keptBytes lists the storage of every buffer w holds.
func keptBytes(w *workspace) map[string]int {
	m := map[string]int{
		"byDL": bytesOf(w.byDL), "grid": bytesOf(w.grid), "rel": bytesOf(w.rel), "dlx": bytesOf(w.dlx), "anchors": bytesOf(w.anchors),
		"t1val": bytesOf(w.t1val), "t2val": bytesOf(w.t2val), "rank": bytesOf(w.rank), "below": bytesOf(w.below),
		"rights": bytesOf(w.rights), "placed": bytesOf(w.placed), "greedy": w.greedy.Bytes(),
	}
	for b, a := range w.slots {
		m[fmt.Sprintf("memo class %d", b)] = max(bytesOf(a.hot), bytesOf(a.cold))
	}
	return m
}
