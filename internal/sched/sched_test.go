package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestJobBasics(t *testing.T) {
	j := Job{Release: 2, Deadline: 5}
	if !j.Valid() || j.Window() != 4 {
		t.Fatalf("job basics broken: %+v", j)
	}
	if j.Contains(1) || !j.Contains(2) || !j.Contains(5) || j.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if (Job{Release: 3, Deadline: 2}).Valid() {
		t.Fatal("reversed window accepted")
	}
}

func TestInstanceValidate(t *testing.T) {
	if err := NewInstance([]Job{{0, 1}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := NewInstance([]Job{{1, 0}}).Validate(); err == nil {
		t.Fatal("empty window accepted")
	}
	if err := (Instance{Jobs: []Job{{0, 1}}, Procs: 0}).Validate(); err == nil {
		t.Fatal("zero processors accepted")
	}
}

func TestTimeHorizon(t *testing.T) {
	lo, hi := NewInstance([]Job{{3, 8}, {1, 4}, {5, 6}}).TimeHorizon()
	if lo != 1 || hi != 8 {
		t.Fatalf("horizon (%d,%d), want (1,8)", lo, hi)
	}
	lo, hi = NewInstance(nil).TimeHorizon()
	if lo != 0 || hi != -1 {
		t.Fatalf("empty horizon (%d,%d)", lo, hi)
	}
}

func TestSortedByDeadline(t *testing.T) {
	in := NewInstance([]Job{{0, 5}, {0, 2}, {1, 2}, {0, 9}})
	got := in.SortedByDeadline()
	want := []int{1, 2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	in := NewMultiprocInstance([]Job{{0, 2}, {0, 2}}, 2)
	good := Schedule{Procs: 2, Slots: []Assignment{{0, 0}, {1, 0}}}
	if err := good.Validate(in); err != nil {
		t.Fatal(err)
	}
	dup := Schedule{Procs: 2, Slots: []Assignment{{0, 0}, {0, 0}}}
	if err := dup.Validate(in); err == nil {
		t.Fatal("duplicate slot accepted")
	}
	out := Schedule{Procs: 2, Slots: []Assignment{{0, 5}, {1, 0}}}
	if err := out.Validate(in); err == nil {
		t.Fatal("out-of-window accepted")
	}
	badProc := Schedule{Procs: 2, Slots: []Assignment{{2, 0}, {1, 0}}}
	if err := badProc.Validate(in); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
}

func TestSpansOfTimes(t *testing.T) {
	cases := []struct {
		ts   []int
		want int
	}{
		{nil, 0},
		{[]int{5}, 1},
		{[]int{1, 2, 3}, 1},
		{[]int{1, 3}, 2},
		{[]int{3, 1, 2, 7, 8, 10}, 3},
		{[]int{4, 4, 5}, 1}, // duplicates ignored
	}
	for _, c := range cases {
		if got := SpansOfTimes(c.ts); got != c.want {
			t.Fatalf("SpansOfTimes(%v) = %d, want %d", c.ts, got, c.want)
		}
	}
}

func TestGapLengths(t *testing.T) {
	got := GapLengths([]int{1, 2, 5, 9})
	want := []int{2, 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("GapLengths = %v, want %v", got, want)
	}
	if GapLengths(nil) != nil {
		t.Fatal("nil expected")
	}
}

func TestScheduleSpansAndGaps(t *testing.T) {
	s := Schedule{Procs: 2, Slots: []Assignment{
		{Proc: 0, Time: 0}, {Proc: 0, Time: 1}, {Proc: 0, Time: 5},
		{Proc: 1, Time: 1},
	}}
	if got := s.Spans(); got != 3 {
		t.Fatalf("spans %d, want 3", got)
	}
	if got := s.Gaps(); got != 2 {
		t.Fatalf("gaps %d, want 2", got)
	}
	empty := Schedule{Procs: 1}
	if empty.Spans() != 0 || empty.Gaps() != 0 {
		t.Fatal("empty schedule spans/gaps not 0")
	}
}

func TestPowerCost(t *testing.T) {
	s := Schedule{Procs: 1, Slots: []Assignment{
		{Proc: 0, Time: 0}, {Proc: 0, Time: 3},
	}}
	// gap of 2, alpha 5 → bridge: 2 busy + 5 wake + 2 bridge = 9.
	if got := s.PowerCost(5); got != 9 {
		t.Fatalf("power %v, want 9", got)
	}
	// alpha 1 → sleep: 2 + 1 + 1 = 4.
	if got := s.PowerCost(1); got != 4 {
		t.Fatalf("power %v, want 4", got)
	}
	if got := s.PowerCostSleepOnly(1); got != 4 {
		t.Fatalf("sleep-only %v, want 4", got)
	}
	if got := s.PowerCostSleepOnly(5); got != 12 {
		t.Fatalf("sleep-only %v, want 12", got)
	}
}

func TestSpansOfProfile(t *testing.T) {
	if got := SpansOfProfile(map[int]int{0: 2, 1: 1, 5: 1}); got != 3 {
		t.Fatalf("profile spans %d, want 3", got)
	}
	if got := SpansOfProfile(map[int]int{}); got != 0 {
		t.Fatalf("empty profile %d", got)
	}
	if got := SpansOfProfile(map[int]int{3: 1, 4: 2, 5: 1}); got != 2 {
		t.Fatalf("mountain %d, want 2", got)
	}
}

// TestProfileSpanIdentity: for any staircase schedule, per-processor
// span counting equals the profile formula Σ (l_u − l_{u−1})_+.
func TestProfileSpanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random staircase profile.
		profile := map[int]int{}
		for t := 0; t < 12; t++ {
			if l := r.Intn(4); l > 0 {
				profile[t] = l
			}
		}
		var slots []Assignment
		for t, l := range profile {
			for q := 0; q < l; q++ {
				slots = append(slots, Assignment{Proc: q, Time: t})
			}
		}
		s := Schedule{Procs: 3, Slots: slots}
		return s.Spans() == SpansOfProfile(profile)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestStaircaseNeverWorse: rearranging to staircase form never
// increases the span count (Lemma 1 direction we rely on).
func TestStaircaseNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(3)
		used := map[Assignment]bool{}
		var slots []Assignment
		for i := 0; i < 1+rng.Intn(8); i++ {
			a := Assignment{Proc: rng.Intn(p), Time: rng.Intn(10)}
			if !used[a] {
				used[a] = true
				slots = append(slots, a)
			}
		}
		s := Schedule{Procs: p, Slots: slots}
		st := s.Staircase()
		if st.Spans() > s.Spans() {
			t.Fatalf("trial %d: staircase %d spans > original %d (%v)", trial, st.Spans(), s.Spans(), slots)
		}
	}
}

// staircaseByMap is Staircase as it was first written, one map entry
// and one slice per distinct time, kept as the reference for the
// sorted version.
func staircaseByMap(s Schedule) Schedule {
	out := s.Clone()
	byTime := make(map[int][]int)
	for i, a := range s.Slots {
		byTime[a.Time] = append(byTime[a.Time], i)
	}
	for t, jobs := range byTime {
		sort.Ints(jobs)
		for q, i := range jobs {
			out.Slots[i] = Assignment{Proc: q, Time: t}
		}
	}
	return out
}

// TestStaircaseMatchesMapVersion: Staircase gives every schedule the
// same layout as the map-based reference, on random schedules with
// many jobs sharing a time, negative times, arbitrary processor
// fields, and the empty schedule.
func TestStaircaseMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(30)
		spread := 1 + rng.Intn(12)
		s := Schedule{Procs: 1 + rng.Intn(4), Slots: make([]Assignment, n)}
		for i := range s.Slots {
			s.Slots[i] = Assignment{Proc: rng.Intn(5), Time: rng.Intn(spread) - spread/2}
		}
		if got, want := s.Staircase(), staircaseByMap(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Staircase %v, map version %v (slots %v)", trial, got.Slots, want.Slots, s.Slots)
		}
	}
}

func TestMultiJobNormalize(t *testing.T) {
	// All four intervals are contiguous as time sets: {1..9}.
	j := NewMultiJob(Interval{5, 7}, Interval{1, 2}, Interval{3, 4}, Interval{6, 9})
	if len(j.Intervals) != 1 || j.Intervals[0] != (Interval{1, 9}) {
		t.Fatalf("normalized to %v, want [[1,9]]", j.Intervals)
	}
	// A true hole survives normalization.
	k := NewMultiJob(Interval{8, 9}, Interval{1, 2}, Interval{2, 3})
	if len(k.Intervals) != 2 || k.Intervals[0] != (Interval{1, 3}) || k.Intervals[1] != (Interval{8, 9}) {
		t.Fatalf("normalized to %v, want [[1,3] [8,9]]", k.Intervals)
	}
}

func TestMultiJobFromTimes(t *testing.T) {
	j := MultiJobFromTimes(7, 1, 2, 3, 9)
	if len(j.Intervals) != 3 {
		t.Fatalf("intervals %v", j.Intervals)
	}
	ts := j.Times()
	want := []int{1, 2, 3, 7, 9}
	if len(ts) != len(want) {
		t.Fatalf("times %v", ts)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("times %v, want %v", ts, want)
		}
	}
	if j.NumTimes() != 5 {
		t.Fatalf("NumTimes %d", j.NumTimes())
	}
}

func TestMultiScheduleValidate(t *testing.T) {
	mi := MultiInstance{Jobs: []MultiJob{
		MultiJobFromTimes(0, 1),
		MultiJobFromTimes(1, 2),
	}}
	if err := (MultiSchedule{Times: []int{0, 1}}).Validate(mi); err != nil {
		t.Fatal(err)
	}
	if err := (MultiSchedule{Times: []int{1, 1}}).Validate(mi); err == nil {
		t.Fatal("duplicate time accepted")
	}
	if err := (MultiSchedule{Times: []int{2, 1}}).Validate(mi); err == nil {
		t.Fatal("out-of-set time accepted")
	}
}

func TestLayOutStructure(t *testing.T) {
	in := NewMultiprocInstance([]Job{{0, 2}, {1, 3}}, 3)
	mi, x := LayOut(in)
	if x != 5 {
		t.Fatalf("period %d, want 5", x)
	}
	for _, j := range mi.Jobs {
		if len(j.Intervals) != 3 {
			t.Fatalf("laid-out job has %d intervals", len(j.Intervals))
		}
		for q := 1; q < 3; q++ {
			if j.Intervals[q].Lo-j.Intervals[q-1].Lo != x {
				t.Fatal("intervals not an arithmetic sequence with period x")
			}
		}
	}
}

func TestUnitIntervals(t *testing.T) {
	if !MultiJobFromTimes(1, 3, 5).UnitIntervals() {
		t.Fatal("unit times reported non-unit")
	}
	if NewMultiJob(Interval{0, 1}).UnitIntervals() {
		t.Fatal("length-2 interval reported unit")
	}
}

// TestBusyRowsSkipsIdleProcessors: BusyRows lists only the processors
// that run a job, in ascending order, whether their ids fit the slot
// count or not, and the costs summed over it do not depend on Procs.
func TestBusyRowsSkipsIdleProcessors(t *testing.T) {
	dense := Schedule{Procs: 4, Slots: []Assignment{{3, 1}, {0, 2}, {3, 0}}}
	if got := dense.BusyRows(); !reflect.DeepEqual(got, [][]int{{2}, {0, 1}}) {
		t.Fatalf("dense BusyRows = %v", got)
	}
	sparse := Schedule{Procs: 1 << 50, Slots: []Assignment{{0, 5}, {1 << 49, 3}, {0, 1}, {2, 7}}}
	if got := sparse.BusyRows(); !reflect.DeepEqual(got, [][]int{{1, 5}, {7}, {3}}) {
		t.Fatalf("sparse BusyRows = %v", got)
	}
	small := Schedule{Procs: 3, Slots: []Assignment{{0, 5}, {2, 3}, {0, 1}, {1, 7}}}
	if sparse.Spans() != small.Spans() || sparse.PowerCost(2.5) != small.PowerCost(2.5) ||
		sparse.PowerCostSleepOnly(2.5) != small.PowerCostSleepOnly(2.5) {
		t.Fatalf("costs depend on Procs: spans %d/%d power %v/%v",
			sparse.Spans(), small.Spans(), sparse.PowerCost(2.5), small.PowerCost(2.5))
	}
}

func TestBusyTimesSorted(t *testing.T) {
	s := Schedule{Procs: 2, Slots: []Assignment{{0, 5}, {0, 1}, {1, 3}}}
	_, per := s.BusyTimes()
	if !sort.IntsAreSorted(per[0]) || !sort.IntsAreSorted(per[1]) {
		t.Fatal("busy times unsorted")
	}
	if len(per[0]) != 2 || len(per[1]) != 1 {
		t.Fatalf("per-proc counts wrong: %v", per)
	}
}
