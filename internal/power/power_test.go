package power

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSimulateMatchesPowerCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		p := 1 + rng.Intn(3)
		used := map[sched.Assignment]bool{}
		var slots []sched.Assignment
		for i := 0; i < 1+rng.Intn(8); i++ {
			a := sched.Assignment{Proc: rng.Intn(p), Time: rng.Intn(14)}
			if !used[a] {
				used[a] = true
				slots = append(slots, a)
			}
		}
		s := sched.Schedule{Procs: p, Slots: slots}
		for _, alpha := range []float64{0, 0.5, 1, 2.5, 7} {
			tl := Simulate(s, alpha)
			if want := s.PowerCost(alpha); math.Abs(tl.Energy.Total-want) > 1e-9 {
				t.Fatalf("trial %d α=%v: simulated %v, accounting %v (slots %v)",
					trial, alpha, tl.Energy.Total, want, slots)
			}
		}
	}
}

func TestSimulateBridgesIffShorter(t *testing.T) {
	s := sched.Schedule{Procs: 1, Slots: []sched.Assignment{
		{Proc: 0, Time: 0}, {Proc: 0, Time: 3}, // gap length 2
	}}
	bridged := Simulate(s, 5)
	if bridged.Energy.IdleActiveUnits != 2 || bridged.Energy.Transitions != 1 {
		t.Fatalf("α=5 should bridge: %+v", bridged.Energy)
	}
	slept := Simulate(s, 1)
	if slept.Energy.IdleActiveUnits != 0 || slept.Energy.Transitions != 2 {
		t.Fatalf("α=1 should sleep: %+v", slept.Energy)
	}
	// Tie (gap == α): either is optimal; Simulate sleeps (strict <).
	tie := Simulate(s, 2)
	if math.Abs(tie.Energy.Total-s.PowerCost(2)) > 1e-9 {
		t.Fatalf("tie case cost mismatch: %v vs %v", tie.Energy.Total, s.PowerCost(2))
	}
}

func TestSimulateEmpty(t *testing.T) {
	tl := Simulate(sched.Schedule{Procs: 2}, 3)
	if tl.Energy.Total != 0 || len(tl.States) != 2 {
		t.Fatalf("empty timeline wrong: %+v", tl)
	}
}

func TestRenderGlyphs(t *testing.T) {
	s := sched.Schedule{Procs: 1, Slots: []sched.Assignment{
		{Proc: 0, Time: 0}, {Proc: 0, Time: 2},
	}}
	out := Simulate(s, 10).Render()
	if !strings.Contains(out, "#~#") {
		t.Fatalf("expected bridged glyphs #~#, got:\n%s", out)
	}
	out = Simulate(s, 0.5).Render()
	if !strings.Contains(out, "#.#") {
		t.Fatalf("expected sleeping glyphs #.#, got:\n%s", out)
	}
}

func TestSimulateMulti(t *testing.T) {
	ms := sched.MultiSchedule{Times: []int{0, 1, 5}}
	tl := SimulateMulti(ms, 2)
	if math.Abs(tl.Energy.Total-ms.PowerCost(2)) > 1e-9 {
		t.Fatalf("multi simulate %v != accounting %v", tl.Energy.Total, ms.PowerCost(2))
	}
}

func TestSpanSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := workload.FeasibleOneInterval(rng, 5, 2, 8, 3)
	_ = in
	s := sched.Schedule{Procs: 2, Slots: []sched.Assignment{
		{Proc: 0, Time: 1}, {Proc: 0, Time: 2}, {Proc: 1, Time: 7},
	}}
	out := SpanSummary(s)
	if !strings.Contains(out, "[1,2]") || !strings.Contains(out, "[7,7]") {
		t.Fatalf("span summary wrong:\n%s", out)
	}
}

// TestSimulateHugeMachine: a schedule that declares far more processors
// than it has jobs renders in space that follows its slots. Timeline
// and SpanSummary show the first eight processors and every busy one,
// then one line counting the idle rest, and the energy matches
// PowerCost; a machine no larger than its job count renders every
// processor, exactly as before the rows were bounded.
func TestSimulateHugeMachine(t *testing.T) {
	const procs, far = 1 << 50, 1 << 40
	s := sched.Schedule{Procs: procs, Slots: []sched.Assignment{
		{Proc: 0, Time: 0}, {Proc: 0, Time: 2}, {Proc: far, Time: 1},
	}}
	tl := Simulate(s, 3)
	wantProcs := []int{0, 1, 2, 3, 4, 5, 6, 7, far}
	if !reflect.DeepEqual(tl.Procs, wantProcs) || len(tl.States) != len(wantProcs) || tl.Idle != procs-len(wantProcs) {
		t.Fatalf("rows for processors %v (%d state rows), %d idle", tl.Procs, len(tl.States), tl.Idle)
	}
	if want := s.PowerCost(3); tl.Energy.Total != want {
		t.Fatalf("simulated %v, accounting %v", tl.Energy.Total, want)
	}
	idle := "(+1125899906842615 more processors, idle throughout)\n"
	for _, want := range []string{"P0  |#~#|\n", "P7  |...|\n", "P1099511627776 |.#.|\n" + idle} {
		if out := tl.Render(); !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
	for _, want := range []string{"P0 : [0,0] [2,2]\n", "P7 :\n", "P1099511627776: [1,1]\n" + idle} {
		if out := SpanSummary(s); !strings.Contains(out, want) {
			t.Fatalf("span summary lacks %q:\n%s", want, out)
		}
	}

	small := sched.Schedule{Procs: 2, Slots: []sched.Assignment{
		{Proc: 0, Time: 0}, {Proc: 0, Time: 2}, {Proc: 1, Time: 1},
	}}
	want := "P0  |#~#|\nP1  |.#.|\nt = [0, 2]   energy = 3 busy + 1 idle-active + 2×α wake-ups = 10.00 (α=3.00)\n"
	if got := Simulate(small, 3).Render(); got != want {
		t.Fatalf("small machine renders\n%s\nwant\n%s", got, want)
	}
	if got, want := SpanSummary(small), "P0 : [0,0] [2,2]\nP1 : [1,1]\n"; got != want {
		t.Fatalf("small machine summary\n%s\nwant\n%s", got, want)
	}
}

func TestStateStrings(t *testing.T) {
	if Asleep.String() != "asleep" || Active.String() != "active" || Busy.String() != "busy" {
		t.Fatal("state names wrong")
	}
	if Asleep.Rune() != '.' || Active.Rune() != '~' || Busy.Rune() != '#' {
		t.Fatal("state glyphs wrong")
	}
}
