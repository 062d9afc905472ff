package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestResultIndependentOfGOMAXPROCS pins the engine's determinism: a
// solve is a pure function of its instance. On a dense gaps fragment
// (220 jobs, p = 3) and a dense power fragment (205 jobs, p = 2), two
// solves at GOMAXPROCS 1 and two at GOMAXPROCS 4 must return the same
// Result in full — cost, schedule, States, PrunedStates and
// ExpandedStates — so the state counters the facade, the wire and
// /metrics report never depend on the scheduler. The gaps fragment is
// also solved with NoPrune, which must be just as stable, report no
// pruned states and reach the pruned solve's cost.
func TestResultIndependentOfGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("dense instances")
	}
	settings := []int{1, 1, 4, 4}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	t.Run("gaps", func(t *testing.T) {
		in := workload.StressDense(rand.New(rand.NewSource(71)), 220, 3)
		var pruned, plain []Result
		for _, procs := range settings {
			runtime.GOMAXPROCS(procs)
			r, err := SolveGaps(in)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			np, err := SolveGapsOpt(in, Options{NoPrune: true})
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, NoPrune: %v", procs, err)
			}
			pruned, plain = append(pruned, r), append(plain, np)
		}
		for i := 1; i < len(settings); i++ {
			if !reflect.DeepEqual(pruned[i], pruned[0]) {
				t.Errorf("solve %d differs from solve 0: spans %d/%d states %d/%d pruned %d/%d expanded %d/%d",
					i, pruned[i].Spans, pruned[0].Spans, pruned[i].States, pruned[0].States,
					pruned[i].PrunedStates, pruned[0].PrunedStates, pruned[i].ExpandedStates, pruned[0].ExpandedStates)
			}
			if !reflect.DeepEqual(plain[i], plain[0]) {
				t.Errorf("NoPrune solve %d differs from solve 0: spans %d/%d states %d/%d expanded %d/%d",
					i, plain[i].Spans, plain[0].Spans, plain[i].States, plain[0].States,
					plain[i].ExpandedStates, plain[0].ExpandedStates)
			}
		}
		if plain[0].Spans != pruned[0].Spans {
			t.Errorf("NoPrune spans %d != pruned spans %d", plain[0].Spans, pruned[0].Spans)
		}
		if plain[0].PrunedStates != 0 {
			t.Errorf("NoPrune reported %d pruned states", plain[0].PrunedStates)
		}
	})

	t.Run("power", func(t *testing.T) {
		in := workload.StressDense(rand.New(rand.NewSource(72)), 205, 2)
		var power []PowerResult
		for _, procs := range settings {
			runtime.GOMAXPROCS(procs)
			r, err := SolvePower(in, 2.5)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			power = append(power, r)
		}
		for i := 1; i < len(settings); i++ {
			if !reflect.DeepEqual(power[i], power[0]) {
				t.Errorf("solve %d differs from solve 0: power %v/%v states %d/%d pruned %d/%d expanded %d/%d",
					i, power[i].Power, power[0].Power, power[i].States, power[0].States,
					power[i].PrunedStates, power[0].PrunedStates, power[i].ExpandedStates, power[0].ExpandedStates)
			}
		}
	})
}
