package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/heur"
	"repro/internal/sched"
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
			r, err := Solve(in, Objective{}, Options{})
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			np, err := Solve(in, Objective{}, Options{NoPrune: true})
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, NoPrune: %v", procs, err)
			}
			pruned, plain = append(pruned, r), append(plain, np)
		}
		for i := 1; i < len(settings); i++ {
			if !reflect.DeepEqual(pruned[i], pruned[0]) {
				t.Errorf("solve %d differs from solve 0: spans %v/%v states %d/%d pruned %d/%d expanded %d/%d",
					i, pruned[i].Cost, pruned[0].Cost, pruned[i].States, pruned[0].States,
					pruned[i].PrunedStates, pruned[0].PrunedStates, pruned[i].ExpandedStates, pruned[0].ExpandedStates)
			}
			if !reflect.DeepEqual(plain[i], plain[0]) {
				t.Errorf("NoPrune solve %d differs from solve 0: spans %v/%v states %d/%d expanded %d/%d",
					i, plain[i].Cost, plain[0].Cost, plain[i].States, plain[0].States,
					plain[i].ExpandedStates, plain[0].ExpandedStates)
			}
		}
		if plain[0].Cost != pruned[0].Cost {
			t.Errorf("NoPrune spans %v != pruned spans %v", plain[0].Cost, pruned[0].Cost)
		}
		if plain[0].PrunedStates != 0 {
			t.Errorf("NoPrune reported %d pruned states", plain[0].PrunedStates)
		}
	})

	t.Run("power", func(t *testing.T) {
		in := workload.StressDense(rand.New(rand.NewSource(72)), 205, 2)
		var power []Result
		for _, procs := range settings {
			runtime.GOMAXPROCS(procs)
			r, err := Solve(in, Objective{Power: true, Alpha: 2.5}, Options{})
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			power = append(power, r)
		}
		for i := 1; i < len(settings); i++ {
			if !reflect.DeepEqual(power[i], power[0]) {
				t.Errorf("solve %d differs from solve 0: power %v/%v states %d/%d pruned %d/%d expanded %d/%d",
					i, power[i].Cost, power[0].Cost, power[i].States, power[0].States,
					power[i].PrunedStates, power[0].PrunedStates, power[i].ExpandedStates, power[0].ExpandedStates)
			}
		}
	})
}

// TestConcurrentTiersMatchFresh runs both tiers at once on the
// workspace free list: goroutines interleave Greedy on heuristic-sized
// fragments with exact Solves of dense ones, each in its own order, so
// the greedy's index and the engine's buffers are rebuilt over storage
// the other tier left behind. Every answer must equal the one computed
// with fresh storage: a Solve on an emptied free list, and the
// package-level heur.Greedy with the certificates' own index.
func TestConcurrentTiersMatchFresh(t *testing.T) {
	type solveCase struct {
		in    sched.Instance
		obj   Objective
		exact bool
		want  Result
	}
	var cases []solveCase
	rng := rand.New(rand.NewSource(29))
	for _, obj := range []Objective{{}, {Power: true, Alpha: 1.5}} {
		for i := 0; i < 3; i++ {
			cases = append(cases, solveCase{in: workload.StressDense(rng, 24+8*i, 1+i%2), obj: obj, exact: true})
			in, err := workload.Stress(rng, workload.StressProfiles[i], 300+200*i, 1+i%3)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, solveCase{in: in, obj: obj})
		}
	}
	for i := range cases {
		c := &cases[i]
		if c.exact {
			workspaces.Lock()
			workspaces.free = nil
			workspaces.Unlock()
			r, err := Solve(c.in, c.obj, Options{})
			if err != nil {
				t.Fatal(err)
			}
			c.want = r
			continue
		}
		s, err := heur.Greedy(c.in)
		if err != nil {
			t.Fatal(err)
		}
		c.want = Result{Cost: c.obj.Price(s), Schedule: s, LowerBound: float64(heur.FragmentSpanLB(c.in))}
		if c.obj.Power {
			c.want.LowerBound = heur.FragmentPowerLB(c.in, c.obj.Alpha)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for _, i := range rand.New(rand.NewSource(int64(10*g + round))).Perm(len(cases)) {
					c := cases[i]
					var got Result
					var err error
					if c.exact {
						got, err = Solve(c.in, c.obj, Options{})
					} else {
						got, err = Greedy(c.in, c.obj)
					}
					if err != nil || !reflect.DeepEqual(got, c.want) {
						t.Errorf("goroutine %d, case %d (exact %v, %+v, %d jobs): got cost %v lb %v err %v, want cost %v lb %v",
							g, i, c.exact, c.obj, len(c.in.Jobs), got.Cost, got.LowerBound, err, c.want.Cost, c.want.LowerBound)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
