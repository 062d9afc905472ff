package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestPrunedGapsMatchesUnpruned is the branch-and-bound contract:
// pruning may skip states but must not change the optimum or the
// reconstructed schedule, bit for bit.
func TestPrunedGapsMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sawPrune := false
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(9)
		p := 1 + rng.Intn(3)
		in := workload.FeasibleOneInterval(rng, n, p, 4+rng.Intn(26), 1+rng.Intn(5))
		pruned, err1 := Solve(in, Objective{}, Options{})
		plain, err2 := Solve(in, Objective{}, Options{NoPrune: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("feasibility disagreement: %v vs %v (jobs %v procs %d)", err1, err2, in.Jobs, in.Procs)
		}
		if err1 != nil {
			continue
		}
		if pruned.Cost != plain.Cost {
			t.Fatalf("pruned spans %v != unpruned %v (jobs %v procs %d)", pruned.Cost, plain.Cost, in.Jobs, in.Procs)
		}
		if !reflect.DeepEqual(pruned.Schedule, plain.Schedule) {
			t.Fatalf("pruned schedule differs (jobs %v procs %d):\n%v\nvs\n%v", in.Jobs, in.Procs, pruned.Schedule, plain.Schedule)
		}
		if plain.PrunedStates != 0 {
			t.Fatalf("NoPrune run reported %d pruned states", plain.PrunedStates)
		}
		if pruned.PrunedStates > 0 {
			sawPrune = true
		}
	}
	if !sawPrune {
		t.Fatal("no trial pruned anything; bound or budget wiring is dead")
	}
}

// TestPrunedPowerMatchesUnpruned is the same contract for the power DP,
// across a spread of transition costs.
func TestPrunedPowerMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	sawPrune := false
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(2)
		alpha := float64(rng.Intn(9)) / 2
		in := workload.FeasibleOneInterval(rng, n, p, 4+rng.Intn(24), 1+rng.Intn(5))
		pruned, err1 := Solve(in, Objective{Power: true, Alpha: alpha}, Options{})
		plain, err2 := Solve(in, Objective{Power: true, Alpha: alpha}, Options{NoPrune: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("feasibility disagreement: %v vs %v (jobs %v procs %d α=%v)", err1, err2, in.Jobs, in.Procs, alpha)
		}
		if err1 != nil {
			continue
		}
		if pruned.Cost != plain.Cost {
			t.Fatalf("pruned power %v != unpruned %v (jobs %v procs %d α=%v)", pruned.Cost, plain.Cost, in.Jobs, in.Procs, alpha)
		}
		if !reflect.DeepEqual(pruned.Schedule, plain.Schedule) {
			t.Fatalf("pruned schedule differs (jobs %v procs %d α=%v):\n%v\nvs\n%v", in.Jobs, in.Procs, alpha, pruned.Schedule, plain.Schedule)
		}
		if plain.PrunedStates != 0 {
			t.Fatalf("NoPrune run reported %d pruned states", plain.PrunedStates)
		}
		if pruned.PrunedStates > 0 {
			sawPrune = true
		}
	}
	if !sawPrune {
		t.Fatal("no trial pruned anything; bound or budget wiring is dead")
	}
}

// TestPruningShrinksDenseSolve pins the point of the exercise: on a
// dense single-fragment instance the bounded run must expand strictly
// fewer states than the unbounded one (wall-clock speedups are measured
// by E21; state counts are the deterministic proxy).
func TestPruningShrinksDenseSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("dense instance")
	}
	rng := rand.New(rand.NewSource(63))
	in := workload.StressDense(rng, 120, 2)
	start := time.Now()
	pruned, err := Solve(in, Objective{}, Options{})
	prunedDur := time.Since(start)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	start = time.Now()
	plain, err := Solve(in, Objective{}, Options{NoPrune: true})
	plainDur := time.Since(start)
	if err != nil {
		t.Fatalf("NoPrune: %v", err)
	}
	if pruned.Cost != plain.Cost {
		t.Fatalf("pruned spans %v != unpruned %v", pruned.Cost, plain.Cost)
	}
	if pruned.ExpandedStates >= plain.ExpandedStates {
		t.Fatalf("pruning expanded %d states, unpruned %d — no reduction",
			pruned.ExpandedStates, plain.ExpandedStates)
	}
	t.Logf("dense n=120: expanded %d vs %d unpruned (pruned %d cuts), %v vs %v",
		pruned.ExpandedStates, plain.ExpandedStates, pruned.PrunedStates, prunedDur, plainDur)
}

// TestPruningShrinksDensePowerSolve is the power objective's
// counterpart. Its continuous costs leave few prune markers reusable,
// so the cut must come from inside the scan: a node stops at the first
// candidate that meets its own bound, and a right child is skipped
// when the left cost plus its bound already meets the threshold. The
// bounded run must expand at most 3/4 of what the unbounded one does.
func TestPruningShrinksDensePowerSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("dense instance")
	}
	in := workload.StressDense(rand.New(rand.NewSource(64)), 96, 3)
	pruned, err := Solve(in, Objective{Power: true, Alpha: 2}, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	plain, err := Solve(in, Objective{Power: true, Alpha: 2}, Options{NoPrune: true})
	if err != nil {
		t.Fatalf("NoPrune: %v", err)
	}
	if pruned.Cost != plain.Cost || !reflect.DeepEqual(pruned.Schedule, plain.Schedule) {
		t.Fatalf("pruned power %v differs from unpruned %v (or the schedules differ)", pruned.Cost, plain.Cost)
	}
	if 4*pruned.ExpandedStates > 3*plain.ExpandedStates {
		t.Fatalf("bounded run expanded %d states, unpruned %d: more than 3/4",
			pruned.ExpandedStates, plain.ExpandedStates)
	}
	t.Logf("dense power n=96 p=3: expanded %d vs %d unpruned (%.0f%%)", pruned.ExpandedStates,
		plain.ExpandedStates, 100*float64(pruned.ExpandedStates)/float64(plain.ExpandedStates))
}

// TestNodeLBAdmissible: every exact memo entry of an unbounded solve
// costs at least its node's bound, for both models and a spread of
// transition costs. The node and candidate cuts and the scan's early
// exit all trust costModel.nodeLB at every node, and they compare the
// bound as computed, in floating point, so the check does too.
func TestNodeLBAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		n, p := 1+rng.Intn(10), 1+rng.Intn(3)
		in := workload.FeasibleOneInterval(rng, n, p, 2+rng.Intn(2*n), 1+rng.Intn(6))
		if trial%4 == 0 {
			in = workload.StressDense(rng, 4+rng.Intn(12), p)
		}
		checked += checkNodeLB(t, in, func(p int) gapModel { return gapModel{p: p} })
		for _, alpha := range []float64{0, 0.5, 2, 3.7} {
			checked += checkNodeLB(t, in, func(p int) powerModel { return powerModel{p: p, alpha: alpha} })
		}
	}
	if checked == 0 {
		t.Fatal("no memo entry checked")
	}
}

// checkNodeLB solves in unbounded under model and checks every finite
// memo entry against the model's bound at its node, returning the
// number checked.
func checkNodeLB[M costModel](t *testing.T, in sched.Instance, model func(p int) M) int {
	t.Helper()
	w := new(workspace)
	w.reset(in, false)
	var e engine[M]
	e.init(w, model(w.p))
	if e.dp(w.root(), infinite) >= infinite {
		t.Fatalf("%T: unbounded solve found no schedule (jobs %v procs %d)", e.model, in.Jobs, in.Procs)
	}
	checked := 0
	e.memo.each(func(nd node, r entry) {
		if r.choice == choicePruned {
			t.Fatalf("%T: unbounded solve memoized a prune marker at %+v", e.model, nd)
		}
		if r.cost >= infinite {
			return
		}
		if lb := e.model.nodeLB(nd.k, nd.l1, nd.l2, nd.c2, e.t1val[nd.i1], e.t2val[nd.i2]); lb > r.cost {
			t.Fatalf("%+v: nodeLB %v exceeds the exact cost %v (jobs %v procs %d)",
				e.model, lb, r.cost, in.Jobs, in.Procs)
		}
		checked++
	})
	return checked
}
