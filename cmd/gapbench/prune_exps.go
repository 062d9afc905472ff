package main

// Experiment E21: the bound-guided exact tier. Two tables:
//
//  1. Bounded vs unpruned — single-fragment dense instances solved by
//     the exact engine with branch-and-bound (greedy incumbent +
//     per-node admissible lower bounds, the default) and with pruning
//     disabled (the NoPrune ablation). The two runs must report the
//     same optimal cost — pruning only skips subproblems that provably
//     cannot beat the incumbent. On the integral gaps objective the
//     bounded run expands roughly half the states and runs 2–3×
//     faster; on power, whose continuous costs leave the memoized
//     subtrees shared across thresholds, the cuts mostly hit nodes
//     that would have been memo hits anyway and the bound bookkeeping
//     costs a few percent — the row is there for the correctness
//     certificate and to keep that trade-off measured.
//
//  2. Admission — ModeAuto under the default budget on mixed instances
//     whose oversized fragment sits on either side of the
//     pruning-discounted index-space bound. The n=400 dense class,
//     which the raw estimate used to send to the heuristic, is admitted
//     to the (bounded) exact tier and comes back certified optimal:
//     cost/LB = 1.00 with zero heuristic fragments. The n=800 and
//     n=2000 classes exceed the discounted bound, but their big
//     fragment is single-processor and its single-processor estimate
//     G·(n+1) fits the same budget, so the engine solves them exactly
//     too. The n=2000 row runs outside -quick only.

import (
	"math/rand"
	"strconv"
	"time"

	gapsched "repro"
	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workload"

	"repro/internal/stats"
)

func init() {
	register("E21", "Bound-guided exact tier: pruning ablation and admission", runE21)
}

func runE21(cfg config) []*stats.Table {
	return []*stats.Table{
		e21Ablation(cfg),
		e21Admission(cfg),
	}
}

// e21Run is one engine solve of the ablation: its cost, the
// branch-and-bound counters, and the wall-clock.
type e21Run struct {
	cost     float64
	pruned   int
	expanded int
	wall     time.Duration
}

func e21Ablation(cfg config) *stats.Table {
	sizes := []int{400, 800}
	if cfg.quick {
		sizes = []int{100, 200}
	}
	tb := stats.NewTable("objective", "dense n", "bounded ms", "expanded", "pruned",
		"unpruned ms", "expanded (ablation)", "speedup", "costs equal")
	for _, obj := range []struct {
		name  string
		alpha float64
		power bool
	}{
		{"gaps", 0, false},
		{"power α=3", 3, true},
	} {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(cfg.seed))
			in := workload.StressDense(rng, n, 2)

			run := func(opts core.Options) e21Run {
				t0 := time.Now()
				if obj.power {
					res, err := core.SolvePowerOpt(in, obj.alpha, opts)
					if err != nil {
						panic(err)
					}
					return e21Run{res.Power, res.PrunedStates, res.ExpandedStates, time.Since(t0)}
				}
				res, err := core.SolveGapsOpt(in, opts)
				if err != nil {
					panic(err)
				}
				return e21Run{float64(res.Spans), res.PrunedStates, res.ExpandedStates, time.Since(t0)}
			}
			bounded := run(core.Options{})
			plain := run(core.Options{NoPrune: true})
			tb.AddRow(obj.name, n,
				float64(bounded.wall.Microseconds())/1000, bounded.expanded, bounded.pruned,
				float64(plain.wall.Microseconds())/1000, plain.expanded,
				float64(plain.wall)/float64(bounded.wall),
				boolMark(bounded.cost == plain.cost && plain.pruned == 0))
		}
	}
	return tb
}

// e21Mixed is e20Mixed's shape: small exact-friendly clusters plus one
// dense fragment of bigN jobs whose admission the table probes.
func e21Mixed(seed int64, bigN int) (gapsched.Instance, sched.Instance) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []sched.Job
	for c := 0; c < 8; c++ {
		base := c * 200
		for k := 0; k < 6; k++ {
			r := base + k + rng.Intn(3)
			jobs = append(jobs, sched.Job{Release: r, Deadline: r + 2 + rng.Intn(4)})
		}
	}
	big := workload.StressDense(rng, bigN, 1)
	off := 8 * 200
	for _, j := range big.Jobs {
		jobs = append(jobs, sched.Job{Release: j.Release + off, Deadline: j.Deadline + off})
	}
	return gapsched.NewInstance(jobs), big
}

func e21Admission(cfg config) *stats.Table {
	// n=400 and n=800 run even in quick mode: the table needs one
	// fragment on each side of the discounted index-space bound, and
	// both solves are quick precisely because of the pruning this
	// experiment certifies. n=2000 takes seconds.
	bigNs := []int{400, 800}
	if !cfg.quick {
		bigNs = append(bigNs, 2000)
	}
	tb := stats.NewTable("big fragment", "state estimate", "discounted", "single-proc est",
		"ms", "heur frags", "of", "cost", "lower bound", "cost/LB", "certified exact")
	for _, bigN := range bigNs {
		in, big := e21Mixed(cfg.seed, bigN)
		est := prep.StateEstimate(big)
		auto := gapsched.Solver{Mode: gapsched.ModeAuto}
		t0 := time.Now()
		sol, err := auto.Solve(in)
		el := time.Since(t0)
		if err != nil {
			panic(err)
		}
		cost := float64(sol.Spans)
		certified := sol.HeuristicFragments == 0 && cost == sol.LowerBound
		// "Certified exact" says yes when the solve's verdict matches the
		// admission rule: the exact tier takes the fragment when its
		// discounted estimate, or (single-processor fragments only) its
		// single-processor estimate, fits the state budget.
		single, ok := prep.SingleProcEstimate(big)
		expectExact := est/32 <= gapsched.DefaultStateBudget ||
			ok && single <= gapsched.DefaultStateBudget
		tb.AddRow("dense n="+strconv.Itoa(bigN), est, est/32, single,
			float64(el.Microseconds())/1000,
			sol.HeuristicFragments, sol.Subinstances, cost, sol.LowerBound, cost/sol.LowerBound,
			boolMark(certified == expectExact))
	}
	return tb
}
