package main

// Experiment E20: the heuristic solver tier. Three tables:
//
//  1. Scale — the greedy tier (ModeHeuristic) on the cmd/gapgen stress
//     profiles at sizes far beyond the exact DP's reach (n up to 10^5).
//     Every answer is a feasible schedule with a certified optimality
//     gap: the table reports the measured cost, the lower-bound
//     certificate, and their ratio.
//
//  2. The exact wall — single-fragment dense instances solved by both
//     tiers. The exact DP's wall-clock grows steeply with fragment
//     size (its admission estimate, prep.AdmissionEstimate, alongside),
//     while the heuristic stays near-linear: by n = 800 the greedy is
//     already over an order of magnitude faster, and extrapolating the
//     exact trend to n = 10^5 exceeds any bench budget — which is
//     exactly why table 1 has no exact column.
//
//  3. Auto — ModeAuto on a mixed instance (many small clusters plus
//     one oversized fragment). Under the default StateBudget the small
//     fragments stay exact and only the oversized one goes to the
//     greedy, keeping the aggregate certificate tight; with an
//     unbounded budget ModeAuto must be bit-identical to ModeExact.

import (
	"math"
	"math/rand"
	"time"

	gapsched "repro"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E20", "Heuristic tier: scale, certificates, and adaptive mode", runE20)
}

func runE20(cfg config) []*stats.Table {
	return []*stats.Table{
		e20Scale(cfg),
		e20ExactWall(cfg),
		e20Auto(cfg),
	}
}

func e20Scale(cfg config) *stats.Table {
	sizes := []int{10_000, 100_000}
	if cfg.quick {
		sizes = []int{2_000, 10_000}
	}
	tb := stats.NewTable("profile", "objective", "n", "fragments",
		"heur ms", "cost", "lower bound", "cost/LB", "feasible")
	for _, profile := range workload.StressProfiles {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(cfg.seed))
			in, err := workload.Stress(rng, profile, n, 2)
			if err != nil {
				panic(err)
			}
			for _, m := range []struct {
				name   string
				solver gapsched.Solver
			}{
				{"gaps", gapsched.Solver{Mode: gapsched.ModeHeuristic}},
				{"power α=4", gapsched.Solver{Mode: gapsched.ModeHeuristic, Objective: gapsched.ObjectivePower, Alpha: 4}},
			} {
				t0 := time.Now()
				sol, err := m.solver.Solve(in)
				el := time.Since(t0)
				if err != nil {
					panic(err)
				}
				cost := m.solver.Objective.Cost(sol)
				tb.AddRow(profile, m.name, n, sol.Subinstances,
					float64(el.Microseconds())/1000, cost, sol.LowerBound, cost/sol.LowerBound,
					boolMark(sol.Schedule.Validate(in) == nil))
			}
		}
	}
	return tb
}

func e20ExactWall(cfg config) *stats.Table {
	sizes := []int{200, 400, 800}
	if cfg.quick {
		sizes = []int{100, 200}
	}
	tb := stats.NewTable("dense n", "admission estimate", "exact ms", "DP states",
		"heur ms", "speedup", "exact cost", "heur cost", "cost/LB")
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.seed))
		in := workload.StressDense(rng, n, 2)
		est := prep.AdmissionEstimate(in)

		t0 := time.Now()
		ex, err := gapsched.Solver{}.Solve(in)
		exEl := time.Since(t0)
		if err != nil {
			panic(err)
		}
		t0 = time.Now()
		h, err := gapsched.Solver{Mode: gapsched.ModeHeuristic}.Solve(in)
		hEl := time.Since(t0)
		if err != nil {
			panic(err)
		}
		tb.AddRow(n, est, float64(exEl.Microseconds())/1000, ex.States,
			float64(hEl.Microseconds())/1000, float64(exEl)/float64(hEl),
			ex.Spans, h.Spans, float64(h.Spans)/h.LowerBound)
	}
	return tb
}

// e20Mixed builds the mixed instance: small exact-friendly clusters
// plus one fragment big enough to blow the default budget.
func e20Mixed(seed int64, clusters, perCluster, bigN int) gapsched.Instance {
	rng := rand.New(rand.NewSource(seed))
	var jobs []sched.Job
	for c := 0; c < clusters; c++ {
		base := c * 200
		for k := 0; k < perCluster; k++ {
			r := base + k + rng.Intn(3)
			jobs = append(jobs, sched.Job{Release: r, Deadline: r + 2 + rng.Intn(4)})
		}
	}
	big := workload.StressDense(rng, bigN, 1)
	off := clusters * 200
	for _, j := range big.Jobs {
		jobs = append(jobs, sched.Job{Release: j.Release + off, Deadline: j.Deadline + off})
	}
	return gapsched.NewInstance(jobs)
}

func e20Auto(cfg config) *stats.Table {
	clusters, perCluster, bigN := 12, 8, 400
	if cfg.quick {
		clusters, bigN = 6, 200
	}
	in := e20Mixed(cfg.seed, clusters, perCluster, bigN)

	tb := stats.NewTable("objective", "mode", "budget", "ms",
		"heur frags", "of", "cost", "lower bound", "cost/LB", "= exact")
	for _, m := range []struct {
		name string
		base gapsched.Solver
	}{
		{"gaps", gapsched.Solver{}},
		{"power α=3", gapsched.Solver{Objective: gapsched.ObjectivePower, Alpha: 3}},
	} {
		t0 := time.Now()
		ex, err := m.base.Solve(in)
		exEl := time.Since(t0)
		if err != nil {
			panic(err)
		}
		exCost := m.base.Objective.Cost(ex)
		tb.AddRow(m.name, "exact", "", float64(exEl.Microseconds())/1000,
			ex.HeuristicFragments, ex.Subinstances, exCost, ex.LowerBound, exCost/ex.LowerBound, boolMark(true))

		for _, cfg := range []struct {
			label  string
			budget int
		}{
			{"default", 0},
			{"unbounded", math.MaxInt},
		} {
			s := m.base
			s.Mode, s.StateBudget = gapsched.ModeAuto, cfg.budget
			t0 = time.Now()
			sol, err := s.Solve(in)
			el := time.Since(t0)
			if err != nil {
				panic(err)
			}
			cost := s.Objective.Cost(sol)
			tb.AddRow(m.name, "auto", cfg.label, float64(el.Microseconds())/1000,
				sol.HeuristicFragments, sol.Subinstances, cost, sol.LowerBound, cost/sol.LowerBound,
				boolMark(cost == exCost))
		}
	}
	return tb
}
