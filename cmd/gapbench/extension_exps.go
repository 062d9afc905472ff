package main

// Experiments E13–E15: the §2 arithmetic corollary, the online
// power-down baselines the paper builds on, and ablations of the design
// choices called out in DESIGN.md.

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/arith"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/multiinterval"
	"repro/internal/powerdown"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E13", "§2 corollary: homogeneous arithmetic instances solved exactly via Theorem 1", runE13)
	register("E14", "online power-down baselines vs offline optimum ([ISG03]/[AIS04] context)", runE14)
	register("E15", "ablations: candidate-grid pruning and packing search depth", runE15)
}

func runE13(cfg config) []*stats.Table {
	rng := rand.New(rand.NewSource(cfg.seed))
	trials := 40
	if cfg.quick {
		trials = 12
	}
	tb := stats.NewTable("p (terms)", "trials", "arith = oracle", "mean spans")
	for _, p := range []int{1, 2, 3} {
		agree, cnt := 0, 0
		var spans float64
		for trial := 0; trial < trials; trial++ {
			in := workload.FeasibleOneInterval(rng, 2+rng.Intn(5), p, 8, 3)
			mi, _ := sched.LayOut(in)
			res, err := arith.Solve(mi)
			if err != nil {
				continue
			}
			cnt++
			want, ok := exact.SpansMulti(mi)
			if ok && res.Spans == want {
				agree++
			}
			spans += float64(res.Spans)
		}
		tb.AddRow(p, cnt, boolMark(agree == cnt), spans/float64(max(cnt, 1)))
	}
	return []*stats.Table{tb}
}

func runE14(cfg config) []*stats.Table {
	rng := rand.New(rand.NewSource(cfg.seed))
	trials := 80
	if cfg.quick {
		trials = 25
	}
	policies := []powerdown.Policy{
		powerdown.SkiRental{},
		powerdown.RandomizedExp{},
		powerdown.Threshold{Tau: 1},
	}
	tb := stats.NewTable("policy", "α", "worst gap ratio", "theory", "mean EDF-schedule ratio")
	for _, p := range policies {
		for _, alpha := range []float64{1, 3} {
			var ratios []float64
			for trial := 0; trial < trials; trial++ {
				in := workload.FeasibleOneInterval(rng, 2+rng.Intn(10), 1, 20, 5)
				rep, ok := powerdown.EvaluateEDF(in, alpha, p)
				if !ok {
					continue
				}
				ratios = append(ratios, rep.Ratio)
			}
			theory := "-"
			switch p.(type) {
			case powerdown.SkiRental:
				theory = "2"
			case powerdown.RandomizedExp:
				theory = "e/(e−1) ≈ 1.582"
			}
			tb.AddRow(p.Name(), alpha, powerdown.CompetitiveRatio(p, alpha, 400), theory,
				stats.Summarize(ratios).Mean)
		}
	}
	return []*stats.Table{tb}
}

func runE15(cfg config) []*stats.Table {
	rng := rand.New(rand.NewSource(cfg.seed))
	reps := 6
	if cfg.quick {
		reps = 3
	}
	// Ablation 1: anchor grid (Prop 2.1) vs full-horizon grid. Sparse
	// instances (wide horizon) show the pruning's value; both must agree
	// on the optimum.
	// Wide windows matter: with narrow windows the job's own window
	// already clamps the candidate times and the grids coincide.
	grid := stats.NewTable("n", "horizon", "anchor states", "full states", "anchor ms", "full ms", "same optimum")
	for _, shape := range [][2]int{{6, 120}, {8, 240}, {10, 400}} {
		n, horizon := shape[0], shape[1]
		var aStates, fStates, aMS, fMS float64
		same := true
		for rep := 0; rep < reps; rep++ {
			in := workload.FeasibleOneInterval(rng, n, 1, horizon, horizon/2)
			start := time.Now()
			a, errA := core.Solve(in, core.Objective{}, core.Options{})
			aMS += float64(time.Since(start).Microseconds()) / 1000
			start = time.Now()
			f, errF := core.Solve(in, core.Objective{}, core.Options{FullGrid: true})
			fMS += float64(time.Since(start).Microseconds()) / 1000
			if errA != nil || errF != nil || a.Cost != f.Cost {
				same = false
				continue
			}
			aStates += float64(a.States)
			fStates += float64(f.States)
		}
		grid.AddRow(n, horizon, aStates/float64(reps), fStates/float64(reps),
			aMS/float64(reps), fMS/float64(reps), boolMark(same))
	}

	// Ablation 2: packing exchange depth in the Theorem 3 pipeline.
	trials := 40
	if cfg.quick {
		trials = 12
	}
	depth := stats.NewTable("search depth", "trials", "mean power ratio", "max power ratio")
	const alpha = 2.0
	for _, d := range []int{1, 2} {
		var ratios []float64
		r := rand.New(rand.NewSource(cfg.seed + 100))
		for trial := 0; trial < trials; trial++ {
			mi := workload.FeasibleMultiInterval(r, 2+r.Intn(8), 1+r.Intn(3), 1+r.Intn(2), 12)
			opt, ok := exact.PowerMulti(mi, alpha)
			if !ok {
				continue
			}
			ms, _, err := multiinterval.ApproxPower(mi, alpha, multiinterval.Options{SearchDepth: d})
			if err != nil {
				continue
			}
			ratios = append(ratios, ms.PowerCost(alpha)/opt)
		}
		s := stats.Summarize(ratios)
		depth.AddRow(d, len(ratios), s.Mean, s.Max)
	}
	_ = math.Sqrt // keep math import if tables change
	return []*stats.Table{grid, depth}
}
