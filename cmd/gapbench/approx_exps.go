package main

// Experiments E4–E5 and E9–E11: the approximation algorithms and
// baselines (Theorems 3 and 11, [FHKN06], the online lower bound).

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/greedysp"
	"repro/internal/multiinterval"
	"repro/internal/online"
	"repro/internal/restart"
	"repro/internal/setpacking"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E4", "Theorem 3 approximation ratio vs exact, per α", runE4)
	register("E5", "Lemma 4 shift bound and Hurkens–Schrijver packing quality", runE5)
	register("E9", "Theorem 11 restart greedy vs exact throughput", runE9)
	register("E10", "[FHKN06] greedy 3-approximation vs exact DP", runE10)
	register("E11", "§1 online lower bound: EDF is Ω(n)-competitive", runE11)
}

func runE4(cfg config) []*stats.Table {
	rng := rand.New(rand.NewSource(cfg.seed))
	trials := 60
	if cfg.quick {
		trials = 20
	}
	tb := stats.NewTable("α", "trials", "mean ratio", "max ratio", "bound 1+(2/3)α", "≤ bound",
		"naive mean", "naive max")
	for _, alpha := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		var ratios, naives []float64
		for trial := 0; trial < trials; trial++ {
			mi := workload.FeasibleMultiInterval(rng, 2+rng.Intn(8), 1+rng.Intn(3), 1+rng.Intn(2), 12)
			opt, ok := exact.PowerMulti(mi, alpha)
			if !ok {
				continue
			}
			ms, _, err := multiinterval.ApproxPower(mi, alpha, multiinterval.Options{SearchDepth: 2})
			if err != nil {
				continue
			}
			ratios = append(ratios, stats.Ratio(ms.PowerCost(alpha), opt))
			if nv, err := multiinterval.NaiveSchedule(mi); err == nil {
				naives = append(naives, stats.Ratio(nv.PowerCost(alpha), opt))
			}
		}
		rs, ns := stats.Summarize(ratios), stats.Summarize(naives)
		bound := multiinterval.Bound(2, 0, alpha)
		tb.AddRow(alpha, len(ratios), rs.Mean, rs.Max, bound, boolMark(rs.Max <= bound+1e-9), ns.Mean, ns.Max)
	}
	return []*stats.Table{tb}
}

func runE5(cfg config) []*stats.Table {
	rng := rand.New(rand.NewSource(cfg.seed))
	trials := 300
	if cfg.quick {
		trials = 80
	}
	// Lemma 4: best shift class covers ≥ (n − M(k−1))/k anchors.
	lem := stats.NewTable("k", "trials", "bound holds", "mean slack (count − bound)")
	for _, k := range []int{2, 3} {
		hold := 0
		var slack []float64
		for trial := 0; trial < trials; trial++ {
			busy := map[int]bool{}
			for i := 0; i < 1+rng.Intn(24); i++ {
				busy[rng.Intn(36)] = true
			}
			var ts []int
			for t := range busy {
				ts = append(ts, t)
			}
			n, m := len(ts), 0
			m = spansOf(ts)
			_, count := multiinterval.ShiftCover(ts, k)
			bound := float64(n-m*(k-1)) / float64(k)
			if float64(count) >= bound-1e-9 {
				hold++
			}
			slack = append(slack, float64(count)-bound)
		}
		lem.AddRow(k, trials, boolMark(hold == trials), stats.Summarize(slack).Mean)
	}

	// Packing quality: local search vs exact on random 3-set instances.
	packTrials := 40
	if cfg.quick {
		packTrials = 15
	}
	pk := stats.NewTable("universe", "sets", "trials", "min LS2/OPT", "mean LS2/OPT", "HS bound 1/2")
	for _, shape := range [][2]int{{10, 8}, {14, 12}, {18, 16}} {
		var ratios []float64
		for trial := 0; trial < packTrials; trial++ {
			in := randomPacking(rng, shape[0], shape[1], 3)
			opt := len(setpacking.Exact(in))
			if opt == 0 {
				continue
			}
			ls := len(setpacking.LocalSearch(in, 2))
			ratios = append(ratios, float64(ls)/float64(opt))
		}
		s := stats.Summarize(ratios)
		pk.AddRow(shape[0], shape[1], len(ratios), s.Min, s.Mean, 0.5)
	}
	return []*stats.Table{lem, pk}
}

func randomPacking(rng *rand.Rand, universe, nSets, size int) setpacking.Instance {
	in := setpacking.Instance{Universe: universe}
	for i := 0; i < nSets; i++ {
		seen := map[int]bool{}
		var s []int
		for len(s) < size {
			e := rng.Intn(universe)
			if !seen[e] {
				seen[e] = true
				s = append(s, e)
			}
		}
		in.Sets = append(in.Sets, s)
	}
	return in
}

func spansOf(ts []int) int {
	if len(ts) == 0 {
		return 0
	}
	sorted := append([]int{}, ts...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	spans := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1]+1 {
			spans++
		}
	}
	return spans
}

func runE9(cfg config) []*stats.Table {
	rng := rand.New(rand.NewSource(cfg.seed))
	trials := 60
	if cfg.quick {
		trials = 20
	}
	tb := stats.NewTable("n", "budget", "trials", "mean greedy/OPT", "min greedy/OPT", "proof bound 1/(2√n+1)", "≥ bound")
	for _, shape := range [][2]int{{6, 1}, {8, 2}, {10, 2}, {12, 3}} {
		n, budget := shape[0], shape[1]
		var ratios []float64
		ok := true
		for trial := 0; trial < trials; trial++ {
			mi := workload.MultiInterval(rng, n, 1+rng.Intn(3), 1+rng.Intn(2), 14)
			res, err := restart.Greedy(mi, budget)
			if err != nil {
				continue
			}
			opt := exact.MaxThroughput(mi, budget)
			if opt == 0 {
				continue
			}
			r := float64(res.Jobs()) / float64(opt)
			ratios = append(ratios, r)
			if r < 1/(2*math.Sqrt(float64(n))+1)-1e-9 {
				ok = false
			}
		}
		s := stats.Summarize(ratios)
		tb.AddRow(n, budget, len(ratios), s.Mean, s.Min, 1/(2*math.Sqrt(float64(n))+1), boolMark(ok))
	}
	return []*stats.Table{tb}
}

func runE10(cfg config) []*stats.Table {
	rng := rand.New(rand.NewSource(cfg.seed))
	trials := 100
	if cfg.quick {
		trials = 30
	}
	tb := stats.NewTable("n", "trials", "mean spans ratio", "max spans ratio", "≤ 3")
	for _, n := range []int{4, 6, 8, 10} {
		var ratios []float64
		for trial := 0; trial < trials; trial++ {
			in := workload.FeasibleOneInterval(rng, n, 1, 14, 5)
			res, err := greedysp.Solve(in)
			if err != nil {
				continue
			}
			opt, err := core.Solve(in, core.Objective{}, core.Options{})
			if err != nil {
				continue
			}
			ratios = append(ratios, stats.Ratio(float64(res.Spans), opt.Cost))
		}
		s := stats.Summarize(ratios)
		tb.AddRow(n, len(ratios), s.Mean, s.Max, boolMark(s.Max <= 3+1e-9))
	}
	return []*stats.Table{tb}
}

func runE11(cfg config) []*stats.Table {
	tb := stats.NewTable("n", "online spans (EDF)", "offline spans", "competitive ratio")
	sizes := []int{2, 4, 8, 16, 32, 64}
	if cfg.quick {
		sizes = []int{2, 4, 8, 16}
	}
	for _, n := range sizes {
		rep, err := online.LowerBound(n)
		if err != nil {
			continue
		}
		tb.AddRow(n, rep.OnlineSpans, rep.OfflineSpans, rep.Ratio)
	}
	return []*stats.Table{tb}
}
