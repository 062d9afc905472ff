package gapsched

// Benchmarks regenerating every experiment of DESIGN.md §4 (E1–E24),
// one benchmark per table/figure. Run with:
//
//	go test -bench=. -benchmem
//
// The human-readable tables come from cmd/gapbench; these benchmarks
// measure the cost of the same code paths on pinned workloads so
// regressions are visible. Exact-solver benchmarks additionally report
// a states/op metric — the number of memoized DP subproblems — so
// engine-level wins (memo layout, preprocessing) show up separately
// from raw nanoseconds.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/arith"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/greedysp"
	"repro/internal/multiinterval"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/powerdown"
	"repro/internal/prep"
	"repro/internal/reduction"
	"repro/internal/restart"
	"repro/internal/sched"
	"repro/internal/setcover"
	"repro/internal/setpacking"
	"repro/internal/workload"
)

// BenchmarkE1_MultiprocExact: Theorem 1 DP and the oracle on the same
// small multiprocessor instance.
func BenchmarkE1_MultiprocExact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := workload.FeasibleOneInterval(rng, 8, 2, 12, 4)
	b.Run("dp", func(b *testing.B) {
		states := 0
		for i := 0; i < b.N; i++ {
			res, err := core.SolveGaps(in)
			if err != nil {
				b.Fatal(err)
			}
			states += res.States
		}
		b.ReportMetric(float64(states)/float64(b.N), "states/op")
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := exact.SpansOneInterval(in); !ok {
				b.Fatal("infeasible")
			}
		}
	})
}

// BenchmarkE2_ScaleN / BenchmarkE2_ScaleP: the Theorem 1 DP across n
// and p (the scaling series of E2).
func BenchmarkE2_ScaleN(b *testing.B) {
	for _, n := range []int{8, 14, 20, 26} {
		rng := rand.New(rand.NewSource(2))
		in := workload.FeasibleOneInterval(rng, n, 2, 2*n, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				res, err := core.SolveGaps(in)
				if err != nil {
					b.Fatal(err)
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
		})
	}
}

func BenchmarkE2_ScaleP(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(3))
		in := workload.FeasibleOneInterval(rng, 12, p, 20, 6)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				res, err := core.SolveGaps(in)
				if err != nil {
					b.Fatal(err)
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
		})
	}
}

// BenchmarkE3_PowerExact: the Theorem 2 power DP across α.
func BenchmarkE3_PowerExact(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := workload.FeasibleOneInterval(rng, 8, 2, 12, 4)
	for _, alpha := range []float64{0.5, 2, 8} {
		b.Run(fmt.Sprintf("alpha=%v", alpha), func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				res, err := core.SolvePower(in, alpha)
				if err != nil {
					b.Fatal(err)
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
		})
	}
}

// BenchmarkE4_ApproxRatio: the Theorem 3 pipeline vs the naive matching
// baseline on one multi-interval workload.
func BenchmarkE4_ApproxRatio(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mi := workload.FeasibleMultiInterval(rng, 14, 2, 2, 26)
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := multiinterval.ApproxPower(mi, 2, multiinterval.Options{SearchDepth: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := multiinterval.NaiveSchedule(mi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5_PackingQuality: greedy vs local-search set packing.
func BenchmarkE5_PackingQuality(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := setpacking.Instance{Universe: 24}
	for i := 0; i < 30; i++ {
		s := make([]int, 3)
		for j := range s {
			s[j] = rng.Intn(24)
		}
		in.Sets = append(in.Sets, s)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			setpacking.Greedy(in)
		}
	})
	b.Run("local-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			setpacking.LocalSearch(in, 2)
		}
	})
}

// BenchmarkE6_SetCoverReduction: building and solving the Theorem 4
// construction.
func BenchmarkE6_SetCoverReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sc := setcover.Random(rng, 6, 5, 3)
	b.Run("construct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduction.FromSetCover(sc)
		}
	})
	r := reduction.FromSetCover(sc)
	cover := setcover.Greedy(sc)
	b.Run("roundtrip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms, ok := r.CoverToSchedule(cover)
			if !ok {
				b.Fatal("cover rejected")
			}
			r.ScheduleToCover(ms)
		}
	})
}

// BenchmarkE7_IntervalReductions: Theorem 7/8 gadget construction.
func BenchmarkE7_IntervalReductions(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	mi := workload.FeasibleMultiInterval(rng, 6, 4, 1, 20)
	um := workload.FeasibleUnitMulti(rng, 4, 5, 20)
	b.Run("to-2-interval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduction.ToTwoInterval(mi)
		}
	})
	b.Run("to-3-unit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduction.ToThreeUnit(um)
		}
	})
}

// BenchmarkE8_UnitReductions: Theorem 9/10 constructions.
func BenchmarkE8_UnitReductions(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tu := workload.FeasibleUnitMulti(rng, 6, 2, 14)
	du := workload.DisjointUnit(rng, 5, 3)
	sc := setcover.RandomB(rng, 5, 4, 2)
	b.Run("2unit-to-disjoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduction.TwoUnitToDisjoint(tu)
		}
	})
	b.Run("disjoint-to-2unit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduction.DisjointToTwoUnit(du)
		}
	})
	b.Run("bsetcover-to-disjoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduction.FromBSetCoverDisjoint(sc)
		}
	})
}

// BenchmarkE9_RestartGreedy: Theorem 11 greedy vs the exact oracle.
func BenchmarkE9_RestartGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	mi := workload.MultiInterval(rng, 12, 2, 2, 20)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := restart.Greedy(mi, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	small := workload.MultiInterval(rng, 8, 2, 2, 14)
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.MaxThroughput(small, 3)
		}
	})
}

// BenchmarkE10_Greedy3Approx: the [FHKN06] greedy vs the exact DP.
func BenchmarkE10_Greedy3Approx(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	in := workload.FeasibleOneInterval(rng, 10, 1, 16, 5)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := greedysp.Solve(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveGaps(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11_OnlineLowerBound: the adversarial family across n.
func BenchmarkE11_OnlineLowerBound(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := online.LowerBound(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12_SingleProc: the p = 1 specialization (Baptiste) across n.
func BenchmarkE12_SingleProc(b *testing.B) {
	for _, n := range []int{10, 20, 40} {
		rng := rand.New(rand.NewSource(12))
		in := workload.FeasibleOneInterval(rng, n, 1, 3*n, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				res, err := core.SolveGaps(in)
				if err != nil {
					b.Fatal(err)
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
		})
	}
}

// BenchmarkE13_Arithmetic: the §2 corollary solver on laid-out
// arithmetic instances.
func BenchmarkE13_Arithmetic(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	in := workload.FeasibleOneInterval(rng, 8, 3, 10, 4)
	mi, _ := sched.LayOut(in)
	for i := 0; i < b.N; i++ {
		if _, err := arith.Solve(mi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14_PowerDown: online power-down policy evaluation on EDF
// schedules.
func BenchmarkE14_PowerDown(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	in := workload.FeasibleOneInterval(rng, 20, 1, 50, 6)
	for _, p := range []powerdown.Policy{powerdown.SkiRental{}, powerdown.RandomizedExp{}} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := powerdown.EvaluateEDF(in, 3, p); !ok {
					b.Fatal("infeasible")
				}
			}
		})
	}
}

// BenchmarkE16_BatchSolve: the Solver facade fanning a fleet of
// instances across the worker pool, single-worker vs all cores, for
// both objectives. The states/op metric sums memoized DP subproblems
// across the whole batch (preprocessing splits shrink it).
func BenchmarkE16_BatchSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	ins := make([]Instance, 32)
	for i := range ins {
		ins[i] = workload.FeasibleOneInterval(rng, 10, 2, 30, 5)
	}
	for _, cfg := range []struct {
		name   string
		solver Solver
	}{
		{"gaps/serial", Solver{Workers: 1}},
		{"gaps/parallel", Solver{}},
		{"gaps/parallel-noprep", Solver{NoPreprocess: true}},
		{"power/serial", Solver{Objective: ObjectivePower, Alpha: 2, Workers: 1}},
		{"power/parallel", Solver{Objective: ObjectivePower, Alpha: 2}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				for _, r := range cfg.solver.SolveBatch(ins) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
					states += r.Solution.States
				}
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
		})
	}
}

// BenchmarkSolveWorkers: the sweep behind Solve's worker rule
// (solveWorkers). Each shape and size is one instance solved as a
// one-instance SolveBatch at one and at two workers, so both worker
// counts are timed whatever the rule would pick. Shapes: 8-job clusters
// on two processors, one-job fragments (StressSparse) and 64-job bursty
// fragments (StressBursty), the last two on one processor.
func BenchmarkSolveWorkers(b *testing.B) {
	for _, shape := range []struct {
		name string
		gen  func(rng *rand.Rand, n int) Instance
	}{
		{"clusters", func(rng *rand.Rand, n int) Instance {
			var jobs []Job
			for c := 0; len(jobs) < n; c++ {
				for _, j := range workload.FeasibleOneInterval(rng, 8, 2, 12, 4).Jobs {
					jobs = append(jobs, Job{Release: j.Release + 100*c, Deadline: j.Deadline + 100*c})
				}
			}
			return NewMultiprocInstance(jobs[:n], 2)
		}},
		{"sparse", func(rng *rand.Rand, n int) Instance { return workload.StressSparse(rng, n, 1) }},
		{"bursty", func(rng *rand.Rand, n int) Instance { return workload.StressBursty(rng, n, 1) }},
	} {
		for _, n := range []int{32, 64, 128, 256, 512} {
			in := shape.gen(rand.New(rand.NewSource(int64(n))), n)
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/n=%d/workers=%d", shape.name, n, workers), func(b *testing.B) {
					s := Solver{Workers: workers}
					for i := 0; i < b.N; i++ {
						if r := s.SolveBatch([]Instance{in})[0]; r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkE17_FragmentCache: a duplicate-heavy batch through the
// fragment-level SolveBatch with the canonical-fragment cache off, on
// per batch (a fresh cache for every call), and shared across
// iterations. The hits/op metric counts fragments served from the
// cache.
func BenchmarkE17_FragmentCache(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	distinct := make([]Instance, 8)
	for i := range distinct {
		distinct[i] = workload.FeasibleOneInterval(rng, 10, 2, 30, 5)
	}
	ins := make([]Instance, 64)
	for i := range ins {
		ins[i] = distinct[rng.Intn(len(distinct))]
	}
	shared := Solver{Cache: NewFragmentCache(1 << 12)}
	for _, cfg := range []struct {
		name   string
		solver func() Solver
	}{
		{"uncached", func() Solver { return Solver{} }},
		{"cached-per-batch", func() Solver { return Solver{Cache: NewFragmentCache(1 << 12)} }},
		{"cached-shared", func() Solver { return shared }},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				for _, r := range cfg.solver().SolveBatch(ins) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
					hits += r.Solution.CacheHits
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}

// BenchmarkE19_IncrementalSession: a single-job delta (add + remove of
// the same job, so state is iteration-invariant) on a many-fragment
// live instance, resolved incrementally through a Session versus
// solved from scratch. The fragments/op metric reports how many
// fragments the incremental path actually re-solved per delta.
func BenchmarkE19_IncrementalSession(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	const clusters, perCluster, spacing = 12, 8, 40
	var jobs []sched.Job
	for c := 0; c < clusters; c++ {
		for k := 0; k < perCluster; k++ {
			r := spacing*c + k + rng.Intn(3)
			jobs = append(jobs, sched.Job{Release: r, Deadline: r + 2 + rng.Intn(3)})
		}
	}
	delta := sched.Job{Release: spacing * 5, Deadline: spacing*5 + 6}
	for _, cfg := range []struct {
		name   string
		solver Solver
	}{
		{"gaps", Solver{}},
		{"power", Solver{Objective: ObjectivePower, Alpha: 3}},
	} {
		b.Run(cfg.name+"/incremental", func(b *testing.B) {
			sess, err := cfg.solver.Open(1)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			for _, j := range jobs {
				if _, err := sess.Add(j); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sess.Resolve(); err != nil {
				b.Fatal(err)
			}
			resolved := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := sess.Add(delta)
				if err != nil {
					b.Fatal(err)
				}
				sol, err := sess.Resolve()
				if err != nil {
					b.Fatal(err)
				}
				resolved += sol.ResolvedFragments
				if err := sess.Remove(id); err != nil {
					b.Fatal(err)
				}
				if sol, err = sess.Resolve(); err != nil {
					b.Fatal(err)
				}
				resolved += sol.ResolvedFragments
			}
			b.ReportMetric(float64(resolved)/float64(b.N), "fragments/op")
		})
		b.Run(cfg.name+"/scratch", func(b *testing.B) {
			withDelta := NewInstance(append(append([]sched.Job(nil), jobs...), delta))
			without := NewInstance(jobs)
			// Serial, like the session it is compared with.
			scratch := cfg.solver
			scratch.Workers = 1
			for i := 0; i < b.N; i++ {
				if _, err := scratch.Solve(withDelta); err != nil {
					b.Fatal(err)
				}
				if _, err := scratch.Solve(without); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE20_HeuristicTier: the heuristic tier on instances the
// exact DP cannot serve — 100k-job stress profiles through the full
// ModeHeuristic pipeline, the ModeAuto mixed-instance path, and the
// exact tier on the largest dense fragment it can still afford, for
// contrast. Heuristic lanes report the certified
// cost/lower-bound ratio as ratio/op.
func BenchmarkE20_HeuristicTier(b *testing.B) {
	heurSolver := Solver{Mode: ModeHeuristic}
	for _, prof := range []string{workload.ProfileBursty, workload.ProfileDense} {
		rng := rand.New(rand.NewSource(20))
		in, err := workload.Stress(rng, prof, 100_000, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("heuristic/"+prof+"-100k", func(b *testing.B) {
			ratio := 0.0
			for i := 0; i < b.N; i++ {
				sol, err := heurSolver.Solve(in)
				if err != nil {
					b.Fatal(err)
				}
				ratio += float64(sol.Spans) / sol.LowerBound
			}
			b.ReportMetric(ratio/float64(b.N), "ratio/op")
		})
	}
	b.Run("auto-mixed/derived-budget", func(b *testing.B) {
		rng := rand.New(rand.NewSource(20))
		var jobs []sched.Job
		for c := 0; c < 12; c++ {
			for k := 0; k < 8; k++ {
				r := c*200 + k + rng.Intn(3)
				jobs = append(jobs, sched.Job{Release: r, Deadline: r + 2 + rng.Intn(4)})
			}
		}
		// The default budget solves the n=800 single-processor fragment
		// exactly (BenchmarkE21_BoundedExact covers that route), so the
		// budget is the largest estimate among the small clusters: they
		// stay exact while the big fragment goes to the heuristic.
		for _, j := range workload.StressDense(rng, 800, 1).Jobs {
			jobs = append(jobs, sched.Job{Release: j.Release + 2400, Deadline: j.Deadline + 2400})
		}
		in := NewInstance(jobs)
		budget := 0
		for _, sub := range prep.ForGaps(in).Subs {
			if len(sub.Instance.Jobs) < 100 {
				budget = max(budget, prep.StateEstimate(sub.Instance))
			}
		}
		auto := Solver{Mode: ModeAuto, StateBudget: budget}
		for i := 0; i < b.N; i++ {
			sol, err := auto.Solve(in)
			if err != nil {
				b.Fatal(err)
			}
			if sol.HeuristicFragments == 0 {
				b.Fatal("mixed instance never used the heuristic tier")
			}
		}
	})
	b.Run("exact-wall/dense/n=400", func(b *testing.B) {
		rng := rand.New(rand.NewSource(20))
		in := workload.StressDense(rng, 400, 2)
		states := 0
		for i := 0; i < b.N; i++ {
			sol, err := Solver{}.Solve(in)
			if err != nil {
				b.Fatal(err)
			}
			states += sol.States
		}
		b.ReportMetric(float64(states)/float64(b.N), "states/op")
	})
}

// BenchmarkE21_BoundedExact: the branch-and-bound exact tier on the
// E20 exact-wall dense class. The bounded lanes are the production
// default (greedy incumbent + admissible node bounds); the unpruned
// lanes ablate pruning via Options.NoPrune and must report the same
// cost. The auto-admitted lanes are workloads the default StateBudget
// sends to the exact tier: a dense n=400 fragment admitted by the
// pruning-discounted index-space estimate, and a mixed instance whose
// dense single-processor n=2000 fragment is admitted by the
// single-processor estimate G·(n+1). Both assert the certificate (zero
// heuristic fragments) so a regression in admission fails loudly
// rather than silently benching the heuristic.
func BenchmarkE21_BoundedExact(b *testing.B) {
	for _, n := range []int{400, 800} {
		rng := rand.New(rand.NewSource(21))
		in := workload.StressDense(rng, n, 2)
		name := "dense/n=" + strconv.Itoa(n)
		b.Run("bounded/"+name, func(b *testing.B) {
			expanded := 0
			for i := 0; i < b.N; i++ {
				res, err := core.SolveGapsOpt(in, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				expanded += res.ExpandedStates
			}
			b.ReportMetric(float64(expanded)/float64(b.N), "expanded/op")
		})
		b.Run("unpruned/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.SolveGapsOpt(in, core.Options{NoPrune: true})
				if err != nil {
					b.Fatal(err)
				}
				if res.PrunedStates != 0 {
					b.Fatal("NoPrune solve reported pruned states")
				}
			}
		})
	}
	b.Run("auto-admitted/dense/n=400", func(b *testing.B) {
		rng := rand.New(rand.NewSource(21))
		in := NewInstance(workload.StressDense(rng, 400, 1).Jobs)
		auto := Solver{Mode: ModeAuto}
		for i := 0; i < b.N; i++ {
			sol, err := auto.Solve(in)
			if err != nil {
				b.Fatal(err)
			}
			if sol.HeuristicFragments != 0 {
				b.Fatal("discounted admission no longer keeps n=400 dense exact")
			}
		}
	})
	b.Run("auto-admitted/mixed/n=2000", func(b *testing.B) {
		rng := rand.New(rand.NewSource(23))
		var jobs []sched.Job
		for c := 0; c < 8; c++ {
			for k := 0; k < 6; k++ {
				r := c*200 + k + rng.Intn(3)
				jobs = append(jobs, sched.Job{Release: r, Deadline: r + 2 + rng.Intn(4)})
			}
		}
		for _, j := range workload.StressDense(rng, 2000, 1).Jobs {
			jobs = append(jobs, sched.Job{Release: j.Release + 1600, Deadline: j.Deadline + 1600})
		}
		in := NewInstance(jobs)
		auto := Solver{Mode: ModeAuto}
		for i := 0; i < b.N; i++ {
			sol, err := auto.Solve(in)
			if err != nil {
				b.Fatal(err)
			}
			if sol.HeuristicFragments != 0 {
				b.Fatal("single-processor admission no longer keeps n=2000 dense exact")
			}
		}
	})
}

// BenchmarkE22_OnlineTier: the online streaming tier end to end —
// release-ordered Adds through an OpenOnline session plus the final
// mirror resolve that measures the competitive ratio. Lanes cover the
// adversarial Ω(n) family, heuristic-scale stress streams, and the
// ski-rental power-down family; each reports the measured ratio as
// ratio/op and fails loudly if it leaves its analytic range.
func BenchmarkE22_OnlineTier(b *testing.B) {
	stream := func(b *testing.B, s Solver, in Instance) Solution {
		b.Helper()
		jobs := append([]sched.Job(nil), in.Jobs...)
		sort.SliceStable(jobs, func(x, y int) bool { return jobs[x].Release < jobs[y].Release })
		ss, err := s.OpenOnline(in.Procs)
		if err != nil {
			b.Fatal(err)
		}
		defer ss.Close()
		for _, j := range jobs {
			if _, err := ss.Add(j); err != nil {
				b.Fatal(err)
			}
		}
		sol, err := ss.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		return sol
	}
	b.Run("adversarial/n=32", func(b *testing.B) {
		in := workload.OnlineLowerBound(32)
		ratio := 0.0
		for i := 0; i < b.N; i++ {
			sol := stream(b, Solver{}, Instance{Jobs: in.Jobs, Procs: in.Procs})
			if sol.Spans != 32 {
				b.Fatalf("online run has %d spans, want 32", sol.Spans)
			}
			ratio += sol.CompetitiveRatio
		}
		b.ReportMetric(ratio/float64(b.N), "ratio/op")
	})
	for _, prof := range []string{workload.ProfileBursty, workload.ProfileSparse} {
		rng := rand.New(rand.NewSource(22))
		in, err := workload.Stress(rng, prof, 4000, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("stream/"+prof+"-4k", func(b *testing.B) {
			ratio := 0.0
			for i := 0; i < b.N; i++ {
				sol := stream(b, Solver{}, Instance{Jobs: in.Jobs, Procs: in.Procs})
				if sol.CompetitiveRatio < 1-1e-12 {
					b.Fatalf("measured ratio %v < 1", sol.CompetitiveRatio)
				}
				ratio += sol.CompetitiveRatio
			}
			b.ReportMetric(ratio/float64(b.N), "ratio/op")
		})
	}
	b.Run("powerdown/alpha=2/period=6", func(b *testing.B) {
		rng := rand.New(rand.NewSource(22))
		in := workload.Periodic(rng, 200, 6, 0, 0)
		s := Solver{Objective: ObjectivePower, Alpha: 2}
		bound := powerdown.CompetitiveRatio(powerdown.Threshold{Tau: 2}, 2, 5)
		ratio := 0.0
		for i := 0; i < b.N; i++ {
			sol := stream(b, s, Instance{Jobs: in.Jobs, Procs: in.Procs})
			if sol.CompetitiveRatio > bound+1e-9 {
				b.Fatalf("measured ratio %v exceeds analytic bound %v", sol.CompetitiveRatio, bound)
			}
			ratio += sol.CompetitiveRatio
		}
		b.ReportMetric(ratio/float64(b.N), "ratio/op")
	})
}

// BenchmarkE15_GridAblation: anchor grid vs full-horizon grid on a
// sparse instance.
func BenchmarkE15_GridAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	in := workload.FeasibleOneInterval(rng, 8, 1, 240, 4)
	b.Run("anchor-grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveGapsOpt(in, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveGapsOpt(in, core.Options{FullGrid: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsOverhead: cost of the observability layer on the two
// hottest facade paths — the E1 single-instance exact solve and the
// E17 cache-shared batch — bare versus under a context-attached trace.
// The always-on Timings accounting is included in both variants; the
// traced variants add per-stage span recording plus one trace
// setup/finish per op, which is the daemon's per-dispatch shape. The
// histogram sub-benchmark pins the cost of one Observe, the unit the
// service pays per request and per fragment.
func BenchmarkObsOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	one := workload.FeasibleOneInterval(rng, 8, 2, 12, 4)
	rng = rand.New(rand.NewSource(17))
	distinct := make([]Instance, 8)
	for i := range distinct {
		distinct[i] = workload.FeasibleOneInterval(rng, 10, 2, 30, 5)
	}
	batch := make([]Instance, 64)
	for i := range batch {
		batch[i] = distinct[rng.Intn(len(distinct))]
	}
	b.Run("solve/bare", func(b *testing.B) {
		s := Solver{}
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(one); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve/traced", func(b *testing.B) {
		s := Solver{}
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench")
			if _, err := s.SolveContext(obs.With(context.Background(), tr), one); err != nil {
				b.Fatal(err)
			}
			tr.Finish(nil)
		}
	})
	b.Run("batch/bare", func(b *testing.B) {
		s := Solver{Cache: NewFragmentCache(1 << 12)}
		for i := 0; i < b.N; i++ {
			for _, r := range s.SolveBatch(batch) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	b.Run("batch/traced", func(b *testing.B) {
		s := Solver{Cache: NewFragmentCache(1 << 12)}
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench")
			for _, r := range s.SolveBatchContext(obs.With(context.Background(), tr), batch) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
			tr.Finish(nil)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		var h obs.Histogram
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i))
		}
	})
}
