package main

// Experiment E17: the fragment-level batch scheduler and the
// canonical-fragment solution cache. Two tables:
//
//  1. A duplicate-heavy batch — a few distinct bursty instances
//     replicated many times, the paper's recurring device-traffic
//     pattern — solved with the cache off and on. The cache must leave
//     every cost bit-identical while serving most fragments from
//     memory, several times faster in wall-clock.
//
//  2. A skewed batch — one "whale" instance carrying most of the
//     fragments plus a fleet of small ones — solved sequentially, with
//     instance-granularity parallelism (the pre-fragment-queue design,
//     emulated here), and with the fragment-level queue. Instance
//     granularity strands the whale on one worker; the fragment queue
//     spreads its fragments across the pool.

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	gapsched "repro"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E17", "Fragment cache and fragment-level batch scheduling", runE17)
}

func runE17(cfg config) []*stats.Table {
	return []*stats.Table{
		e17DuplicateHeavy(cfg),
		e17SkewScaling(cfg),
	}
}

// batchCosts extracts the per-instance objective values for exact
// comparison across schemes; errors are folded in as NaN markers.
func batchCosts(objective gapsched.Objective, res []gapsched.BatchResult) []float64 {
	costs := make([]float64, len(res))
	for i, r := range res {
		switch {
		case r.Err != nil:
			costs[i] = math.NaN()
		case objective == gapsched.ObjectivePower:
			costs[i] = r.Solution.Power
		default:
			costs[i] = float64(r.Solution.Spans)
		}
	}
	return costs
}

func costsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func e17DuplicateHeavy(cfg config) *stats.Table {
	rng := rand.New(rand.NewSource(cfg.seed))
	distinct, copies, n := 10, 12, 12
	if cfg.quick {
		distinct, copies, n = 5, 6, 8
	}
	base := make([]gapsched.Instance, distinct)
	for i := range base {
		// Bursty windows repeat local patterns; redraw until feasible so
		// the table measures solves, not feasibility rejections.
		for {
			in := workload.Bursty(rng, n, 3, 6*n, 4, 5)
			in.Procs = 2
			if gapsched.Feasible(in) {
				base[i] = in
				break
			}
		}
	}
	ins := make([]gapsched.Instance, distinct*copies)
	for i := range ins {
		ins[i] = base[i%distinct]
	}
	rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })

	tb := stats.NewTable("objective", "instances", "fragments", "cache", "cache hits", "wall ms", "speedup", "costs match uncached")
	for _, objective := range []gapsched.Objective{gapsched.ObjectiveGaps, gapsched.ObjectivePower} {
		s := gapsched.Solver{Objective: objective, Alpha: 2}
		var offCosts []float64
		var offWall float64
		for _, cacheSize := range []int{0, 1 << 14} {
			s.Cache = nil
			if cacheSize > 0 {
				s.Cache = gapsched.NewFragmentCache(cacheSize)
			}
			start := time.Now()
			batch := s.SolveBatch(ins)
			wall := float64(time.Since(start).Microseconds()) / 1000
			frags, hits := 0, 0
			for _, r := range batch {
				frags += r.Solution.Subinstances
				hits += r.Solution.CacheHits
			}
			costs := batchCosts(objective, batch)
			if cacheSize == 0 {
				offCosts, offWall = costs, wall
				tb.AddRow(objective.String(), len(ins), frags, "off", hits, wall, 1.0, boolMark(true))
				continue
			}
			tb.AddRow(objective.String(), len(ins), frags, "on", hits, wall,
				offWall/wall, boolMark(costsEqual(costs, offCosts)))
		}
	}
	return tb
}

// e17SkewScaling compares work-distribution granularities on a skewed
// batch. Instance-level parallelism is emulated with a worker pool that
// claims whole instances, exactly the shape SolveBatch had before the
// fragment queue.
func e17SkewScaling(cfg config) *stats.Table {
	clusters, small := 28, 6
	if cfg.quick {
		clusters, small = 12, 3
	}
	// The whale: many well-separated identical-size clusters, so prep
	// yields many fragments from one instance.
	var whaleJobs []gapsched.Job
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	for c := 0; c < clusters; c++ {
		base := c * 500
		for k := 0; k < 7; k++ {
			r := base + rng.Intn(8)
			whaleJobs = append(whaleJobs, gapsched.Job{Release: r, Deadline: r + 2 + rng.Intn(4)})
		}
	}
	ins := []gapsched.Instance{gapsched.NewMultiprocInstance(whaleJobs, 2)}
	for i := 0; i < small; i++ {
		ins = append(ins, workload.FeasibleOneInterval(rng, 6, 1, 12, 4))
	}

	workers := runtime.GOMAXPROCS(0)
	s := gapsched.Solver{}
	tb := stats.NewTable("scheme", "workers", "instances", "fragments", "wall ms", "speedup vs sequential", "costs match")
	var seqCosts []float64
	var seqWall float64
	for _, scheme := range []string{"sequential", "instance-level", "fragment-level"} {
		var res []gapsched.BatchResult
		start := time.Now()
		switch scheme {
		case "sequential":
			s.Workers = 1
			res = s.SolveBatch(ins)
		case "instance-level":
			// Each instance is one serial Solve: Solve would otherwise
			// spread a large instance's fragments over its own pool,
			// nesting fragment parallelism inside this instance pool.
			s.Workers = 1
			res = make([]gapsched.BatchResult, len(ins))
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(ins) {
							return
						}
						res[i].Solution, res[i].Err = s.Solve(ins[i])
					}
				}()
			}
			wg.Wait()
		case "fragment-level":
			s.Workers = workers
			res = s.SolveBatch(ins)
		}
		wall := float64(time.Since(start).Microseconds()) / 1000
		frags := 0
		for _, r := range res {
			frags += r.Solution.Subinstances
		}
		costs := batchCosts(gapsched.ObjectiveGaps, res)
		if scheme == "sequential" {
			seqCosts, seqWall = costs, wall
		}
		tb.AddRow(scheme, workers, len(ins), frags, wall, seqWall/wall, boolMark(costsEqual(costs, seqCosts)))
	}
	return tb
}
