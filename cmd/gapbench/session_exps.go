package main

// Experiment E19: incremental sessions under arrival/departure churn.
// A long-lived instance — many job clusters separated by wide
// forced-idle runs, the paper's device-traffic shape — receives a
// stream of single-job deltas (arrivals into random clusters,
// departures of random live jobs). After every delta the evolving
// optimum is obtained two ways:
//
//   - incremental: Session.Resolve, which re-solves only the fragments
//     the delta touched and reuses every other stored fragment result;
//   - from-scratch: a fresh uncached Solver.Solve of the same snapshot,
//     the way the one-shot pipeline would serve it.
//
// The table reports the per-delta time of both paths, the speedup, how
// many fragments a delta actually re-solved, and the correctness
// invariant: every incremental cost is bit-identical to the
// from-scratch cost.

import (
	"math/rand"
	"time"

	gapsched "repro"
	"repro/internal/stats"
)

func init() {
	register("E19", "Incremental sessions under churn", runE19)
}

// e19Cluster builds one cluster of jobs chained at its base time.
func e19Cluster(rng *rand.Rand, base, jobs int) []gapsched.Job {
	out := make([]gapsched.Job, jobs)
	for k := range out {
		r := base + k + rng.Intn(3)
		out[k] = gapsched.Job{Release: r, Deadline: r + 2 + rng.Intn(3)}
	}
	return out
}

// e19Churn replays deltas through a session and, per delta, a
// from-scratch solve of the same snapshot, timing both.
func e19Churn(seed int64, s gapsched.Solver, clusters, perCluster, spacing, deltas, procs int) (
	row struct {
		jobs, frags              int
		incr, scratch            time.Duration
		resolvedMean, reusedMean float64
		match                    bool
	}) {
	rng := rand.New(rand.NewSource(seed))
	sess, err := s.Open(procs)
	if err != nil {
		panic(err)
	}
	defer sess.Close()
	var live []int
	for c := 0; c < clusters; c++ {
		for _, j := range e19Cluster(rng, spacing*c, perCluster) {
			id, err := sess.Add(j)
			if err != nil {
				panic(err)
			}
			live = append(live, id)
		}
	}
	if _, err := sess.Resolve(); err != nil {
		panic(err)
	}

	scratch := s
	scratch.Cache = nil // from-scratch must not reuse anything
	scratch.Workers = 1 // sessions resolve serially; so must their reference

	row.match = true
	cost := func(sol gapsched.Solution) float64 {
		if s.Objective == gapsched.ObjectivePower {
			return sol.Power
		}
		return float64(sol.Spans)
	}
	for d := 0; d < deltas; d++ {
		if d%2 == 0 || len(live) == 0 {
			c := rng.Intn(clusters)
			id, err := sess.Add(gapsched.Job{Release: spacing*c + rng.Intn(4), Deadline: spacing*c + 4 + rng.Intn(4)})
			if err != nil {
				panic(err)
			}
			live = append(live, id)
		} else {
			i := rng.Intn(len(live))
			if err := sess.Remove(live[i]); err != nil {
				panic(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		snapshot := sess.Instance()

		t0 := time.Now()
		sol, incErr := sess.Resolve()
		row.incr += time.Since(t0)

		t0 = time.Now()
		want, scrErr := scratch.Solve(snapshot)
		row.scratch += time.Since(t0)

		if (incErr == nil) != (scrErr == nil) {
			row.match = false
			continue
		}
		if incErr == nil {
			if cost(sol) != cost(want) {
				row.match = false
			}
			row.resolvedMean += float64(sol.ResolvedFragments)
			row.reusedMean += float64(sol.ReusedFragments)
			row.frags = sol.Subinstances
		}
	}
	row.resolvedMean /= float64(deltas)
	row.reusedMean /= float64(deltas)
	row.jobs = sess.Len()
	return row
}

func runE19(cfg config) []*stats.Table {
	clusters, perCluster, deltas := 16, 8, 120
	if cfg.quick {
		clusters, perCluster, deltas = 8, 5, 40
	}
	const spacing = 40 // wide forced-idle runs between clusters

	tb := stats.NewTable("objective", "procs", "jobs", "fragments", "deltas",
		"incr µs/delta", "scratch µs/delta", "speedup",
		"mean resolved", "mean reused", "costs match scratch")
	for _, m := range []struct {
		name   string
		solver gapsched.Solver
		procs  int
	}{
		{"gaps", gapsched.Solver{}, 1},
		{"gaps", gapsched.Solver{}, 2},
		{"power α=3", gapsched.Solver{Objective: gapsched.ObjectivePower, Alpha: 3}, 1},
	} {
		row := e19Churn(cfg.seed, m.solver, clusters, perCluster, spacing, deltas, m.procs)
		tb.AddRow(m.name, m.procs, row.jobs, row.frags, deltas,
			float64(row.incr.Microseconds())/float64(deltas),
			float64(row.scratch.Microseconds())/float64(deltas),
			float64(row.scratch)/float64(row.incr),
			row.resolvedMean, row.reusedMean, boolMark(row.match))
	}
	return []*stats.Table{tb}
}
