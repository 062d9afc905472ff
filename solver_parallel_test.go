package gapsched

// Tests for Solve's worker rule: the rule itself, bit-identical results
// at every worker count on instances on both sides of the rule's
// threshold, and cancellation of a solve that runs on several workers.
// CI runs them repeatedly under the race detector.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestSolveWorkersRule(t *testing.T) {
	const j = solveJobsPerWorker
	for _, c := range []struct{ pool, jobs, want int }{
		{4, 0, 1},       // empty instance
		{4, 1, 1},       // tiny
		{4, 2*j - 1, 1}, // one share, not yet two
		{4, 2 * j, 2},   // two shares
		{4, 3*j + 7, 3}, // shares round down
		{4, 100 * j, 4}, // capped at the pool
		{1, 100 * j, 1}, // a one-worker pool stays serial
		{16, 5 * j, 5},  // pool larger than the shares
	} {
		if got := solveWorkers(c.pool, c.jobs); got != c.want {
			t.Errorf("solveWorkers(%d, %d) = %d, want %d", c.pool, c.jobs, got, c.want)
		}
	}
	if got := (Solver{}).pool(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero Workers resolves to %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Solver{Workers: -3}).pool(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative Workers resolves to %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Solver{Workers: 3}).pool(); got != 3 {
		t.Errorf("Workers 3 resolves to %d", got)
	}
}

// manyFragments builds an instance of at least n jobs on procs
// processors from small clusters placed 100 apart, so prep splits it
// into many fragments. The clusters come from a pool of four shapes,
// so fragments repeat (cache hits and singleflight waits within one
// solve); with infeasible set, one cluster somewhere in the instance
// cannot be scheduled.
func manyFragments(rng *rand.Rand, n, procs int, infeasible bool) Instance {
	pool := make([]Instance, 4)
	for i := range pool {
		pool[i] = workload.FeasibleOneInterval(rng, 1+rng.Intn(8), procs, 10, 4)
	}
	var clusters []Instance
	for size := 0; size < n; {
		c := pool[rng.Intn(len(pool))]
		clusters = append(clusters, c)
		size += len(c.Jobs)
	}
	if infeasible {
		bad := make([]Job, procs+1)
		for i := range bad {
			bad[i] = Job{Release: 2, Deadline: 2}
		}
		clusters[rng.Intn(len(clusters))] = Instance{Jobs: bad}
	}
	var jobs []Job
	for c, cl := range clusters {
		for _, j := range cl.Jobs {
			jobs = append(jobs, Job{Release: j.Release + 100*c, Deadline: j.Deadline + 100*c})
		}
	}
	return NewMultiprocInstance(jobs, procs)
}

// TestParallelSolveMatchesSerial: Solve at Workers 0, 1, 2 and 4 agrees
// in every Solution field but Timings — CacheHits included, since
// within one instance singleflight waiters count as hits — across both
// objectives, the three modes, a fresh cache that holds the whole
// instance or none, on instances below the rule's threshold (one worker
// whatever the pool) and above it (up to sixteen workers' shares).
// Infeasible instances fail with the same error at every worker count.
func TestParallelSolveMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const j = solveJobsPerWorker
	var ins []Instance
	for i, n := range []int{j / 2, 2*j - 1, 2 * j, 3 * j, 4*j + j/2, 5 * j, 16 * j} {
		ins = append(ins, manyFragments(rng, n, 1+i%2, i%3 == 2))
	}
	failed, solved := 0, 0
	for _, obj := range []Objective{ObjectiveGaps, ObjectivePower} {
		for _, mode := range []Mode{ModeExact, ModeHeuristic, ModeAuto} {
			for _, cacheSize := range []int{0, 1 << 16} {
				base := Solver{Objective: obj, Alpha: 2, Mode: mode}
				if mode == ModeAuto {
					base.StateBudget = 40
				}
				for i, in := range ins {
					serial := withFreshCache(base, cacheSize)
					serial.Workers = 1
					want, wantErr := serial.Solve(in)
					if wantErr != nil {
						if !errors.Is(wantErr, ErrInfeasible) {
							t.Fatalf("%+v instance %d: serial error %v, want ErrInfeasible", base, i, wantErr)
						}
						failed++
					} else {
						solved++
					}
					want.Timings = Timings{}
					for _, workers := range []int{0, 2, 4} {
						s := withFreshCache(base, cacheSize)
						s.Workers = workers
						got, err := s.Solve(in)
						if (wantErr == nil) != (err == nil) || wantErr != nil && wantErr.Error() != err.Error() {
							t.Fatalf("%+v cache %d workers %d instance %d: err %v, serial err %v",
								base, cacheSize, workers, i, err, wantErr)
						}
						got.Timings = Timings{}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%+v cache %d workers %d instance %d:\ngot    %+v\nserial %+v",
								base, cacheSize, workers, i, got, want)
						}
					}
				}
			}
		}
	}
	if failed == 0 || solved == 0 {
		t.Fatalf("%d solves failed and %d succeeded: want both", failed, solved)
	}
}

// TestParallelSolveCanceled: on an instance large enough for several
// workers, a context canceled before the call fails every worker count
// with a wrapped context.Canceled, and a deadline that expires during
// the solve yields either a wrapped context.DeadlineExceeded or the
// complete serial answer, never a partial one.
func TestParallelSolveCanceled(t *testing.T) {
	in := manyFragments(rand.New(rand.NewSource(19)), 8*solveJobsPerWorker, 2, false)
	s := Solver{Objective: ObjectivePower, Alpha: 2, Workers: 1}
	want, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	want.Timings = Timings{}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 2, 4} {
		s.Workers = workers
		_, err := s.SolveContext(canceled, in)
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "gapsched: solve aborted") {
			t.Fatalf("workers %d, canceled context: got %v, want a wrapped context.Canceled", workers, err)
		}
	}

	for _, workers := range []int{0, 2, 4} {
		s.Workers = workers
		for _, d := range []time.Duration{0, 20 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond, time.Minute} {
			ctx, cancel := context.WithTimeout(context.Background(), d)
			got, err := s.SolveContext(ctx, in)
			cancel()
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("workers %d, deadline %v: got %v, want a wrapped context.DeadlineExceeded", workers, d, err)
				}
				if d == time.Minute {
					t.Fatalf("workers %d: a one-minute deadline expired: %v", workers, err)
				}
				continue
			}
			if d == 0 {
				t.Fatalf("workers %d: an expired deadline returned a solution", workers)
			}
			got.Timings = Timings{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers %d, deadline %v: partial or different answer\ngot    %+v\nserial %+v", workers, d, got, want)
			}
		}
	}
}
