package gapsched

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/workload"
)

// hugeProcs is a processor count no per-processor table could hold.
const hugeProcs = 1 << 50

// TestHugeProcsMatchesJobCount: a job set never uses more processors
// than it has jobs, so solving it on 1<<50 processors must cost no
// per-processor work and match the solve on n processors in every
// Solution field but Schedule.Procs and Timings — on every mode and
// objective, one-shot, in sessions and online.
func TestHugeProcsMatchesJobCount(t *testing.T) {
	strip := func(sol Solution) Solution {
		sol.Schedule.Procs, sol.Timings = 0, Timings{}
		return sol
	}
	check := func(what string, s Solver, got Solution, gotErr error, want Solution, wantErr error) {
		t.Helper()
		if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(strip(got), strip(want)) {
			t.Fatalf("%s %+v at procs 1<<50: %+v (err %v); at procs = n: %+v (err %v)", what, s, got, gotErr, want, wantErr)
		}
		if gotErr == nil && got.Schedule.Procs != hugeProcs {
			t.Fatalf("%s %+v: schedule on %d processors, want 1<<50", what, s, got.Schedule.Procs)
		}
	}
	resolve := func(open func(Solver, int) (*Session, error), s Solver, procs int, jobs []Job) (Solution, error) {
		t.Helper()
		ss, err := open(s, procs)
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		if _, _, err := ss.Apply(jobs, nil); err != nil {
			t.Fatal(err)
		}
		return ss.Resolve()
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(7)
		jobs := workload.OneInterval(rng, n, 2*n, 4).Jobs
		arrivals := append([]Job(nil), jobs...)
		sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].Release < arrivals[b].Release })
		for _, s := range []Solver{
			{},
			{Objective: ObjectivePower, Alpha: 2.5},
			{Mode: ModeHeuristic},
			{Objective: ObjectivePower, Alpha: 1.5, Mode: ModeHeuristic},
			{Mode: ModeAuto, StateBudget: 4},
			{Objective: ObjectivePower, Alpha: 3, Mode: ModeAuto, StateBudget: 4},
		} {
			got, gotErr := s.Solve(Instance{Jobs: jobs, Procs: hugeProcs})
			want, wantErr := s.Solve(Instance{Jobs: jobs, Procs: n})
			check("Solve", s, got, gotErr, want, wantErr)

			got, gotErr = resolve(Solver.Open, s, hugeProcs, jobs)
			want, wantErr = resolve(Solver.Open, s, n, jobs)
			check("session Resolve", s, got, gotErr, want, wantErr)

			got, gotErr = resolve(Solver.OpenOnline, s, hugeProcs, arrivals)
			want, wantErr = resolve(Solver.OpenOnline, s, n, arrivals)
			check("online Resolve", s, got, gotErr, want, wantErr)
		}
	}
}
