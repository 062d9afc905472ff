package online

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/exact"
	"repro/internal/feas"
	"repro/internal/powerdown"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The online scheduler's run, as Replay derives it after every
// arrival of a release-ordered stream.

// releaseSorted returns in with jobs reordered by (Release, Deadline,
// index): the arrival order an online stream reveals them in.
func releaseSorted(in sched.Instance) sched.Instance {
	jobs := append([]sched.Job(nil), in.Jobs...)
	sort.SliceStable(jobs, func(x, y int) bool {
		if jobs[x].Release != jobs[y].Release {
			return jobs[x].Release < jobs[y].Release
		}
		return jobs[x].Deadline < jobs[y].Deadline
	})
	in.Jobs = jobs
	return in
}

// prefixRuns replays every prefix of the release-sorted instance in,
// as an online session does after each arrival: prefix k holds the
// first k+1 jobs and its watermark is the release of job k.
func prefixRuns(in sched.Instance, alpha float64, power bool) ([]Run, []error) {
	runs, errs := make([]Run, len(in.Jobs)), make([]error, len(in.Jobs))
	for k, j := range in.Jobs {
		prefix := sched.Instance{Jobs: in.Jobs[:k+1], Procs: in.Procs}
		runs[k], errs[k] = Replay(prefix, j.Release, alpha, power)
	}
	return runs, errs
}

// TestSchedulerMatchesEDF: on every prefix of a stream the run's
// verdict agrees with the Hall-condition oracle, a feasible run is the
// eager-EDF schedule of the prefix, and its gaps cost is the
// schedule's span count.
func TestSchedulerMatchesEDF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		p := 1 + rng.Intn(3)
		in := releaseSorted(workload.Multiproc(rng, n, p, 1+rng.Intn(30), 1+rng.Intn(6)))
		runs, errs := prefixRuns(in, 0, false)
		for k, run := range runs {
			prefix := sched.Instance{Jobs: in.Jobs[:k+1], Procs: p}
			if feasible := exact.HallFeasible(prefix); feasible != (errs[k] == nil) {
				t.Fatalf("trial %d prefix %d: run err=%v, Hall oracle feasible=%v\ninstance %+v", trial, k, errs[k], feasible, prefix)
			}
			if errs[k] != nil {
				if !errors.Is(errs[k], ErrInfeasible) {
					t.Fatalf("trial %d prefix %d: infeasible run reported %v", trial, k, errs[k])
				}
				continue
			}
			want, _ := feas.EDFOneInterval(prefix)
			for i := range prefix.Jobs {
				if run.Schedule.Slots[i] != want.Slots[i] {
					t.Fatalf("trial %d prefix %d: job %d at %+v, EDF oracle says %+v", trial, k, i, run.Schedule.Slots[i], want.Slots[i])
				}
			}
			if err := run.Schedule.Validate(prefix); err != nil {
				t.Fatalf("trial %d prefix %d: run invalid: %v", trial, k, err)
			}
			if run.Cost != float64(run.Schedule.Spans()) {
				t.Fatalf("trial %d prefix %d: cost %v, schedule has %d spans", trial, k, run.Cost, run.Schedule.Spans())
			}
		}
	}
}

// committed returns the part of run's schedule placed before
// watermark: the units the online scheduler has committed.
func committed(run Run, watermark int) sched.Schedule {
	s := sched.Schedule{Procs: run.Schedule.Procs}
	for _, a := range run.Schedule.Slots {
		if a.Time < watermark {
			s.Slots = append(s.Slots, a)
		}
	}
	return s
}

// TestSchedulerEnergyMatchesThresholdPricing: the run's energy, and
// that of its committed units, equal pricing the schedule's idle
// periods with powerdown.Threshold at τ = α — the commit-order sum and
// the per-processor evaluator agree exactly at dyadic α.
func TestSchedulerEnergyMatchesThresholdPricing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		p := 1 + rng.Intn(2)
		alpha := float64(rng.Intn(7)) / 2
		in := releaseSorted(workload.Multiproc(rng, n, p, 1+rng.Intn(40), 1+rng.Intn(5)))
		runs, errs := prefixRuns(in, alpha, true)
		for k, run := range runs {
			if errs[k] != nil {
				continue
			}
			threshold := powerdown.Threshold{Tau: alpha}
			if want := powerdown.EvaluateSchedule(run.Schedule, alpha, threshold).Total; run.Cost != want {
				t.Fatalf("trial %d prefix %d (α=%v): energy %v, threshold evaluation %v", trial, k, alpha, run.Cost, want)
			}
			prefix := committed(run, in.Jobs[k].Release)
			if len(prefix.Slots) != run.CommittedJobs {
				t.Fatalf("trial %d prefix %d: %d committed jobs, %d slots before the watermark", trial, k, run.CommittedJobs, len(prefix.Slots))
			}
			if want := powerdown.EvaluateSchedule(prefix, alpha, threshold).Total; run.CommittedCost != want {
				t.Fatalf("trial %d prefix %d (α=%v): committed energy %v, threshold evaluation %v", trial, k, alpha, run.CommittedCost, want)
			}
		}
	}
}

// TestSchedulerCommitIsIrrevocable: a slot placed before an arrival's
// watermark is the same in the run of every later arrival, and the
// committed counters never shrink.
func TestSchedulerCommitIsIrrevocable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(2)
		power := trial%2 == 1
		in := releaseSorted(workload.Multiproc(rng, 1+rng.Intn(10), p, 1+rng.Intn(25), 1+rng.Intn(5)))
		runs, errs := prefixRuns(in, 1.5, power)
		for k := range runs {
			if errs[k] != nil {
				continue
			}
			wm := in.Jobs[k].Release
			for m := k + 1; m < len(runs); m++ {
				if errs[m] != nil {
					continue
				}
				for i, a := range runs[k].Schedule.Slots {
					if a.Time < wm && runs[m].Schedule.Slots[i] != a {
						t.Fatalf("trial %d: job %d committed at %+v after arrival %d, at %+v after arrival %d",
							trial, i, a, k, runs[m].Schedule.Slots[i], m)
					}
				}
				if runs[m].CommittedJobs < runs[k].CommittedJobs || runs[m].CommittedCost < runs[k].CommittedCost {
					t.Fatalf("trial %d: committed %d jobs / cost %v after arrival %d, %d / %v after arrival %d",
						trial, runs[k].CommittedJobs, runs[k].CommittedCost, k, runs[m].CommittedJobs, runs[m].CommittedCost, m)
				}
			}
		}
	}
}

// TestSchedulerIdleSkip: a huge release jump costs no time — EDF jumps
// over the idle stretch and the gap is priced once, when it closes.
func TestSchedulerIdleSkip(t *testing.T) {
	far := 1 << 40
	in := sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 0}, {Release: far, Deadline: far}}, Procs: 1}
	run, err := Replay(in, far, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if spans := run.Schedule.Spans(); spans != 2 || run.CommittedJobs != 1 {
		t.Fatalf("run %+v: %d spans / %d committed, want 2 / 1", run, spans, run.CommittedJobs)
	}
	// busy 2 + first wake α + one closed gap at the threshold price τ+α.
	if want := 2.0 + 2 + (2 + 2); run.Cost != want {
		t.Fatalf("energy %v, want %v", run.Cost, want)
	}
	// Only the first unit is committed; the gap closes at the watermark.
	if want := 2.0 + 1; run.CommittedCost != want {
		t.Fatalf("committed energy %v, want %v", run.CommittedCost, want)
	}
}

// TestSchedulerInfeasibleIsSticky: once a prefix is infeasible, every
// longer prefix is too — the job set only grows.
func TestSchedulerInfeasibleIsSticky(t *testing.T) {
	// Two unit jobs at time 0 on one processor: the second must miss,
	// and a later, comfortable arrival does not rescue the stream.
	in := sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}, {Release: 10, Deadline: 12}}, Procs: 1}
	if _, errs := prefixRuns(in, 0, false); errs[0] != nil || !errors.Is(errs[1], ErrInfeasible) || !errors.Is(errs[2], ErrInfeasible) {
		t.Fatalf("prefix verdicts %v, want [nil infeasible infeasible]", errs)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		p := 1 + rng.Intn(2)
		in := releaseSorted(workload.Multiproc(rng, 1+rng.Intn(12), p, 1+rng.Intn(20), 1+rng.Intn(4)))
		_, errs := prefixRuns(in, 0, false)
		for k := 1; k < len(errs); k++ {
			if errs[k-1] != nil && errs[k] == nil {
				t.Fatalf("trial %d: prefix %d infeasible, prefix %d feasible (jobs %v)", trial, k-1, k, in.Jobs)
			}
		}
	}
}

// TestSchedulerProjectExtendsPrefix: on a feasible stream every
// arrival's run covers all revealed jobs, validates against them and
// keeps the slots the previous arrival committed.
func TestSchedulerProjectExtendsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(2)
		in := releaseSorted(workload.FeasibleOneInterval(rng, 1+rng.Intn(10), p, 1+rng.Intn(25), 2+rng.Intn(5)))
		runs, errs := prefixRuns(in, 0, false)
		for k, run := range runs {
			if errs[k] != nil {
				// Feasible instance, arrivals at release: EDF never misses.
				t.Fatalf("trial %d: run infeasible on feasible stream: %v", trial, errs[k])
			}
			prefix := sched.Instance{Jobs: in.Jobs[:k+1], Procs: p}
			if err := run.Schedule.Validate(prefix); err != nil {
				t.Fatalf("trial %d: run invalid: %v", trial, err)
			}
			if k == 0 {
				continue
			}
			for i, a := range runs[k-1].Schedule.Slots {
				if a.Time < in.Jobs[k-1].Release && run.Schedule.Slots[i] != a {
					t.Fatalf("trial %d: arrival %d moved committed job %d", trial, k, i)
				}
			}
		}
	}
}

// TestReplayEmpty: the empty prefix replays to the empty run.
func TestReplayEmpty(t *testing.T) {
	run, err := Replay(sched.Instance{Procs: 2}, 7, 3, true)
	if err != nil || run.Schedule.Procs != 2 || len(run.Schedule.Slots) != 0 || run.Cost != 0 || run.CommittedJobs != 0 {
		t.Fatalf("empty replay: %+v, %v", run, err)
	}
}
