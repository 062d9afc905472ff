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

// releaseSorted returns in with jobs reordered by (Release, Deadline,
// index): the arrival order an online stream reveals them in. Feeding
// the sorted instance keeps online ids equal to instance indices.
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

// stream reveals in's jobs (already release-sorted) grouped by release
// time, then finishes the run-out.
func stream(t *testing.T, s *Scheduler, in sched.Instance) error {
	t.Helper()
	for i := 0; i < len(in.Jobs); {
		k := i
		for k < len(in.Jobs) && in.Jobs[k].Release == in.Jobs[i].Release {
			k++
		}
		ids, _, err := s.Step(in.Jobs[i].Release, in.Jobs[i:k])
		if err != nil {
			t.Fatalf("Step(%d): %v", in.Jobs[i].Release, err)
		}
		for q, id := range ids {
			if id != i+q {
				t.Fatalf("Step assigned id %d to arrival %d, want %d", id, i+q, i+q)
			}
		}
		i = k
	}
	_, err := s.Finish()
	return err
}

// TestSchedulerMatchesEDF: a full online run over a release-sorted
// stream commits exactly the schedule the offline eager-EDF oracle
// builds — slot for slot — and agrees with the feasibility oracle.
func TestSchedulerMatchesEDF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		p := 1 + rng.Intn(3)
		in := releaseSorted(workload.Multiproc(rng, n, p, 1+rng.Intn(30), 1+rng.Intn(6)))
		s, err := NewScheduler(Config{Procs: p})
		if err != nil {
			t.Fatal(err)
		}
		err = stream(t, s, in)
		want, feasible := feas.EDFOneInterval(in)
		if feasible != (err == nil) {
			t.Fatalf("trial %d: online err=%v, offline EDF feasible=%v\ninstance %+v", trial, err, feasible, in)
		}
		if !feasible {
			if !errors.Is(err, ErrInfeasible) || !errors.Is(s.Err(), ErrInfeasible) {
				t.Fatalf("trial %d: infeasible run reported %v (Err %v)", trial, err, s.Err())
			}
			if !exact.HallFeasible(in) {
				continue
			}
			t.Fatalf("trial %d: EDF oracle and Hall oracle disagree", trial)
		}
		slots, done := s.CommittedPrefix()
		for i := range in.Jobs {
			if !done[i] {
				t.Fatalf("trial %d: job %d uncommitted after Finish", trial, i)
			}
			if slots[i] != want.Slots[i] {
				t.Fatalf("trial %d: job %d at %+v, EDF oracle says %+v", trial, i, slots[i], want.Slots[i])
			}
		}
		got := sched.Schedule{Procs: p, Slots: slots}
		if err := got.Validate(in); err != nil {
			t.Fatalf("trial %d: committed schedule invalid: %v", trial, err)
		}
		if acct := s.Accounting(); acct.Spans != got.Spans() {
			t.Fatalf("trial %d: accounted %d spans, schedule has %d", trial, acct.Spans, got.Spans())
		}
	}
}

// TestSchedulerEnergyMatchesThresholdPricing: the committed prefix's
// energy equals pricing the committed schedule's idle periods with
// powerdown.Threshold — the scheduler's incremental accounting and the
// offline evaluator never drift.
func TestSchedulerEnergyMatchesThresholdPricing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		p := 1 + rng.Intn(2)
		alpha := float64(rng.Intn(7)) / 2
		in := releaseSorted(workload.Multiproc(rng, n, p, 1+rng.Intn(40), 1+rng.Intn(5)))
		s, err := NewScheduler(Config{Procs: p, Alpha: alpha, Power: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := stream(t, s, in); err != nil {
			continue
		}
		slots, _ := s.CommittedPrefix()
		got := sched.Schedule{Procs: p, Slots: slots}
		want := powerdown.EvaluateSchedule(got, alpha, powerdown.Threshold{Tau: alpha}).Total
		if acct := s.Accounting(); acct.Energy != want {
			t.Fatalf("trial %d (α=%v): accounted energy %v, threshold evaluation %v", trial, alpha, acct.Energy, want)
		}
	}
}

// TestSchedulerCommitIsIrrevocable: a committed slot never changes
// across later steps, and a projection neither commits anything nor
// disturbs the prefix.
func TestSchedulerCommitIsIrrevocable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(2)
		in := releaseSorted(workload.Multiproc(rng, 1+rng.Intn(10), p, 1+rng.Intn(25), 1+rng.Intn(5)))
		s, err := NewScheduler(Config{Procs: p})
		if err != nil {
			t.Fatal(err)
		}
		prevSlots, prevDone := s.CommittedPrefix()
		for i, j := range in.Jobs {
			if _, _, err := s.Step(j.Release, []sched.Job{j}); err != nil {
				t.Fatalf("Step: %v", err)
			}
			if _, err := s.Project(); err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("Project: %v", err)
			}
			slots, done := s.CommittedPrefix()
			for k := range prevDone {
				if prevDone[k] && (!done[k] || slots[k] != prevSlots[k]) {
					t.Fatalf("trial %d: commitment of job %d mutated after arrival %d", trial, k, i)
				}
			}
			prevSlots, prevDone = slots, done
		}
	}
}

// TestSchedulerIdleSkip: a huge release jump costs no time — the
// frontier jumps over the idle stretch and the gap is priced once when
// it closes.
func TestSchedulerIdleSkip(t *testing.T) {
	s, err := NewScheduler(Config{Alpha: 2, Power: true})
	if err != nil {
		t.Fatal(err)
	}
	far := 1 << 40
	if _, _, err := s.Step(0, []sched.Job{{Release: 0, Deadline: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Step(far, []sched.Job{{Release: far, Deadline: far}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	acct := s.Accounting()
	if acct.Spans != 2 || acct.Committed != 2 {
		t.Fatalf("accounting %+v, want 2 spans / 2 committed", acct)
	}
	// busy 2 + first wake α + one closed gap at the threshold price τ+α.
	if want := 2.0 + 2 + (2 + 2); acct.Energy != want {
		t.Fatalf("energy %v, want %v", acct.Energy, want)
	}
}

// TestSchedulerStepMisuse: time regressions and pre-release arrivals
// are rejected with ErrReleaseOrder and change nothing; invalid
// windows are rejected.
func TestSchedulerStepMisuse(t *testing.T) {
	s, err := NewScheduler(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Step(5, []sched.Job{{Release: 5, Deadline: 6}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Step(3, nil); !errors.Is(err, ErrReleaseOrder) {
		t.Fatalf("time regression: got %v", err)
	}
	if _, _, err := s.Step(7, []sched.Job{{Release: 6, Deadline: 9}}); !errors.Is(err, ErrReleaseOrder) {
		t.Fatalf("pre-release arrival: got %v", err)
	}
	if _, _, err := s.Step(7, []sched.Job{{Release: 9, Deadline: 8}}); err == nil || errors.Is(err, ErrReleaseOrder) {
		t.Fatalf("empty window: got %v", err)
	}
	if acct := s.Accounting(); acct.Revealed != 1 {
		t.Fatalf("rejected arrivals were admitted: %+v", acct)
	}
	if s.Watermark() != 5 {
		t.Fatalf("watermark %d, want 5", s.Watermark())
	}
}

// TestSchedulerInfeasibleIsSticky: a missed deadline is terminal —
// Finish and Project keep reporting it — but revelation continues.
func TestSchedulerInfeasibleIsSticky(t *testing.T) {
	s, err := NewScheduler(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Two unit jobs at time 0 on one processor: the second must miss.
	if _, _, err := s.Step(0, []sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Step(10, nil); err != nil {
		t.Fatalf("Step after miss must keep accepting revelations: %v", err)
	}
	if !errors.Is(s.Err(), ErrInfeasible) {
		t.Fatalf("Err() = %v, want ErrInfeasible", s.Err())
	}
	if _, err := s.Project(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Project after miss: %v", err)
	}
	if ids, _, err := s.Step(10, []sched.Job{{Release: 10, Deadline: 12}}); err != nil || len(ids) != 1 {
		t.Fatalf("arrival after miss: ids=%v err=%v", ids, err)
	}
	if _, err := s.Finish(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Finish after miss: %v", err)
	}
}

// TestSchedulerProjectExtendsPrefix: mid-stream projections cover all
// revealed jobs, validate against the revealed instance, and keep the
// committed prefix exactly.
func TestSchedulerProjectExtendsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(2)
		in := releaseSorted(workload.FeasibleOneInterval(rng, 1+rng.Intn(10), p, 1+rng.Intn(25), 2+rng.Intn(5)))
		s, err := NewScheduler(Config{Procs: p})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range in.Jobs {
			if _, _, err := s.Step(j.Release, []sched.Job{j}); err != nil {
				t.Fatalf("Step: %v", err)
			}
			proj, err := s.Project()
			if err != nil {
				// Feasible instance, arrivals at release: EDF never misses.
				t.Fatalf("trial %d: projection infeasible on feasible stream: %v", trial, err)
			}
			if err := proj.Schedule.Validate(s.Instance()); err != nil {
				t.Fatalf("trial %d: projection invalid: %v", trial, err)
			}
			slots, done := s.CommittedPrefix()
			for id, d := range done {
				if d && proj.Schedule.Slots[id] != slots[id] {
					t.Fatalf("trial %d: projection moved committed job %d", trial, id)
				}
			}
		}
	}
}

func TestNewSchedulerValidation(t *testing.T) {
	for _, cfg := range []Config{{Procs: -1}, {Alpha: -1}} {
		if _, err := NewScheduler(cfg); err == nil {
			t.Errorf("NewScheduler(%+v) accepted", cfg)
		}
	}
	if _, err := NewScheduler(Config{Alpha: 3}); err != nil {
		t.Fatal(err)
	}
}
