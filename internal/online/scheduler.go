package online

// The online scheduling tier: a Scheduler commits each time unit's
// decisions irrevocably as jobs arrive in release order. Scheduling is
// eager EDF — the only feasibility-safe rule for one-interval unit
// jobs (§1) — and the per-processor power-down decisions follow the
// α-threshold ski-rental rule of internal/powerdown, generalized to
// the multi-job setting in the spirit of Chen–Kao–Lee–Rutter–Wagner:
// after each busy unit a processor stays active for up to τ = α idle
// units and then sleeps, paying α again at its next wake-up. The
// committed prefix is never revisited; projections and
// competitive-ratio measurement against the offline optimum of the
// revealed prefix live in the facade (gapsched.Solver.OpenOnline).

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/powerdown"
	"repro/internal/sched"
)

// ErrReleaseOrder rejects arrivals that violate the online contract:
// every Step's now must be non-decreasing and every arrival must be
// released at or after the now it is revealed at.
var ErrReleaseOrder = errors.New("online: arrival out of release order")

// Config configures a Scheduler.
type Config struct {
	// Procs is the processor count (0 = 1).
	Procs int
	// Alpha is the sleep→active transition cost, used by the power
	// objective and as the ski-rental threshold: a processor stays
	// active through the first Alpha idle units after a busy unit, then
	// sleeps (the classic 2-competitive choice). Must be non-negative.
	Alpha float64
	// Power selects the power objective (busy units + α per wake-up +
	// threshold-priced idle periods); false counts spans.
	Power bool
}

// Commitment is one irrevocably committed busy time unit: Jobs[q] is
// the id of the job executed on processor q at Time (len(Jobs) ≤
// procs; idle processors are not listed).
type Commitment struct {
	Time int
	Jobs []int
}

// Projection is a simulated run-out of the revealed jobs from the
// current committed prefix: the schedule the scheduler would commit if
// no further job arrived. The committed prefix of the projection is
// exact; assignments beyond the frontier may change as later arrivals
// are revealed.
type Projection struct {
	// Schedule covers every revealed job, in id order.
	Schedule sched.Schedule
	// Spans and Energy are the full run-out's online accounting; Cost
	// is whichever of the two the configured objective selects.
	Spans  int
	Energy float64
	Cost   float64
}

// Accounting snapshots the committed prefix.
type Accounting struct {
	// Frontier is the next uncommitted time unit.
	Frontier int
	// Revealed counts the jobs revealed so far; Committed the jobs
	// irrevocably placed.
	Revealed  int
	Committed int
	// Spans and Energy are the committed prefix's online accounting
	// (idle periods are priced when they close, so a still-open trailing
	// idle run has not been charged yet); Cost is the objective's one.
	Spans  int
	Energy float64
	Cost   float64
	// Infeasible reports that some committed unit missed a deadline.
	// Online infeasibility is terminal: the job set only ever grows.
	Infeasible bool
}

// Scheduler is the commit-only online engine. Jobs are revealed with
// Step in release order and assigned ids in arrival order; every time
// unit strictly before the latest now is committed irrevocably.
// Scheduler is not safe for concurrent use — the facade Session
// serializes access.
type Scheduler struct {
	procs int
	alpha float64
	power bool

	started  bool
	now      int // latest Step watermark
	frontier int // next uncommitted time unit
	maxDl    int // largest revealed deadline

	jobs    []sched.Job        // revealed jobs, id = index
	slots   []sched.Assignment // committed assignment per job
	done    []bool             // job id → committed?
	future  []int              // uncommitted ids with Release > last admitted unit, by (Release, id)
	pending []int              // released uncommitted ids, by (Deadline, id)

	lastBusy []int  // per processor, last committed busy unit
	everBusy []bool // per processor, ever committed busy

	spans  int
	energy float64
	err    error // sticky infeasibility
}

// NewScheduler validates cfg and returns an empty scheduler.
func NewScheduler(cfg Config) (*Scheduler, error) {
	procs := cfg.Procs
	if procs == 0 {
		procs = 1
	}
	if procs < 0 {
		return nil, fmt.Errorf("online: scheduler on %d processors, need ≥ 1", procs)
	}
	if cfg.Alpha < 0 {
		return nil, fmt.Errorf("online: negative transition cost alpha %v", cfg.Alpha)
	}
	return &Scheduler{
		procs:    procs,
		alpha:    cfg.Alpha,
		power:    cfg.Power,
		lastBusy: make([]int, procs),
		everBusy: make([]bool, procs),
	}, nil
}

// Step advances committed time to now and reveals arrivals: every unit
// in [previous now, now) is committed irrevocably — eager EDF
// assignments plus the threshold power-state decisions — and the
// arrivals join the uncommitted job set with ids assigned in arrival
// order (returned positionally). now must be non-decreasing across
// calls and every arrival must satisfy Release ≥ now, so committed
// units can never be invalidated; violations return ErrReleaseOrder
// (wrapped) and change nothing.
//
// A deadline missed while committing makes the scheduler permanently
// infeasible — Err, Finish and Project report it — but Step itself
// keeps accepting revelations: the stream's job set is still
// well-defined, there is just no feasible schedule for it anymore.
func (s *Scheduler) Step(now int, arrivals []sched.Job) (ids []int, commits []Commitment, err error) {
	if s.started && now < s.now {
		return nil, nil, fmt.Errorf("%w: step at time %d after time %d", ErrReleaseOrder, now, s.now)
	}
	for _, j := range arrivals {
		if !j.Valid() {
			return nil, nil, fmt.Errorf("online: job has empty window [%d,%d]", j.Release, j.Deadline)
		}
		if j.Release < now {
			return nil, nil, fmt.Errorf("%w: job [%d,%d] revealed at time %d, after its release", ErrReleaseOrder, j.Release, j.Deadline, now)
		}
	}
	if !s.started {
		s.started = true
		s.frontier = now
	}
	s.now = now
	commits = s.advance(now)
	ids = make([]int, len(arrivals))
	for i, j := range arrivals {
		ids[i] = s.admit(j)
	}
	return ids, commits, nil
}

// admit reveals one validated job, keeping future ordered by
// (Release, id).
func (s *Scheduler) admit(j sched.Job) int {
	id := len(s.jobs)
	s.jobs = append(s.jobs, j)
	s.slots = append(s.slots, sched.Assignment{})
	s.done = append(s.done, false)
	if len(s.jobs) == 1 || j.Deadline > s.maxDl {
		s.maxDl = j.Deadline
	}
	i := sort.Search(len(s.future), func(k int) bool {
		a := s.jobs[s.future[k]]
		if a.Release != j.Release {
			return a.Release > j.Release
		}
		return s.future[k] > id
	})
	s.future = append(s.future, 0)
	copy(s.future[i+1:], s.future[i:])
	s.future[i] = id
	return id
}

// advance commits every unit in [frontier, limit). Idle stretches are
// committed in one jump — their pricing is deferred to the busy unit
// that closes them, exactly like powerdown.Threshold prices a
// completed idle period — so the cost is linear in the work, not the
// horizon.
func (s *Scheduler) advance(limit int) []Commitment {
	var out []Commitment
	for s.frontier < limit && s.err == nil {
		t := s.frontier
		s.release(t)
		if len(s.pending) == 0 {
			next := limit
			if len(s.future) > 0 {
				if r := s.jobs[s.future[0]].Release; r < next {
					next = r
				}
			}
			s.frontier = next
			continue
		}
		if s.jobs[s.pending[0]].Deadline < t {
			s.err = fmt.Errorf("%w: job %d missed deadline %d at time %d",
				ErrInfeasible, s.pending[0], s.jobs[s.pending[0]].Deadline, t)
			return out
		}
		run := min(s.procs, len(s.pending))
		cm := Commitment{Time: t, Jobs: make([]int, run)}
		for q := 0; q < run; q++ {
			id := s.pending[q]
			s.slots[id] = sched.Assignment{Proc: q, Time: t}
			s.done[id] = true
			s.accountBusy(q, t)
			cm.Jobs[q] = id
		}
		s.pending = s.pending[run:]
		out = append(out, cm)
		s.frontier = t + 1
	}
	return out
}

// release moves every future job released by t into the pending set,
// which stays ordered by (Deadline, id) — the EDF priority, with the
// same tie-break feas.EDFOneInterval uses.
func (s *Scheduler) release(t int) {
	for len(s.future) > 0 {
		id := s.future[0]
		if s.jobs[id].Release > t {
			return
		}
		s.future = s.future[1:]
		i := sort.Search(len(s.pending), func(k int) bool {
			a := s.jobs[s.pending[k]]
			if a.Deadline != s.jobs[id].Deadline {
				return a.Deadline > s.jobs[id].Deadline
			}
			return s.pending[k] > id
		})
		s.pending = append(s.pending, 0)
		copy(s.pending[i+1:], s.pending[i:])
		s.pending[i] = id
	}
}

// accountBusy charges one committed busy unit on processor q at time
// t. Spans count exactly as Schedule.Spans does; energy charges each
// closed idle period with the threshold rule, so the committed
// prefix's energy equals powerdown.EvaluateSchedule of the committed
// schedule under SkiRental, the threshold at τ = α (busy + α per
// span-opening wake-up, threshold price per gap, trailing idle free
// until it closes).
func (s *Scheduler) accountBusy(q, t int) {
	switch {
	case !s.everBusy[q]:
		s.spans++
		s.energy += s.alpha + 1
	case s.lastBusy[q] == t-1:
		s.energy++
	default:
		s.spans++
		gap := t - 1 - s.lastBusy[q]
		s.energy += powerdown.SkiRental{}.Cost(gap, s.alpha) + 1
	}
	s.everBusy[q] = true
	s.lastBusy[q] = t
}

// Finish commits the run-out: every remaining revealed job is placed
// (time jumps over idle stretches), after which the committed schedule
// covers the whole revealed set. It returns the newly committed units,
// or the sticky infeasibility error.
func (s *Scheduler) Finish() ([]Commitment, error) {
	if s.err != nil {
		return nil, s.err
	}
	var out []Commitment
	if len(s.pending) > 0 || len(s.future) > 0 {
		out = s.advance(s.maxDl + 1)
		if s.err == nil && len(s.pending) > 0 {
			// advance stopped at the horizon with work left over: those
			// jobs' deadlines have all passed. (future is empty — every
			// release is ≤ its job's deadline ≤ maxDl.)
			id := s.pending[0]
			s.err = fmt.Errorf("%w: job %d missed deadline %d at time %d",
				ErrInfeasible, id, s.jobs[id].Deadline, s.frontier)
		}
		if s.frontier > s.now {
			s.now = s.frontier
		}
	}
	return out, s.err
}

// Project simulates Finish on a copy of the scheduler: the returned
// schedule extends the committed prefix over every revealed job
// without committing anything (a later arrival may still change the
// uncommitted assignments). The error is the infeasibility verdict of
// the revealed prefix — by the standard EDF exchange argument it
// agrees with feas.FeasibleOneInterval on the revealed instance.
func (s *Scheduler) Project() (Projection, error) {
	c := s.clone()
	if _, err := c.Finish(); err != nil {
		return Projection{}, err
	}
	p := Projection{
		Schedule: sched.Schedule{Procs: c.procs, Slots: append([]sched.Assignment(nil), c.slots...)},
		Spans:    c.spans,
		Energy:   c.energy,
	}
	p.Cost = c.cost()
	return p, nil
}

func (s *Scheduler) clone() *Scheduler {
	c := *s
	c.jobs = append([]sched.Job(nil), s.jobs...)
	c.slots = append([]sched.Assignment(nil), s.slots...)
	c.done = append([]bool(nil), s.done...)
	c.future = append([]int(nil), s.future...)
	c.pending = append([]int(nil), s.pending...)
	c.lastBusy = append([]int(nil), s.lastBusy...)
	c.everBusy = append([]bool(nil), s.everBusy...)
	return &c
}

func (s *Scheduler) cost() float64 {
	if s.power {
		return s.energy
	}
	return float64(s.spans)
}

// Err returns the sticky infeasibility error, if any committed unit
// missed a deadline.
func (s *Scheduler) Err() error { return s.err }

// Watermark returns the latest Step time — the earliest release the
// next arrival may carry — or math.MinInt before the first Step.
func (s *Scheduler) Watermark() int {
	if !s.started {
		return math.MinInt
	}
	return s.now
}

// Instance snapshots the revealed job set in id order.
func (s *Scheduler) Instance() sched.Instance {
	return sched.Instance{Jobs: append([]sched.Job(nil), s.jobs...), Procs: s.procs}
}

// CommittedPrefix returns a copy of the irrevocable assignments:
// committed[id] reports whether job id is placed, slots[id] where. A
// slot, once committed, never changes — the invariant the
// FuzzOnlineCommit lane certifies.
func (s *Scheduler) CommittedPrefix() (slots []sched.Assignment, committed []bool) {
	return append([]sched.Assignment(nil), s.slots...), append([]bool(nil), s.done...)
}

// Accounting snapshots the committed prefix's counters.
func (s *Scheduler) Accounting() Accounting {
	committed := 0
	for _, d := range s.done {
		if d {
			committed++
		}
	}
	return Accounting{
		Frontier:   s.frontier,
		Revealed:   len(s.jobs),
		Committed:  committed,
		Spans:      s.spans,
		Energy:     s.energy,
		Cost:       s.cost(),
		Infeasible: s.err != nil,
	}
}
