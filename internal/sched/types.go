// Package sched defines the core problem types shared by every algorithm
// in this repository: unit jobs with one-interval windows or explicit
// multi-interval time sets, single- and multi-processor instances, and
// schedules with span/gap/power accounting.
//
// Conventions (see DESIGN.md §1):
//   - Time is integral. A unit job scheduled at time t occupies exactly
//     the time unit t.
//   - The primitive objective is the number of spans (maximal busy
//     intervals), equivalently sleep→active transitions. On a single
//     machine, gaps = spans − 1.
//   - Power consumption with transition cost α is
//     activeUnits + α·(number of sleep→active transitions),
//     where the machine may stay active through a gap (bridging a gap of
//     length ℓ costs min(ℓ, α)).
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Job is a unit-length task with a one-interval execution window.
// It may be executed at any integer time t with Release ≤ t ≤ Deadline.
type Job struct {
	Release  int `json:"release"`
	Deadline int `json:"deadline"`
}

// Valid reports whether the job's window is non-empty.
func (j Job) Valid() bool { return j.Release <= j.Deadline }

// Window returns the number of integer times at which the job may run.
func (j Job) Window() int { return j.Deadline - j.Release + 1 }

// Contains reports whether the job may execute at time t.
func (j Job) Contains(t int) bool { return j.Release <= t && t <= j.Deadline }

func (j Job) String() string { return fmt.Sprintf("[%d,%d]", j.Release, j.Deadline) }

// Instance is a one-interval scheduling instance on p identical
// processors. Every job must be assigned a unique (processor, time) pair
// inside its window; each processor executes at most one job per time.
type Instance struct {
	Jobs  []Job `json:"jobs"`
	Procs int   `json:"procs"`
}

// NewInstance builds a single-processor instance from jobs.
func NewInstance(jobs []Job) Instance { return Instance{Jobs: jobs, Procs: 1} }

// NewMultiprocInstance builds a p-processor instance from jobs.
func NewMultiprocInstance(jobs []Job, p int) Instance { return Instance{Jobs: jobs, Procs: p} }

// N returns the number of jobs.
func (in Instance) N() int { return len(in.Jobs) }

// Validate checks structural sanity: at least one processor and
// non-empty windows for every job.
func (in Instance) Validate() error {
	if in.Procs < 1 {
		return fmt.Errorf("sched: instance has %d processors, need ≥ 1", in.Procs)
	}
	for i, j := range in.Jobs {
		if !j.Valid() {
			return fmt.Errorf("sched: job %d has empty window [%d,%d]", i, j.Release, j.Deadline)
		}
	}
	return nil
}

// TimeHorizon returns the smallest release and largest deadline.
// For an empty instance it returns (0, -1).
func (in Instance) TimeHorizon() (lo, hi int) {
	if len(in.Jobs) == 0 {
		return 0, -1
	}
	lo, hi = in.Jobs[0].Release, in.Jobs[0].Deadline
	for _, j := range in.Jobs[1:] {
		if j.Release < lo {
			lo = j.Release
		}
		if j.Deadline > hi {
			hi = j.Deadline
		}
	}
	return lo, hi
}

// SortedByDeadline returns job indices sorted by (deadline, release,
// index). All dynamic programs in this repository use this order.
func (in Instance) SortedByDeadline() []int {
	idx := make([]int, len(in.Jobs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		a, b := in.Jobs[idx[x]], in.Jobs[idx[y]]
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		if a.Release != b.Release {
			return a.Release < b.Release
		}
		return idx[x] < idx[y]
	})
	return idx
}

// Assignment places one job: processor Proc (0-based) at time Time.
type Assignment struct {
	Proc int `json:"proc"`
	Time int `json:"time"`
}

// Schedule assigns every job of an instance to a (processor, time) pair.
// Entry i corresponds to job i of the originating instance.
type Schedule struct {
	Procs int          `json:"procs"`
	Slots []Assignment `json:"slots"`
}

// Clone returns a deep copy of the schedule.
func (s Schedule) Clone() Schedule {
	out := Schedule{Procs: s.Procs, Slots: make([]Assignment, len(s.Slots))}
	copy(out.Slots, s.Slots)
	return out
}

// Validate checks the schedule against the instance: one assignment per
// job, times within windows, processors in range, no two jobs sharing a
// (processor, time) slot.
func (s Schedule) Validate(in Instance) error {
	if err := s.checkShape(in); err != nil {
		return err
	}
	used := make(map[Assignment]int, len(s.Slots))
	for i, a := range s.Slots {
		if err := s.checkSlot(in, i); err != nil {
			return err
		}
		if prev, dup := used[a]; dup {
			return fmt.Errorf("sched: jobs %d and %d share slot (proc %d, time %d)", prev, i, a.Proc, a.Time)
		}
		used[a] = i
	}
	return nil
}

// CheckSlots is Validate without the pairwise check: one assignment
// per job, processors in range and times within windows, in one pass
// that allocates nothing. It suffices for a schedule whose jobs cannot
// collide by construction, such as one assembled from validated
// schedules of instances whose windows are disjoint.
func (s Schedule) CheckSlots(in Instance) error {
	if err := s.checkShape(in); err != nil {
		return err
	}
	for i := range s.Slots {
		if err := s.checkSlot(in, i); err != nil {
			return err
		}
	}
	return nil
}

// checkShape checks the slot and processor counts against in.
func (s Schedule) checkShape(in Instance) error {
	if len(s.Slots) != len(in.Jobs) {
		return fmt.Errorf("sched: schedule has %d slots for %d jobs", len(s.Slots), len(in.Jobs))
	}
	if s.Procs != in.Procs {
		return fmt.Errorf("sched: schedule has %d procs, instance has %d", s.Procs, in.Procs)
	}
	return nil
}

// checkSlot checks job i's assignment: its processor in range, its
// time in the job's window.
func (s Schedule) checkSlot(in Instance, i int) error {
	a := s.Slots[i]
	if a.Proc < 0 || a.Proc >= s.Procs {
		return fmt.Errorf("sched: job %d on processor %d out of range [0,%d)", i, a.Proc, s.Procs)
	}
	if !in.Jobs[i].Contains(a.Time) {
		return fmt.Errorf("sched: job %d at time %d outside window %v", i, a.Time, in.Jobs[i])
	}
	return nil
}

// Profile returns the occupancy profile of the schedule: a map from time
// to the number of jobs executing at that time (across all processors).
func (s Schedule) Profile() map[int]int {
	prof := make(map[int]int)
	for _, a := range s.Slots {
		prof[a.Time]++
	}
	return prof
}

// BusyRows returns the sorted busy times of each processor that runs a
// job, in ascending processor order: BusyTimes without its idle rows.
// Its size follows the slots, not Procs, so the cost functions that sum
// over it stay bounded however many processors a schedule declares.
func (s Schedule) BusyRows() [][]int {
	hi := 0
	for _, a := range s.Slots {
		hi = max(hi, a.Proc+1)
	}
	if hi > len(s.Slots) {
		// Processor ids beyond the slot count: group by sorting instead
		// of by index.
		slots := slices.Clone(s.Slots)
		slices.SortFunc(slots, func(a, b Assignment) int {
			return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Time, b.Time))
		})
		var rows [][]int
		for i, a := range slots {
			if i == 0 || a.Proc != slots[i-1].Proc {
				rows = append(rows, nil)
			}
			rows[len(rows)-1] = append(rows[len(rows)-1], a.Time)
		}
		return rows
	}
	// One array holds the hi+1 row offsets and then every time, so the
	// rows cost two allocations however many processors run.
	buf := make([]int, hi+1+len(s.Slots))
	off, times := buf[:hi+1], buf[hi+1:]
	for _, a := range s.Slots {
		off[a.Proc+1]++
	}
	busy := 0
	for q := 1; q <= hi; q++ {
		if off[q] > 0 {
			busy++
		}
		off[q] += off[q-1]
	}
	// off[q] is where processor q's times start; placing them moves it
	// to where they end.
	for _, a := range s.Slots {
		times[off[a.Proc]] = a.Time
		off[a.Proc]++
	}
	rows := make([][]int, 0, busy)
	start := 0
	for _, end := range off[:hi] {
		if end > start {
			ts := times[start:end:end]
			slices.Sort(ts)
			rows = append(rows, ts)
		}
		start = end
	}
	return rows
}

// minShownProcs is the fewest processors BusyTimes shows, busy or not,
// on a machine that has them: a small machine renders in full even
// when it runs fewer jobs than it has processors.
const minShownProcs = 8

// BusyTimes returns the rows for rendering a schedule processor by
// processor: times[r] lists the sorted busy times of processor
// procs[r], in ascending processor order. The rows are the first
// min(Procs, max(n, 8)) processors of an n-job schedule and every other
// processor that runs a job, so there are at most 2n of them however
// many processors the schedule declares; the Procs − len(procs)
// processors left out run nothing. BusyRows serves computations.
func (s Schedule) BusyTimes() (procs []int, times [][]int) {
	shown := min(s.Procs, max(len(s.Slots), minShownProcs))
	procs = make([]int, shown)
	for q := range procs {
		procs[q] = q
	}
	for _, a := range s.Slots {
		if a.Proc >= shown {
			procs = append(procs, a.Proc)
		}
	}
	slices.Sort(procs[shown:])
	procs = slices.Compact(procs)
	times = make([][]int, len(procs))
	for _, a := range s.Slots {
		r := a.Proc
		if r >= shown {
			r, _ = slices.BinarySearch(procs, a.Proc)
		}
		times[r] = append(times[r], a.Time)
	}
	for _, ts := range times {
		slices.Sort(ts)
	}
	return procs, times
}
