package sched

import (
	"fmt"
	"sort"
)

// Interval is a closed integer interval [Lo, Hi].
type Interval struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of integer times in the interval.
func (iv Interval) Len() int { return iv.Hi - iv.Lo + 1 }

// Valid reports whether the interval is non-empty.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t int) bool { return iv.Lo <= t && t <= iv.Hi }

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// MultiJob is a unit-length task executable at any integer time contained
// in one of its intervals (the paper's set T_i, stored run-length
// encoded). Intervals are kept sorted and disjoint by Normalize.
type MultiJob struct {
	Intervals []Interval `json:"intervals"`
}

// NewMultiJob builds a job from intervals, normalizing them.
func NewMultiJob(ivs ...Interval) MultiJob {
	j := MultiJob{Intervals: ivs}
	j.Normalize()
	return j
}

// MultiJobFromTimes builds a job allowed exactly at the given times.
func MultiJobFromTimes(times ...int) MultiJob {
	sorted := append([]int(nil), times...)
	sort.Ints(sorted)
	var ivs []Interval
	for i := 0; i < len(sorted); {
		k := i
		for k+1 < len(sorted) && sorted[k+1] <= sorted[k]+1 {
			k++
		}
		ivs = append(ivs, Interval{Lo: sorted[i], Hi: sorted[k]})
		i = k + 1
	}
	return MultiJob{Intervals: ivs}
}

// Normalize sorts the intervals and merges overlapping or adjacent ones.
func (j *MultiJob) Normalize() {
	if len(j.Intervals) == 0 {
		return
	}
	sort.Slice(j.Intervals, func(a, b int) bool {
		if j.Intervals[a].Lo != j.Intervals[b].Lo {
			return j.Intervals[a].Lo < j.Intervals[b].Lo
		}
		return j.Intervals[a].Hi < j.Intervals[b].Hi
	})
	out := j.Intervals[:1]
	for _, iv := range j.Intervals[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi+1 {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	j.Intervals = out
}

// Valid reports whether every interval is non-empty and at least one
// interval exists.
func (j MultiJob) Valid() bool {
	if len(j.Intervals) == 0 {
		return false
	}
	for _, iv := range j.Intervals {
		if !iv.Valid() {
			return false
		}
	}
	return true
}

// Contains reports whether the job may execute at time t.
func (j MultiJob) Contains(t int) bool {
	for _, iv := range j.Intervals {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// Times returns all allowed times in increasing order.
func (j MultiJob) Times() []int {
	var ts []int
	for _, iv := range j.Intervals {
		for t := iv.Lo; t <= iv.Hi; t++ {
			ts = append(ts, t)
		}
	}
	return ts
}

// NumTimes returns the number of allowed times.
func (j MultiJob) NumTimes() int {
	n := 0
	for _, iv := range j.Intervals {
		n += iv.Len()
	}
	return n
}

// UnitIntervals reports whether every interval has length exactly 1
// (the "unit" restriction of §5.2–§5.3).
func (j MultiJob) UnitIntervals() bool {
	for _, iv := range j.Intervals {
		if iv.Len() != 1 {
			return false
		}
	}
	return true
}

// MultiInstance is a single-machine multi-interval scheduling instance:
// assign each job a unique integer time from its allowed set.
type MultiInstance struct {
	Jobs []MultiJob `json:"jobs"`
}

// N returns the number of jobs.
func (mi MultiInstance) N() int { return len(mi.Jobs) }

// Validate checks that every job has at least one non-empty interval.
func (mi MultiInstance) Validate() error {
	for i, j := range mi.Jobs {
		if !j.Valid() {
			return fmt.Errorf("sched: multi-interval job %d has no valid interval", i)
		}
	}
	return nil
}

// AllTimes returns the sorted distinct union of all allowed times.
func (mi MultiInstance) AllTimes() []int {
	seen := make(map[int]struct{})
	for _, j := range mi.Jobs {
		for _, iv := range j.Intervals {
			for t := iv.Lo; t <= iv.Hi; t++ {
				seen[t] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// MaxIntervalsPerJob returns the largest interval count over jobs.
func (mi MultiInstance) MaxIntervalsPerJob() int {
	m := 0
	for _, j := range mi.Jobs {
		if len(j.Intervals) > m {
			m = len(j.Intervals)
		}
	}
	return m
}

// LayOut converts a p-processor one-interval instance into the equivalent
// single-machine multi-interval instance by laying the processor
// executions one after another on the timeline (§1 of the paper): with
// period x larger than the horizon, a job with window [a, d] becomes
// executable in the arithmetic sequence of intervals [a+qx, d+qx] for
// q = 0..p−1. It returns the instance and the period x.
func LayOut(in Instance) (MultiInstance, int) {
	lo, hi := in.TimeHorizon()
	if hi < lo {
		return MultiInstance{}, 1
	}
	x := hi - lo + 2 // leave one idle unit between processor segments
	jobs := make([]MultiJob, len(in.Jobs))
	for i, j := range in.Jobs {
		ivs := make([]Interval, in.Procs)
		for q := 0; q < in.Procs; q++ {
			ivs[q] = Interval{Lo: j.Release + q*x, Hi: j.Deadline + q*x}
		}
		jobs[i] = MultiJob{Intervals: ivs}
	}
	return MultiInstance{Jobs: jobs}, x
}

// MultiSchedule assigns each multi-interval job an execution time.
// Entry i is job i's time.
type MultiSchedule struct {
	Times []int `json:"times"`
}

// Validate checks distinctness and containment in allowed sets.
func (ms MultiSchedule) Validate(mi MultiInstance) error {
	if len(ms.Times) != len(mi.Jobs) {
		return fmt.Errorf("sched: schedule has %d times for %d jobs", len(ms.Times), len(mi.Jobs))
	}
	used := make(map[int]int, len(ms.Times))
	for i, t := range ms.Times {
		if !mi.Jobs[i].Contains(t) {
			return fmt.Errorf("sched: job %d at time %d outside its allowed set", i, t)
		}
		if prev, dup := used[t]; dup {
			return fmt.Errorf("sched: jobs %d and %d both at time %d", prev, i, t)
		}
		used[t] = i
	}
	return nil
}

// Spans returns the number of maximal busy intervals of the schedule.
func (ms MultiSchedule) Spans() int { return SpansOfTimes(ms.Times) }

// Gaps returns spans − 1 (0 when empty): the finite idle intervals
// between busy periods.
func (ms MultiSchedule) Gaps() int {
	s := ms.Spans()
	if s == 0 {
		return 0
	}
	return s - 1
}

// PowerCost returns the optimal-bridging power consumption of the
// schedule: busyUnits + α + Σ_gaps min(len, α) (initial wake included,
// final sleep free). Returns 0 for an empty schedule.
func (ms MultiSchedule) PowerCost(alpha float64) float64 {
	if len(ms.Times) == 0 {
		return 0
	}
	total := float64(len(ms.Times)) + alpha
	for _, g := range GapLengths(ms.Times) {
		total += minF(float64(g), alpha)
	}
	return total
}
