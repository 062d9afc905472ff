package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// SpansOfTimes returns the number of maximal runs of consecutive integers
// in ts (which need not be sorted; duplicates are ignored).
func SpansOfTimes(ts []int) int {
	sorted := append([]int(nil), ts...)
	sort.Ints(sorted)
	return spansOfSorted(sorted)
}

// spansOfSorted is SpansOfTimes for times already in ascending order.
func spansOfSorted(sorted []int) int {
	if len(sorted) == 0 {
		return 0
	}
	spans := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			continue
		}
		if sorted[i] != sorted[i-1]+1 {
			spans++
		}
	}
	return spans
}

// GapLengths returns the lengths of the finite maximal idle intervals
// between consecutive busy times in ts.
func GapLengths(ts []int) []int {
	if len(ts) == 0 {
		return nil
	}
	sorted := append([]int(nil), ts...)
	sort.Ints(sorted)
	var gaps []int
	for i := 1; i < len(sorted); i++ {
		if d := sorted[i] - sorted[i-1]; d > 1 {
			gaps = append(gaps, d-1)
		}
	}
	return gaps
}

// Spans returns the total number of spans (maximal busy intervals,
// equivalently sleep→active transitions) of the schedule, summed over
// processors. This is the primitive minimization objective (DESIGN.md §1).
func (s Schedule) Spans() int {
	total := 0
	for _, ts := range s.BusyRows() {
		total += spansOfSorted(ts)
	}
	return total
}

// Gaps returns the number of finite idle intervals of the schedule in the
// concatenated-timeline convention: spans − 1 (0 for an empty schedule).
// On a single processor this is the classic gap count of Baptiste.
func (s Schedule) Gaps() int {
	sp := s.Spans()
	if sp == 0 {
		return 0
	}
	return sp - 1
}

// SpansOfProfile computes Σ_u (l_u − l_{u−1})_+ for a staircase occupancy
// profile given as a time→level map: the total number of per-processor
// spans of the staircase arrangement.
func SpansOfProfile(profile map[int]int) int {
	if len(profile) == 0 {
		return 0
	}
	times := make([]int, 0, len(profile))
	for t := range profile {
		if profile[t] > 0 {
			times = append(times, t)
		}
	}
	sort.Ints(times)
	spans, prev, prevT := 0, 0, 0
	for i, t := range times {
		l := profile[t]
		if i == 0 || t != prevT+1 {
			prev = 0
		}
		if l > prev {
			spans += l - prev
		}
		prev, prevT = l, t
	}
	return spans
}

// PowerCost returns the minimum power consumption of the schedule under
// transition cost alpha, when each processor may optionally remain active
// through a gap: activeUnits + α·transitions with each finite gap of
// length ℓ contributing min(ℓ, α). Processors begin asleep (the first
// wake-up on each used processor costs α) and the final return to sleep
// is free. The terms are added row by row, each gap in time order, as
// GapLengths lists them.
func (s Schedule) PowerCost(alpha float64) float64 {
	total := 0.0
	for _, ts := range s.BusyRows() {
		total += float64(distinct(ts)) + alpha // busy units + initial wake
		for i := 1; i < len(ts); i++ {
			if d := ts[i] - ts[i-1]; d > 1 {
				total += minF(float64(d-1), alpha)
			}
		}
	}
	return total
}

// MaxAlpha is the largest transition cost ValidAlpha admits, 2⁵³.
// Above it α + 1 == α, so an active unit no longer changes a power
// cost, and a huge finite α soon sums to +Inf; below it every cost
// n + k·α of a schedule stays finite.
const MaxAlpha = 1 << 53

// ValidAlpha reports whether alpha is a usable transition cost: in
// [0, MaxAlpha]. NaN, an infinite or a negative alpha prices schedules
// at NaN, ±Inf or below their active units, and one above MaxAlpha
// drowns the active units, so no cost comparison could pick an
// optimum; every entry point that takes an alpha rejects all other
// values by this one rule, whatever the objective.
func ValidAlpha(alpha float64) bool {
	return alpha >= 0 && alpha <= MaxAlpha // false for NaN
}

// MaxTime is the time-range rule every solve entry applies, as it
// applies ValidAlpha: each release and deadline lies within ±MaxTime,
// and an instance's latest deadline lies at most MaxTime after its
// earliest release. MaxTime is 3·2⁶¹ ≈ 6.9·10¹⁸, so epoch nanoseconds
// (≈1.8·10¹⁸ today) fit, and every time ± n and every difference of
// two times ± n that the pipeline forms stays inside an int for any
// job count n below 2⁶¹. Instance.Validate does not apply the rule:
// heur.Greedy saturates, and accepts any int time when called alone.
const MaxTime = 3 << 61

// ErrTimeRange is wrapped by every violation of the time-range rule.
var ErrTimeRange = errors.New("time outside the accepted range")

// CheckHorizon applies the time-range rule to a job set whose earliest
// release is lo and latest deadline hi, lo ≤ hi, and returns an error
// wrapping ErrTimeRange when it fails.
func CheckHorizon(lo, hi int) error {
	// With both ends within ±MaxTime the true difference is below 2⁶⁴,
	// so the unsigned one is exact where the signed one could wrap.
	if lo < -MaxTime || hi > MaxTime || uint64(hi-lo) > MaxTime {
		return fmt.Errorf("sched: %w: jobs span [%d,%d], but every time must lie within ±%d and the span within %d",
			ErrTimeRange, lo, hi, MaxTime, MaxTime)
	}
	return nil
}

// CheckTimes applies the time-range rule (CheckHorizon) to the
// instance's horizon; the empty instance passes. It assumes the
// windows are valid (Validate).
func (in Instance) CheckTimes() error {
	if len(in.Jobs) == 0 {
		return nil
	}
	return CheckHorizon(in.TimeHorizon())
}

// PowerCostSleepOnly returns the power consumption when the machine must
// sleep during every gap (no bridging): n + α·spans.
func (s Schedule) PowerCostSleepOnly(alpha float64) float64 {
	busy := 0
	for _, ts := range s.BusyRows() {
		busy += distinct(ts)
	}
	return float64(busy) + alpha*float64(s.Spans())
}

func distinct(sortedTs []int) int {
	n := 0
	for i, t := range sortedTs {
		if i == 0 || t != sortedTs[i-1] {
			n++
		}
	}
	return n
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Staircase rearranges the schedule so that at every time the occupied
// processors form a prefix P_0..P_{l−1} (Lemma 1 normal form). Job order
// within a time unit follows slot index. The returned schedule executes
// the same jobs at the same times.
func (s Schedule) Staircase() Schedule {
	out := s.Clone()
	// Job indices sorted by (time, index): each job's processor is its
	// rank within its time.
	order := make([]int, len(s.Slots))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		if a, b := s.Slots[x].Time, s.Slots[y].Time; a != b {
			return cmp.Compare(a, b)
		}
		return cmp.Compare(x, y)
	})
	q := 0
	for x, i := range order {
		if x > 0 && s.Slots[order[x-1]].Time != s.Slots[i].Time {
			q = 0
		}
		out.Slots[i] = Assignment{Proc: q, Time: s.Slots[i].Time}
		q++
	}
	return out
}
