// Package exact provides exponential-time exact solvers ("oracles") for
// every problem variant in the repository. They exist to validate the
// polynomial algorithms on small instances and to measure true
// approximation ratios in the experiment harness; they are deliberately
// simple and deliberately slow.
//
// All oracles reduce the search space with two normalizations proved in
// the paper (and re-verified here by the ultra-brute solvers in
// ultrabrute.go, which apply no normalization at all):
//
//   - staircase form (Lemma 1/2): at every time the busy/active
//     processors form a prefix, so only the occupancy profile matters;
//   - EDF-prefix form: among the jobs available at a time, running those
//     with earliest deadlines is without loss of generality.
package exact

import (
	"fmt"

	"repro/internal/sched"
)

// MaxOracleJobs bounds the instance size accepted by the bitmask oracles.
const MaxOracleJobs = 20

// Infeasible is returned (as ok=false) when an instance admits no
// feasible schedule.

type gapKey struct {
	mask  uint32
	lprev int8
}

// SpansOneInterval computes the minimum total number of spans (wake-ups)
// of a feasible schedule for the one-interval p-processor instance, by
// dynamic programming over occupancy profiles. ok is false when the
// instance is infeasible.
func SpansOneInterval(in sched.Instance) (spans int, ok bool) {
	n := len(in.Jobs)
	if n == 0 {
		return 0, true
	}
	if n > MaxOracleJobs {
		panic(fmt.Sprintf("exact: %d jobs exceeds oracle limit %d", n, MaxOracleJobs))
	}
	lo, hi := in.TimeHorizon()
	byDeadline := in.SortedByDeadline()

	const inf = int(^uint(0) >> 1)
	cur := map[gapKey]int{{mask: 0, lprev: 0}: 0}
	full := uint32(1)<<uint(n) - 1

	for t := lo; t <= hi; t++ {
		next := make(map[gapKey]int, len(cur))
		for key, cost := range cur {
			// Available jobs in deadline order.
			var avail []int
			for _, j := range byDeadline {
				if key.mask&(1<<uint(j)) != 0 {
					continue
				}
				if in.Jobs[j].Release <= t && t <= in.Jobs[j].Deadline {
					avail = append(avail, j)
				}
			}
			maxRun := len(avail)
			if maxRun > in.Procs {
				maxRun = in.Procs
			}
			for run := 0; run <= maxRun; run++ {
				mask := key.mask
				for i := 0; i < run; i++ {
					mask |= 1 << uint(avail[i])
				}
				added := 0
				if run > int(key.lprev) {
					added = run - int(key.lprev)
				}
				nk := gapKey{mask: mask, lprev: int8(run)}
				if c, seen := next[nk]; !seen || cost+added < c {
					next[nk] = cost + added
				}
			}
		}
		cur = next
	}
	best, found := inf, false
	for key, cost := range cur {
		if key.mask == full && cost < best {
			best, found = cost, true
		}
	}
	return best, found
}

type powerKey struct {
	mask  uint32
	aprev int8
}

// PowerOneInterval computes the minimum power consumption (active units
// plus alpha per sleep→active transition, idle-active permitted) of a
// feasible schedule for the one-interval p-processor instance.
func PowerOneInterval(in sched.Instance, alpha float64) (power float64, ok bool) {
	n := len(in.Jobs)
	if n == 0 {
		return 0, true
	}
	if n > MaxOracleJobs {
		panic(fmt.Sprintf("exact: %d jobs exceeds oracle limit %d", n, MaxOracleJobs))
	}
	lo, hi := in.TimeHorizon()
	byDeadline := in.SortedByDeadline()
	cur := map[powerKey]float64{{mask: 0, aprev: 0}: 0}
	full := uint32(1)<<uint(n) - 1

	for t := lo; t <= hi; t++ {
		next := make(map[powerKey]float64, len(cur))
		for key, cost := range cur {
			var avail []int
			for _, j := range byDeadline {
				if key.mask&(1<<uint(j)) != 0 {
					continue
				}
				if in.Jobs[j].Release <= t && t <= in.Jobs[j].Deadline {
					avail = append(avail, j)
				}
			}
			maxRun := len(avail)
			if maxRun > in.Procs {
				maxRun = in.Procs
			}
			for run := 0; run <= maxRun; run++ {
				mask := key.mask
				for i := 0; i < run; i++ {
					mask |= 1 << uint(avail[i])
				}
				// Active level may exceed the number of running jobs
				// (idle-active bridging, Theorem 2).
				for act := run; act <= in.Procs; act++ {
					added := float64(act)
					if act > int(key.aprev) {
						added += alpha * float64(act-int(key.aprev))
					}
					nk := powerKey{mask: mask, aprev: int8(act)}
					if c, seen := next[nk]; !seen || cost+added < c {
						next[nk] = cost + added
					}
				}
			}
		}
		cur = next
	}
	best, found := 0.0, false
	for key, cost := range cur {
		if key.mask == full && (!found || cost < best) {
			best, found = cost, true
		}
	}
	return best, found
}

// multiTimes returns the sorted distinct allowed times of mi, panicking
// when the instance exceeds oracle limits.
func multiTimes(mi sched.MultiInstance) []int {
	if mi.N() > MaxOracleJobs {
		panic(fmt.Sprintf("exact: %d jobs exceeds oracle limit %d", mi.N(), MaxOracleJobs))
	}
	return mi.AllTimes()
}

type multiKey struct {
	mask uint32
	busy bool // busy at the previously processed time
}

// SpansMulti computes the minimum number of spans of a feasible schedule
// for the single-machine multi-interval instance.
func SpansMulti(mi sched.MultiInstance) (spans int, ok bool) {
	n := mi.N()
	if n == 0 {
		return 0, true
	}
	times := multiTimes(mi)
	full := uint32(1)<<uint(n) - 1
	cur := map[multiKey]int{{mask: 0, busy: false}: 0}
	for ti, t := range times {
		adjacent := ti > 0 && times[ti-1] == t-1
		next := make(map[multiKey]int, len(cur)*2)
		relax := func(k multiKey, c int) {
			if old, seen := next[k]; !seen || c < old {
				next[k] = c
			}
		}
		for key, cost := range cur {
			prevBusy := key.busy && adjacent
			// Idle at t.
			relax(multiKey{mask: key.mask, busy: false}, cost)
			// Schedule one available job at t.
			for j := 0; j < n; j++ {
				if key.mask&(1<<uint(j)) != 0 || !mi.Jobs[j].Contains(t) {
					continue
				}
				added := 0
				if !prevBusy {
					added = 1
				}
				relax(multiKey{mask: key.mask | 1<<uint(j), busy: true}, cost+added)
			}
		}
		cur = next
	}
	const inf = int(^uint(0) >> 1)
	best, found := inf, false
	for key, cost := range cur {
		if key.mask == full && cost < best {
			best, found = cost, true
		}
	}
	return best, found
}

type multiPowerKey struct {
	mask     uint32
	lastBusy int32 // last busy time, or minInt32 when never busy
}

const neverBusy = int32(-1 << 31)

// PowerMulti computes the minimum power consumption of a feasible
// schedule for the single-machine multi-interval instance under
// transition cost alpha with optimal gap bridging.
func PowerMulti(mi sched.MultiInstance, alpha float64) (power float64, ok bool) {
	n := mi.N()
	if n == 0 {
		return 0, true
	}
	times := multiTimes(mi)
	full := uint32(1)<<uint(n) - 1
	cur := map[multiPowerKey]float64{{mask: 0, lastBusy: neverBusy}: 0}
	for _, t := range times {
		next := make(map[multiPowerKey]float64, len(cur)*2)
		relax := func(k multiPowerKey, c float64) {
			if old, seen := next[k]; !seen || c < old {
				next[k] = c
			}
		}
		for key, cost := range cur {
			// Idle at t.
			relax(key, cost)
			for j := 0; j < n; j++ {
				if key.mask&(1<<uint(j)) != 0 || !mi.Jobs[j].Contains(t) {
					continue
				}
				added := 1.0 // execution unit
				switch {
				case key.lastBusy == neverBusy:
					added += alpha // initial wake-up
				case int(key.lastBusy) < t-1:
					gap := float64(t - int(key.lastBusy) - 1)
					if gap > alpha {
						gap = alpha
					}
					added += gap // bridge or sleep+wake, whichever is cheaper
				}
				relax(multiPowerKey{mask: key.mask | 1<<uint(j), lastBusy: int32(t)}, cost+added)
			}
		}
		cur = next
	}
	best, found := 0.0, false
	for key, cost := range cur {
		if key.mask == full && (!found || cost < best) {
			best, found = cost, true
		}
	}
	return best, found
}

type restartKey struct {
	mask  uint32
	busy  bool
	spans int8
}

// MaxThroughput computes the maximum number of jobs of the multi-interval
// instance schedulable with at most maxSpans spans (equivalently at most
// maxSpans−1 gaps / restarts), the objective of Theorem 11.
func MaxThroughput(mi sched.MultiInstance, maxSpans int) int {
	n := mi.N()
	if n == 0 || maxSpans <= 0 {
		return 0
	}
	times := multiTimes(mi)
	cur := map[restartKey]struct{}{{mask: 0, busy: false, spans: 0}: {}}
	for ti, t := range times {
		adjacent := ti > 0 && times[ti-1] == t-1
		next := make(map[restartKey]struct{}, len(cur)*2)
		for key := range cur {
			prevBusy := key.busy && adjacent
			next[restartKey{mask: key.mask, busy: false, spans: key.spans}] = struct{}{}
			for j := 0; j < n; j++ {
				if key.mask&(1<<uint(j)) != 0 || !mi.Jobs[j].Contains(t) {
					continue
				}
				spans := key.spans
				if !prevBusy {
					spans++
				}
				if int(spans) > maxSpans {
					continue
				}
				next[restartKey{mask: key.mask | 1<<uint(j), busy: true, spans: spans}] = struct{}{}
			}
		}
		cur = next
	}
	best := 0
	for key := range cur {
		if c := popcount(uint32(key.mask)); c > best {
			best = c
		}
	}
	return best
}

func popcount(x uint32) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}
