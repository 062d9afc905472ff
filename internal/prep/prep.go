// Package prep is the preprocessing layer in front of the exact DP
// engine (see DESIGN.md §2): it normalizes a one-interval instance and
// decomposes it into independent sub-instances that can be solved
// separately and concatenated.
//
// Two transformations are applied, both exactly cost-preserving:
//
//   - Splitting at forced-idle boundaries. A forced-idle run is a
//     maximal time range covered by no job window; no schedule can be
//     busy there. For the span objective any such run separates spans,
//     so the instance splits at every one. For the power objective a
//     processor could profitably stay active across an idle run shorter
//     than the transition cost α, so only runs of width ≥ α separate
//     optimal solutions (at width exactly α, bridging ties sleeping, so
//     an optimal solution that sleeps exists and the split is still
//     exact).
//
//   - Time-coordinate compression. Each sub-instance is translated so
//     its earliest release is 0. Together with the split — which
//     discards the idle stretches between fragments — this shrinks a
//     sparse horizon to the sum of the covered regions, keeping the
//     engine's index-encoded memo table compact regardless of where on
//     the absolute timeline the instance lives.
//
// Both objectives are additive across the split (spans and power each
// sum over fragments), and feasibility decomposes too: a Hall violator
// interval never spans a forced-idle run, since shrinking it to either
// side of the run preserves the violation.
package prep

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sched"
)

// Sub is one independent fragment of a decomposed instance.
type Sub struct {
	// Instance is the fragment, translated so its earliest release is 0.
	Instance sched.Instance
	// Jobs maps fragment job indices to original instance job indices:
	// Instance.Jobs[i] is the original in.Jobs[Jobs[i]] shifted left by
	// Offset.
	Jobs []int
	// Offset is the original time of the fragment's time 0.
	Offset int
}

// Plan is a decomposition of an instance into independently solvable
// sub-instances, with enough bookkeeping to reassemble a schedule of
// the original instance from schedules of the fragments.
type Plan struct {
	Subs []Sub

	procs int
	n     int
}

// Splits reports whether a forced-idle run of idle time units separates
// sub-instances under split threshold splitWidth: the run must be
// non-empty and at least splitWidth wide. This single predicate is what
// Decompose's sweep and the incremental tracker (internal/incr) share —
// both layers must agree on every boundary or incremental solutions
// would drift from from-scratch ones.
func Splits(idle int, splitWidth float64) bool {
	return idle >= 1 && float64(idle) >= splitWidth
}

// ForGaps decomposes in for the span objective: every forced-idle run
// splits.
func ForGaps(in sched.Instance) *Plan { return Decompose(in, 1) }

// ForPower decomposes in for the power objective with transition cost
// alpha: only forced-idle runs of width ≥ alpha split, because shorter
// runs may be bridged by an optimal solution.
func ForPower(in sched.Instance, alpha float64) *Plan { return Decompose(in, alpha) }

// Decompose splits in at every forced-idle run of width ≥ splitWidth
// (and width ≥ 1) and translates each fragment to a zero-based origin.
// Fragments appear in increasing time order; job order within a
// fragment follows the original instance. The empty instance yields an
// empty plan. Every fragment's jobs and index list are capped windows
// of two arrays shared by the whole plan, so a decomposition into any
// number of fragments costs a handful of allocations.
func Decompose(in sched.Instance, splitWidth float64) *Plan {
	pl := &Plan{procs: in.Procs, n: len(in.Jobs)}
	if len(in.Jobs) == 0 {
		return pl
	}

	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		if a, b := in.Jobs[x].Release, in.Jobs[y].Release; a != b {
			return cmp.Compare(a, b)
		}
		return cmp.Compare(x, y)
	})

	// Sweep windows in release order; a new fragment starts whenever the
	// next window opens beyond the current coverage by a splittable
	// idle run. Each fragment is a contiguous block of order.
	jobs := make([]sched.Job, len(in.Jobs))
	flush := func(from, to int) {
		offset := in.Jobs[order[from]].Release // the block's earliest release
		ids := order[from:to:to]
		slices.Sort(ids) // restore original job order within the fragment
		fr := jobs[from:to:to]
		for i, j := range ids {
			fr[i] = sched.Job{
				Release:  in.Jobs[j].Release - offset,
				Deadline: in.Jobs[j].Deadline - offset,
			}
		}
		pl.Subs = append(pl.Subs, Sub{
			Instance: sched.Instance{Jobs: fr, Procs: in.Procs},
			Jobs:     ids,
			Offset:   offset,
		})
	}
	first, curEnd := 0, in.Jobs[order[0]].Deadline
	for x, j := range order[1:] {
		job := in.Jobs[j]
		if Splits(job.Release-curEnd-1, splitWidth) {
			flush(first, x+1)
			first, curEnd = x+1, job.Deadline
			continue
		}
		curEnd = max(curEnd, job.Deadline)
	}
	flush(first, len(order))
	return pl
}

// Assemble maps fragment schedules back onto the original instance:
// parts[i] must schedule Subs[i].Instance. Times are shifted back by
// each fragment's offset and job indices are restored.
func (pl *Plan) Assemble(parts []sched.Schedule) (sched.Schedule, error) {
	if len(parts) != len(pl.Subs) {
		return sched.Schedule{}, fmt.Errorf("prep: %d part schedules for %d sub-instances", len(parts), len(pl.Subs))
	}
	out := sched.Schedule{Procs: pl.procs, Slots: make([]sched.Assignment, pl.n)}
	for si, sub := range pl.Subs {
		part := parts[si]
		if len(part.Slots) != len(sub.Jobs) {
			return sched.Schedule{}, fmt.Errorf("prep: part %d has %d slots for %d jobs", si, len(part.Slots), len(sub.Jobs))
		}
		for i, a := range part.Slots {
			out.Slots[sub.Jobs[i]] = sched.Assignment{Proc: a.Proc, Time: a.Time + sub.Offset}
		}
	}
	return out, nil
}
