// Package multiinterval implements the paper's §3: the polynomial-time
// (1 + (2/3 + ε)α)-approximation for multi-interval power minimization
// (Theorem 3), built from Lemmas 3–5:
//
//   - Lemma 4: for any feasible schedule with M spans and any k > 1,
//     some shift class i has at least (n − M(k−1))/k anchors t ≡ i
//     (mod k) whose whole run t..t+k−1 is busy.
//   - Lemma 5: those runs form a (k+1)-set-packing instance (k jobs plus
//     the anchor time per set); a packing of A runs schedules k·A jobs in
//     at most A+1 spans.
//   - Lemma 3: a feasible partial schedule extends to all n jobs via
//     augmenting paths, adding at most one span per added job.
//
// The headline bound uses k = 2. The pipeline never assumes the packing
// subroutine achieved its worst-case guarantee — it just schedules
// whatever was packed and extends; the experiment harness measures the
// resulting true ratios against the exact oracle.
package multiinterval

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/feas"
	"repro/internal/sched"
	"repro/internal/setpacking"
)

// ErrInfeasible is returned when the instance admits no feasible
// schedule.
var ErrInfeasible = errors.New("multiinterval: instance is infeasible")

// Options configures the Theorem 3 pipeline.
type Options struct {
	// K is the run length of Lemma 5 (the paper's k); the headline bound
	// uses 2. 0 defaults to 2. Supported: 2 or 3.
	K int
	// SearchDepth is the local-search exchange depth for set packing
	// (see internal/setpacking). 0 defaults to 1.
	SearchDepth int
}

func (o Options) withDefaults() (Options, error) {
	if o.K == 0 {
		o.K = 2
	}
	if o.K < 2 || o.K > 3 {
		return o, fmt.Errorf("multiinterval: unsupported run length k=%d (want 2 or 3)", o.K)
	}
	if o.SearchDepth == 0 {
		o.SearchDepth = 1
	}
	return o, nil
}

// Stats reports what the pipeline did, for the experiment harness.
type Stats struct {
	// Shift is the chosen residue class i ∈ [0, K).
	Shift int
	// PackedRuns and PackedJobs count the set-packing phase output.
	PackedRuns, PackedJobs int
	// Spans and Power describe the final schedule.
	Spans int
	Power float64
}

// ApproxPower runs the Theorem 3 pipeline and returns a feasible
// schedule for all jobs together with pipeline statistics.
func ApproxPower(mi sched.MultiInstance, alpha float64, opts Options) (sched.MultiSchedule, Stats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return sched.MultiSchedule{}, Stats{}, err
	}
	if err := mi.Validate(); err != nil {
		return sched.MultiSchedule{}, Stats{}, err
	}
	if !sched.ValidAlpha(alpha) {
		return sched.MultiSchedule{}, Stats{}, fmt.Errorf("multiinterval: alpha %v is outside [0, 2^53]", alpha)
	}
	if mi.N() == 0 {
		return sched.MultiSchedule{}, Stats{}, nil
	}
	if !feas.FeasibleMulti(mi) {
		return sched.MultiSchedule{}, Stats{}, ErrInfeasible
	}

	k := opts.K
	bestShift, bestPartial := 0, map[int]int(nil)
	for shift := 0; shift < k; shift++ {
		packInst, runs := buildPackingInstance(mi, k, shift)
		chosen := setpacking.LocalSearch(packInst, opts.SearchDepth)
		partial := make(map[int]int, len(chosen)*k)
		for _, ci := range chosen {
			run := runs[ci]
			for l, job := range run.jobs {
				partial[job] = run.anchor + l
			}
		}
		if bestPartial == nil || len(partial) > len(bestPartial) {
			bestShift, bestPartial = shift, partial
		}
	}

	full, ok := feas.ExtendSchedule(mi, bestPartial)
	if !ok {
		// Cannot happen for a feasible instance; defensive.
		return sched.MultiSchedule{}, Stats{}, ErrInfeasible
	}
	st := Stats{
		Shift:      bestShift,
		PackedRuns: len(bestPartial) / k,
		PackedJobs: len(bestPartial),
		Spans:      full.Spans(),
		Power:      full.PowerCost(alpha),
	}
	return full, st, nil
}

// run is one candidate set of the Lemma 5 packing instance: k distinct
// jobs executable consecutively from the anchor time.
type run struct {
	anchor int
	jobs   []int
}

// buildPackingInstance constructs the (k+1)-set-packing instance for one
// shift class: universe = n job elements plus one element per anchor
// time ≡ shift (mod k); each candidate set is {jobs of a run} ∪ {anchor}.
func buildPackingInstance(mi sched.MultiInstance, k, shift int) (setpacking.Instance, []run) {
	n := mi.N()
	canRunAt := make(map[int][]int) // time → jobs executable there
	for j, job := range mi.Jobs {
		for _, t := range job.Times() {
			canRunAt[t] = append(canRunAt[t], j)
		}
	}
	anchorID := make(map[int]int)
	var sets [][]int
	var runs []run
	mod := func(x, m int) int { return ((x % m) + m) % m }
	// Iterate anchors in sorted time order so the construction (and the
	// downstream greedy's tie-breaking) is deterministic.
	anchors := make([]int, 0, len(canRunAt))
	for t := range canRunAt {
		if mod(t, k) == shift {
			anchors = append(anchors, t)
		}
	}
	sort.Ints(anchors)
	for _, t := range anchors {
		// Enumerate k distinct jobs a_0..a_{k−1} with a_l runnable at t+l.
		var emit func(l int, picked []int)
		emit = func(l int, picked []int) {
			if l == k {
				id, ok := anchorID[t]
				if !ok {
					id = n + len(anchorID)
					anchorID[t] = id
				}
				set := append(append([]int{}, picked...), id)
				sets = append(sets, set)
				runs = append(runs, run{anchor: t, jobs: append([]int{}, picked...)})
				return
			}
			for _, j := range canRunAt[t+l] {
				dup := false
				for _, q := range picked {
					if q == j {
						dup = true
						break
					}
				}
				if !dup {
					emit(l+1, append(picked, j))
				}
			}
		}
		emit(0, nil)
	}
	return setpacking.Instance{Universe: n + len(anchorID), Sets: sets}, runs
}

// NaiveSchedule returns an arbitrary feasible schedule via maximum
// matching: the trivial (1+α)-approximation of §3 ("every schedule is
// within a 1+α factor of optimal").
func NaiveSchedule(mi sched.MultiInstance) (sched.MultiSchedule, error) {
	ms, ok := feas.SolveMulti(mi)
	if !ok {
		return sched.MultiSchedule{}, ErrInfeasible
	}
	return ms, nil
}

// Bound returns the proven approximation factor 1 + (2/3 + eps)·α of
// Theorem 3 for run length k = 2, or 1 + (k−1)·(... ) in the general
// parameterization; only k = 2 and k = 3 are exposed.
func Bound(k int, eps, alpha float64) float64 {
	switch k {
	case 2:
		return 1 + (2.0/3.0+eps)*alpha
	case 3:
		// From Corollary 1 with k = 3: spans ≤ n − (n−2M)/3·(1/2−ε)
		// giving factor 1 + (5/6 + ε)·α; looser than k = 2.
		return 1 + (5.0/6.0+eps)*alpha
	default:
		return 1 + alpha
	}
}

// ShiftCover computes, for a set of busy times ts and run length k, the
// shift class i maximizing |L_{S,k,i}| = #{t ≡ i (mod k) : t..t+k−1 all
// busy}, returning the best shift and its count (Lemma 4's quantity).
func ShiftCover(ts []int, k int) (bestShift, count int) {
	busy := make(map[int]bool, len(ts))
	for _, t := range ts {
		busy[t] = true
	}
	mod := func(x, m int) int { return ((x % m) + m) % m }
	counts := make([]int, k)
	for t := range busy {
		full := true
		for l := 0; l < k; l++ {
			if !busy[t+l] {
				full = false
				break
			}
		}
		if full {
			counts[mod(t, k)]++
		}
	}
	for i, c := range counts {
		if c > counts[bestShift] {
			bestShift = i
		}
		_ = c
	}
	return bestShift, counts[bestShift]
}
