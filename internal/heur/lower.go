package heur

// Certified fragment lower bounds. Both bounds rest on two facts:
//
//   - Decomposition exactness (internal/prep): the optimum of an
//     instance is the sum of the optima of its forced-idle fragments —
//     every forced-idle run of width ≥ 1 separates spans, and every run
//     of width ≥ α separates power-optimal solutions — so the
//     per-fragment bounds the facade sums are an instance lower bound.
//
//   - The density (Hall-type) level bound: jobs whose windows lie
//     inside [s, e] contribute |inside| busy units to the e−s+1 times of
//     [s, e], so some time there has profile level at least
//     m = ⌈|inside| / (e−s+1)⌉. The span objective Σ_u (l_u − l_{u−1})_+
//     telescopes to at least the maximum level, so each fragment needs
//     at least max(1, m) spans; and for power, the active profile
//     dominates the busy profile, so each fragment pays at least its
//     job count in active units plus α·max(1, m) in wake transitions
//     (the fragment starts asleep — bridging into it from a neighbor
//     across a forced-idle run of width ≥ α costs at least α too, which
//     is exactly why the decomposition stays exact).
//
// The density maximum is evaluated over the candidate windows
// {[r_j, d_j] : j a job of the fragment} — a sound restriction of the
// full release×deadline candidate set (any subset of windows yields a
// valid bound) computable in O(n log n) by a Fenwick sweep over the
// Scratch index that Greedy builds, so certifying a greedy schedule
// sorts nothing again. E20 and FuzzHeuristicQuality measure and
// certify LowerBound ≤ OPT.

import "repro/internal/sched"

// FragmentSpanLB is the per-fragment span certificate: the density
// level bound, at least 1 for any non-empty fragment. It assumes
// nothing about decomposition — on an instance that still contains
// splittable idle runs it is merely a weaker (but sound) bound than
// its sum over the instance's fragments.
func FragmentSpanLB(in sched.Instance) int {
	var s Scratch
	s.index(in)
	return s.SpanLB()
}

// FragmentPowerLB is the per-fragment power certificate: the
// fragment's active units plus alpha per forced wake. Like
// FragmentSpanLB, it is sound on any instance and tight on a single
// power fragment.
func FragmentPowerLB(in sched.Instance, alpha float64) float64 {
	var s Scratch
	s.index(in)
	return s.PowerLB(alpha)
}

// SpanLB is FragmentSpanLB of the instance s last indexed — after a
// Greedy call, the instance it scheduled — read from s's index.
func (s *Scratch) SpanLB() int {
	if len(s.jobs) == 0 {
		return 0
	}
	return max(1, s.density())
}

// PowerLB is FragmentPowerLB of the instance s last indexed, like
// SpanLB.
func (s *Scratch) PowerLB(alpha float64) float64 {
	if len(s.jobs) == 0 {
		return 0
	}
	return float64(len(s.jobs)) + alpha*float64(max(1, s.density()))
}

// SubSpanLB restricts the span bound to one DP subproblem of the exact
// engine: k own unit jobs inside [t1, t2] with own boundary levels l1
// (at t1) and l2 (at t2) and c2 context jobs stacked at t2. It is
// admissible for the engine's node cost Σ_{u∈(t1,t2]} (h_u − h_{u−1})_+
// — the span starts charged to the node — because the profile ends at
// height l2+c2 and must peak at ⌈k/width⌉ somewhere in the window (k
// unit jobs over width = t2−t1+1 times), so the positive increments
// after t1 sum to at least the larger target minus the starting level
// l1. A point interval charges nothing to (t1, t2].
func SubSpanLB(k, l1, l2, c2, t1, t2 int) int {
	if t2 <= t1 {
		return 0
	}
	need := l2 + c2
	if k > 0 {
		width := t2 - t1 + 1
		if m := (k + width - 1) / width; m > need {
			need = m
		}
	}
	if need <= l1 {
		return 0
	}
	return need - l1
}

// SubPowerLB is SubSpanLB's analogue for the power engine, whose node
// cost is Σ_{u∈(t1,t2]} A_u + α·(A_u − A_{u−1})_+ over active profiles
// with A_{t1} = l1 and A_{t2} = l2 (context executes inside l2). Active
// units: t2 itself pays l2, and the own jobs that fit at neither
// boundary — at most l1 execute at t1 (outside this node's sum) and at
// most l2 at t2 — each pay one interior unit. Transitions: the profile
// must rise from l1 to max(l2, ⌈k/width⌉) at α per step.
func SubPowerLB(k, l1, l2, c2, t1, t2 int, alpha float64) float64 {
	if t2 <= t1 {
		return 0
	}
	lb := float64(l2)
	if interior := k - l1 - l2; interior > 0 {
		lb += float64(interior)
	}
	peak := l2
	width := t2 - t1 + 1
	if m := (k + width - 1) / width; m > peak {
		peak = m
	}
	if peak > l1 {
		lb += alpha * float64(peak-l1)
	}
	return lb
}

// density computes, on s's index, the max over job windows [r_j, d_j]
// of ⌈|{i : r_i ≥ r_j, d_i ≤ d_j}| / (d_j − r_j + 1)⌉ — the largest
// profile level any schedule of the instance must reach, per the
// density argument above. Jobs are swept in decreasing release order
// (the release order backwards) with a Fenwick tree over deadline
// ranks, so each window's contained count is one prefix query.
func (s *Scratch) density() int {
	s.fen = resize(s.fen, len(s.dls)+1)
	clear(s.fen)
	best := 0
	for i := len(s.byRel) - 1; i >= 0; {
		// Insert the whole equal-release group before querying any of
		// its members: "release ≥ r_j" includes ties.
		r := s.jobs[s.byRel[i]].Release
		j := i
		for ; j >= 0 && s.jobs[s.byRel[j]].Release == r; j-- {
			s.fen.add(s.dlRank[s.byRel[j]], 1)
		}
		for k := i; k > j; k-- {
			jb := s.byRel[k]
			if m := windowLevel(s.fen.prefix(s.dlRank[jb]), r, s.jobs[jb].Deadline); m > best {
				best = m
			}
		}
		i = j
	}
	return best
}

// windowLevel is ⌈cnt / (d − r + 1)⌉ for 1 ≤ cnt and r ≤ d, computed
// so that nothing wraps: the width d − r + 1 exceeds MaxInt for windows
// near the ends of int (for [MinInt, MaxInt] it wraps to 0 in int), and
// a width of at least cnt gives level 1 without dividing. It reads only
// d − r, so times shifted by a common origin give the same level even
// where the shift wraps.
func windowLevel(cnt, r, d int) int {
	if span := uint(d) - uint(r); span >= uint(cnt) {
		return 1
	}
	width := d - r + 1 // at most cnt ≤ n
	return (cnt + width - 1) / width
}

// fenwick is a classic binary indexed tree over 0-based positions,
// stored in a slice of length positions+1.
type fenwick []int

func (f fenwick) add(pos, delta int) {
	for i := pos + 1; i < len(f); i += i & -i {
		f[i] += delta
	}
}

// prefix sums positions [0, pos].
func (f fenwick) prefix(pos int) int {
	s := 0
	for i := pos + 1; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}
