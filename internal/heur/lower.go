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
// valid bound) computable in O(n log n) by a Fenwick sweep. E20 and
// FuzzHeuristicQuality measure and certify LowerBound ≤ OPT.

import (
	"sort"

	"repro/internal/sched"
)

// FragmentSpanLB is the per-fragment span certificate: the density
// level bound, at least 1 for any non-empty fragment. It assumes
// nothing about decomposition — on an instance that still contains
// splittable idle runs it is merely a weaker (but sound) bound than
// its sum over the instance's fragments.
func FragmentSpanLB(in sched.Instance) int {
	if len(in.Jobs) == 0 {
		return 0
	}
	return max(1, densityLB(in))
}

// FragmentPowerLB is the per-fragment power certificate: the
// fragment's active units plus alpha per forced wake. Like
// FragmentSpanLB, it is sound on any instance and tight on a single
// power fragment.
func FragmentPowerLB(in sched.Instance, alpha float64) float64 {
	if len(in.Jobs) == 0 {
		return 0
	}
	return float64(len(in.Jobs)) + alpha*float64(max(1, densityLB(in)))
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

// densityLB computes max over job windows [r_j, d_j] of
// ⌈|{i : r_i ≥ r_j, d_i ≤ d_j}| / (d_j − r_j + 1)⌉ — the largest
// profile level any schedule of the instance must reach, per the
// density argument above. Jobs are swept in decreasing release order
// with a Fenwick tree over deadline ranks, so each window's contained
// count is one prefix query.
func densityLB(in sched.Instance) int {
	n := len(in.Jobs)
	if n == 0 {
		return 0
	}
	dls := make([]int, n)
	for i, j := range in.Jobs {
		dls[i] = j.Deadline
	}
	sort.Ints(dls)
	dls = dedupe(dls)
	rank := func(d int) int { return sort.SearchInts(dls, d) }

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		return in.Jobs[order[x]].Release > in.Jobs[order[y]].Release
	})

	fen := newFenwick(len(dls))
	best := 0
	for i := 0; i < n; {
		// Insert the whole equal-release group before querying any of
		// its members: "release ≥ r_j" includes ties.
		j := i
		for j < n && in.Jobs[order[j]].Release == in.Jobs[order[i]].Release {
			fen.add(rank(in.Jobs[order[j]].Deadline), 1)
			j++
		}
		for k := i; k < j; k++ {
			jb := in.Jobs[order[k]]
			cnt := fen.prefix(rank(jb.Deadline))
			width := jb.Deadline - jb.Release + 1
			if m := (cnt + width - 1) / width; m > best {
				best = m
			}
		}
		i = j
	}
	return best
}

// fenwick is a classic binary indexed tree over 0-based positions.
type fenwick struct{ tree []int }

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(pos, delta int) {
	for i := pos + 1; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// prefix sums positions [0, pos].
func (f *fenwick) prefix(pos int) int {
	s := 0
	for i := pos + 1; i > 0; i -= i & -i {
		s += f.tree[i]
	}
	return s
}
