package core

import "repro/internal/heur"

// powerModel plugs the power objective (Theorem 2) into the shared
// engine. Levels are *active* processor counts — processors may stay
// active without executing a job (bridging) — and the c2 context jobs
// execute at t2, lower-bounding the active level there (c2 ≤ l2). The
// cost of a state is Σ_{u ∈ (t1, t2]} A_u + alpha·(A_u − A_{u−1})_+
// over active profiles A.
type powerModel struct {
	p     int
	alpha float64
}

func (m powerModel) stateOK(l1, l2, c2 int) bool { return l2 <= m.p && c2 <= l2 }

// emptyCost solves the jobless base case in closed form: boundary active
// levels l1 (at t1) and l2 (at t2) with interior width t2−t1−1. Up to
// min(l1, l2) processors may bridge the interior (cost width each, no
// transition at t2); the remaining l2−b wake at t2 (cost alpha each);
// everyone pays one active unit at t2.
func (m powerModel) emptyCost(l1, l2, c2, t1, t2 int) (float64, bool) {
	if t1 == t2 {
		return 0, l1 == l2
	}
	width := t2 - t1 - 1
	best := infinite
	maxB := l1
	if l2 < maxB {
		maxB = l2
	}
	for b := 0; b <= maxB; b++ {
		// The bridging cost multiplies in float64: b·width can pass
		// MaxInt when the interior is wide, and below 2⁵³ the float
		// product is the exact integer.
		if c := float64(l2) + float64(b)*float64(width) + m.alpha*float64(l2-b); c < best {
			best = c
		}
	}
	return best, true
}

func (m powerModel) pointOK(k, l1, l2, c2 int) bool {
	return l1 == l2 && k+c2 <= l2
}

// caseAChild: the active level at t2 already covers the context, so
// only the context count grows.
func (m powerModel) caseAChild(l2, c2 int) (int, int, bool) {
	return l2, c2 + 1, c2+1 <= l2
}

// leftLevel: active levels include context, so the left child's level
// at t′ is the full profile height there.
func (m powerModel) leftLevel(busy int) int { return busy }

func (m powerModel) pointLeft(l1, kL int) (int, int, bool) {
	return l1, l1, true
}

// boundary: the parent-owned cost of time unit t′+1 — its active units
// plus wake transitions relative to the level at t′. Context at t2 is
// already inside the active level, so ctx is unused.
func (m powerModel) boundary(level, next, ctx int) float64 {
	c := float64(next)
	if next > level {
		c += m.alpha * float64(next-level)
	}
	return c
}

// nodeLB: the subinterval restriction of the heuristic tier's power
// bound (admissibility argued at heur.SubPowerLB).
func (m powerModel) nodeLB(k, l1, l2, c2, t1, t2 int) float64 {
	return heur.SubPowerLB(k, l1, l2, c2, t1, t2, m.alpha)
}
