// Package powerdown implements the classic online power-down strategies
// that frame the paper's problem (§1, citing Irani–Shukla–Gupta [ISG03]
// and Augustine–Irani–Swamy [AIS04]): the schedule is fixed, and the
// device must decide online, during each idle period, when to enter the
// sleep state. Sleeping costs nothing but returning to the active state
// costs α; staying awake costs 1 per time unit.
//
//   - Offline optimum per idle period of length L: min(L, α).
//   - Deterministic threshold τ ("ski rental"): stay awake τ units,
//     then sleep. τ = α is exactly 2-competitive.
//   - Randomized exponential threshold: draw τ from density
//     e^{t/α}/(α(e−1)) on [0, α]; its expected cost is e/(e−1) ≈ 1.582
//     times the offline optimum for every idle length.
//
// These baselines quantify what the paper's offline algorithms buy:
// experiment E14 compares them against the exact offline DP on the same
// workloads. The online streaming tier (internal/online) prices each
// committed gap with the Threshold policy at τ = α, and experiment E22
// checks its measured competitive ratios against CompetitiveRatio's
// analytic worst case.
package powerdown

import (
	"fmt"
	"math"

	"repro/internal/feas"
	"repro/internal/sched"
)

// Policy prices one idle period of integer length under transition cost
// alpha. Costs are expected values for randomized policies.
type Policy interface {
	// Cost returns the (expected) energy spent on an idle period of
	// length idle: active units waited plus alpha if the device slept.
	Cost(idle int, alpha float64) float64
	// Name identifies the policy in reports.
	Name() string
}

// Offline is the clairvoyant optimum: bridge iff shorter than alpha.
type Offline struct{}

// Cost returns min(idle, alpha).
func (Offline) Cost(idle int, alpha float64) float64 {
	return math.Min(float64(idle), alpha)
}

// Name implements Policy.
func (Offline) Name() string { return "offline" }

// Threshold stays awake Tau time units and then sleeps (waking again
// costs alpha when the idle period ends). Tau = alpha gives the classic
// 2-competitive ski-rental strategy.
type Threshold struct{ Tau float64 }

// Cost implements Policy.
func (p Threshold) Cost(idle int, alpha float64) float64 {
	l := float64(idle)
	if l <= p.Tau {
		return l
	}
	return p.Tau + alpha
}

// Name implements Policy.
func (p Threshold) Name() string { return fmt.Sprintf("threshold(τ=%.2g)", p.Tau) }

// SkiRental is the deterministic threshold at τ = α.
type SkiRental struct{}

// Cost implements Policy.
func (SkiRental) Cost(idle int, alpha float64) float64 {
	return Threshold{Tau: alpha}.Cost(idle, alpha)
}

// Name implements Policy.
func (SkiRental) Name() string { return "ski-rental(τ=α)" }

// RandomizedExp draws the sleep threshold from the exponential density
// f(t) = e^{t/α} / (α(e−1)) on [0, α]; Cost returns the closed-form
// expectation  [m·e^{m/α} + L·(e − e^{m/α})] / (e−1)  with m = min(L, α),
// which equals e/(e−1)·min(L, α) for every L — the optimal randomized
// competitive ratio.
type RandomizedExp struct{}

// Cost implements Policy.
func (RandomizedExp) Cost(idle int, alpha float64) float64 {
	if alpha == 0 {
		return 0
	}
	l := float64(idle)
	m := math.Min(l, alpha)
	e := math.E
	return (m*math.Exp(m/alpha) + l*(e-math.Exp(m/alpha))) / (e - 1)
}

// Name implements Policy.
func (RandomizedExp) Name() string { return "randomized-exp" }

// CompetitiveRatio returns the worst-case ratio of the policy against
// the offline optimum over idle lengths 1..maxIdle.
func CompetitiveRatio(p Policy, alpha float64, maxIdle int) float64 {
	worst := 1.0
	off := Offline{}
	for l := 1; l <= maxIdle; l++ {
		denom := off.Cost(l, alpha)
		if denom == 0 {
			continue
		}
		if r := p.Cost(l, alpha) / denom; r > worst {
			worst = r
		}
	}
	return worst
}

// Report describes one policy evaluation over a schedule.
type Report struct {
	Policy string
	// Total is busy units + initial wake + per-gap policy cost.
	Total float64
	// OfflineTotal prices the same gaps with the offline rule.
	OfflineTotal float64
	// Ratio = Total / OfflineTotal.
	Ratio float64
}

// EvaluateEDF fixes the schedule to eager EDF (the canonical online
// schedule) and prices its idle periods under the policy, isolating the
// power-down decision from the scheduling decision as in [ISG03]. ok is
// false when the instance is infeasible.
func EvaluateEDF(in sched.Instance, alpha float64, p Policy) (Report, bool) {
	s, ok := feas.EDFOneInterval(in)
	if !ok {
		return Report{}, false
	}
	return EvaluateSchedule(s, alpha, p), true
}

// EvaluateSchedule prices the idle periods of an arbitrary schedule
// under the policy.
func EvaluateSchedule(s sched.Schedule, alpha float64, p Policy) Report {
	rep := Report{Policy: p.Name()}
	off := Offline{}
	for _, ts := range s.BusyRows() {
		if len(ts) == 0 {
			continue
		}
		busy := float64(len(distinctSorted(ts)))
		rep.Total += busy + alpha
		rep.OfflineTotal += busy + alpha
		for _, g := range sched.GapLengths(ts) {
			rep.Total += p.Cost(g, alpha)
			rep.OfflineTotal += off.Cost(g, alpha)
		}
	}
	if rep.OfflineTotal > 0 {
		rep.Ratio = rep.Total / rep.OfflineTotal
	} else {
		rep.Ratio = 1
	}
	return rep
}

func distinctSorted(sorted []int) []int {
	out := sorted[:0:0]
	for i, t := range sorted {
		if i == 0 || t != sorted[i-1] {
			out = append(out, t)
		}
	}
	return out
}
