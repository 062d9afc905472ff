// Package power simulates the machine-state model of the paper: per
// processor and per time unit, a device is Busy (executing a job),
// Active (awake but idle, bridging a gap), or Asleep. It renders
// timelines and itemized energy breakdowns for schedules, implementing
// exactly the cost model of DESIGN.md §1: energy = active units (busy or
// idle-active) + α per sleep→active transition, with a gap bridged iff
// that is no more expensive than sleeping through it.
package power

import (
	"fmt"
	"strings"

	"repro/internal/sched"
)

// State is the power state of one processor during one time unit.
type State byte

// The three machine states.
const (
	Asleep State = iota
	Active       // awake but idle (bridging)
	Busy         // executing a job
)

func (s State) String() string {
	switch s {
	case Asleep:
		return "asleep"
	case Active:
		return "active"
	default:
		return "busy"
	}
}

// Rune returns the timeline glyph of the state.
func (s State) Rune() rune {
	switch s {
	case Asleep:
		return '.'
	case Active:
		return '~'
	default:
		return '#'
	}
}

// Breakdown itemizes the energy of a simulated schedule.
type Breakdown struct {
	Alpha           float64
	BusyUnits       int     // units executing jobs
	IdleActiveUnits int     // units awake without a job (bridged gaps)
	Transitions     int     // sleep→active transitions (wake-ups)
	Total           float64 // BusyUnits + IdleActiveUnits + Alpha·Transitions
}

// Timeline is the simulated state matrix of a schedule.
type Timeline struct {
	Start, End int // inclusive time range simulated
	// States[r][t−Start] is processor Procs[r]'s state at time t. The
	// rows are those of Schedule.BusyTimes: every processor of a small
	// machine, and on one with more processors than jobs, the first few
	// plus every busy one.
	States [][]State
	Procs  []int
	// Idle counts the schedule's processors without a row; none of them
	// runs a job, so each sleeps throughout.
	Idle   int
	Energy Breakdown
}

// Simulate derives the optimal-bridging timeline of a one-interval
// schedule: each processor stays awake through a gap iff the gap is
// shorter than alpha (cost len < α), matching Schedule.PowerCost.
func Simulate(s sched.Schedule, alpha float64) Timeline {
	procs, per := s.BusyTimes()
	lo, hi, any := 0, 0, false
	for _, ts := range per {
		for _, t := range ts {
			if !any {
				lo, hi, any = t, t, true
			}
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
	}
	tl := Timeline{Start: lo, End: hi, Procs: procs, Idle: s.Procs - len(procs), Energy: Breakdown{Alpha: alpha}}
	tl.States = make([][]State, len(procs))
	if !any {
		return tl
	}
	width := hi - lo + 1
	for r := range tl.States {
		row := make([]State, width)
		ts := per[r]
		for _, t := range ts {
			row[t-lo] = Busy
		}
		// Bridge gaps shorter than alpha.
		for i := 1; i < len(ts); i++ {
			gap := ts[i] - ts[i-1] - 1
			if gap > 0 && float64(gap) < alpha {
				for t := ts[i-1] + 1; t < ts[i]; t++ {
					row[t-lo] = Active
				}
			}
		}
		tl.States[r] = row
	}
	tl.tally()
	return tl
}

// SimulateMulti derives the timeline of a single-machine multi-interval
// schedule.
func SimulateMulti(ms sched.MultiSchedule, alpha float64) Timeline {
	slots := make([]sched.Assignment, len(ms.Times))
	for i, t := range ms.Times {
		slots[i] = sched.Assignment{Proc: 0, Time: t}
	}
	return Simulate(sched.Schedule{Procs: 1, Slots: slots}, alpha)
}

// tally fills in the energy breakdown from the state matrix.
func (tl *Timeline) tally() {
	e := &tl.Energy
	e.BusyUnits, e.IdleActiveUnits, e.Transitions = 0, 0, 0
	for _, row := range tl.States {
		prev := Asleep
		for _, st := range row {
			switch st {
			case Busy:
				e.BusyUnits++
			case Active:
				e.IdleActiveUnits++
			}
			if prev == Asleep && st != Asleep {
				e.Transitions++
			}
			prev = st
		}
	}
	e.Total = float64(e.BusyUnits+e.IdleActiveUnits) + e.Alpha*float64(e.Transitions)
}

// Render draws the timeline, one row per processor:
//
//	P0 |##~~#....#|  (# busy, ~ idle-active, . asleep)
//
// followed, when some processors have no row, by one line counting them.
func (tl Timeline) Render() string {
	var b strings.Builder
	for r, row := range tl.States {
		fmt.Fprintf(&b, "P%-2d |", tl.Procs[r])
		for _, st := range row {
			b.WriteRune(st.Rune())
		}
		b.WriteString("|\n")
	}
	writeIdle(&b, tl.Idle)
	fmt.Fprintf(&b, "t = [%d, %d]   energy = %d busy + %d idle-active + %d×α wake-ups = %.2f (α=%.2f)\n",
		tl.Start, tl.End, tl.Energy.BusyUnits, tl.Energy.IdleActiveUnits, tl.Energy.Transitions,
		tl.Energy.Total, tl.Energy.Alpha)
	return b.String()
}

// SpanSummary lists, per processor, the busy spans of the schedule, with
// the rows of Schedule.BusyTimes and the idle line of Render.
func SpanSummary(s sched.Schedule) string {
	var b strings.Builder
	procs, times := s.BusyTimes()
	for r, ts := range times {
		fmt.Fprintf(&b, "P%-2d:", procs[r])
		for i := 0; i < len(ts); {
			j := i
			for j+1 < len(ts) && ts[j+1] <= ts[j]+1 {
				j++
			}
			fmt.Fprintf(&b, " [%d,%d]", ts[i], ts[j])
			i = j + 1
		}
		b.WriteString("\n")
	}
	writeIdle(&b, s.Procs-len(procs))
	return b.String()
}

// writeIdle counts the processors a rendering leaves out.
func writeIdle(b *strings.Builder, idle int) {
	if idle > 0 {
		fmt.Fprintf(b, "(+%d more processors, idle throughout)\n", idle)
	}
}
