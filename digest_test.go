package gapsched

// The differential digest: a fixed seeded corpus solved through every
// Solver configuration, each answer written as one canonical line and
// the lines hashed. The answers digest covers every error text, cost,
// lower bound, fragment split and slot; the counts digest covers the
// three exact-engine state counters, so a change that moves only counts
// re-records only that constant. A change to either constant must be
// justified by the change itself: pruning or incumbent work moves
// counts, while costs, schedules and the tier of every fragment stay
// put unless a change means to move them.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

const (
	digestAnswers = "c1bf2489d3eb99f06c4aac0ed80deb5290b53c924214a3d2ac2e0376ebeb5e01"
	digestCounts  = "eb402db4fdf3991698c20c95d73526ac22fb474dd3cee488a842b60bd729ec5b"
)

// digestMixedBudget is a StateBudget that falls between the corpus's
// fragment admission estimates, so ModeAuto sends fragments to both
// tiers; TestDifferentialDigest asserts that both occur.
const digestMixedBudget = 1000

// digestCorpus is the digest's instance corpus: 300 seeded instances
// of at most 30 jobs on at most 3 processors, a third each from random
// windows (some of them infeasible), StressDense and StressBursty.
func digestCorpus() []Instance {
	rng := rand.New(rand.NewSource(2026))
	ins := make([]Instance, 300)
	for i := range ins {
		n, p := 1+rng.Intn(30), 1+rng.Intn(3)
		switch i % 3 {
		case 0:
			ins[i] = workload.Multiproc(rng, n, p, 2+rng.Intn(3*n), 1+rng.Intn(8))
		case 1:
			ins[i] = workload.StressDense(rng, n, p)
		default:
			ins[i] = workload.StressBursty(rng, n, p)
		}
	}
	return ins
}

// digestObjectives are the cost models every section solves under.
var digestObjectives = []Solver{
	{},
	{Objective: ObjectivePower, Alpha: 0.5},
	{Objective: ObjectivePower, Alpha: 2},
	{Objective: ObjectivePower, Alpha: 3.7},
}

// digestLines renders one result as its canonical answers line and
// counts line. Cache hits and timings are left out: they describe the
// call, not the answer.
func digestLines(label string, obj Objective, r BatchResult) (answer, counts string) {
	sol := r.Solution
	counts = fmt.Sprintf("%s states=%d pruned=%d expanded=%d\n", label, sol.States, sol.PrunedStates, sol.ExpandedStates)
	if r.Err != nil {
		return fmt.Sprintf("%s err=%q\n", label, r.Err.Error()), counts
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s cost=%016x lb=%016x subs=%d heur=%d slots=",
		label, math.Float64bits(obj.Cost(sol)), math.Float64bits(sol.LowerBound), sol.Subinstances, sol.HeuristicFragments)
	for _, a := range sol.Schedule.Slots {
		fmt.Fprintf(&b, "%d@%d,", a.Proc, a.Time)
	}
	b.WriteByte('\n')
	return b.String(), counts
}

// solveEach solves the corpus one Solve call at a time.
func solveEach(s Solver, corpus []Instance) []BatchResult {
	out := make([]BatchResult, len(corpus))
	for i, in := range corpus {
		out[i].Solution, out[i].Err = s.Solve(in)
	}
	return out
}

// TestDifferentialDigest solves the corpus, for gaps and for power at
// three alphas, through Solve in ModeExact, ModeHeuristic, ModeAuto at
// the default budget and ModeAuto at digestMixedBudget, and through one
// SolveBatch of the whole corpus over a shared FragmentCache at Workers
// 1 and at Workers 4, and compares the digests of every answer and
// every state count with the committed constants. Every answer's
// schedule must also validate against its instance and count the
// Solution's Spans: the facade assembles both from per-fragment
// records. The batch subtest also checks its two worker counts against
// each other, so it can run alone (repeated under the race detector)
// without the digests.
func TestDifferentialDigest(t *testing.T) {
	corpus := digestCorpus()
	answers, counts := sha256.New(), sha256.New()
	record := func(t *testing.T, section string, base Solver, results []BatchResult) (lines []string) {
		for i, r := range results {
			label := fmt.Sprintf("%s/%v/%v/%d", section, base.Objective, base.Alpha, i)
			if sol := r.Solution; r.Err == nil {
				if err := sol.Schedule.Validate(corpus[i]); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := sol.Schedule.Spans(); got != sol.Spans {
					t.Fatalf("%s: Solution.Spans %d, the schedule has %d", label, sol.Spans, got)
				}
			}
			a, c := digestLines(label, base.Objective, r)
			io.WriteString(answers, a)
			io.WriteString(counts, c)
			lines = append(lines, a, c)
		}
		return lines
	}

	sections := []struct {
		name string
		run  func(t *testing.T, base Solver)
	}{
		{"exact", func(t *testing.T, base Solver) { record(t, "exact", base, solveEach(base, corpus)) }},
		{"heuristic", func(t *testing.T, base Solver) {
			base.Mode = ModeHeuristic
			record(t, "heuristic", base, solveEach(base, corpus))
		}},
		{"auto-default", func(t *testing.T, base Solver) {
			base.Mode = ModeAuto
			record(t, "auto-default", base, solveEach(base, corpus))
		}},
		{"auto-mixed", func(t *testing.T, base Solver) {
			base.Mode, base.StateBudget = ModeAuto, digestMixedBudget
			results := solveEach(base, corpus)
			record(t, "auto-mixed", base, results)
			heurFrags, dpFrags := 0, 0
			for _, r := range results {
				heurFrags += r.Solution.HeuristicFragments
				dpFrags += r.Solution.Subinstances - r.Solution.HeuristicFragments
			}
			if heurFrags == 0 || dpFrags == 0 {
				t.Fatalf("%v α=%v: budget %d sent %d fragments to the engine and %d to the heuristic; the section needs both tiers",
					base.Objective, base.Alpha, digestMixedBudget, dpFrags, heurFrags)
			}
		}},
		{"batch", func(t *testing.T, base Solver) {
			base.Mode, base.StateBudget = ModeAuto, digestMixedBudget
			var prev []string
			for _, workers := range []int{1, 4} {
				s := base
				s.Workers, s.Cache = workers, NewFragmentCache(1024)
				lines := record(t, "batch", base, s.SolveBatch(corpus))
				for i := range prev {
					if lines[i] != prev[i] {
						t.Fatalf("%v α=%v: Workers 4 answered\n%s Workers 1 answered\n%s", base.Objective, base.Alpha, lines[i], prev[i])
					}
				}
				prev = lines
			}
		}},
	}
	ran := 0
	for _, sec := range sections {
		t.Run(sec.name, func(t *testing.T) {
			ran++
			for _, base := range digestObjectives {
				sec.run(t, base)
			}
		})
	}
	if ran < len(sections) {
		return // a -run filter chose a subset: the digests cover every section
	}
	if got := hex.EncodeToString(answers.Sum(nil)); got != digestAnswers {
		t.Errorf("answers digest %s, committed %s: a cost, bound, schedule, tier or error changed", got, digestAnswers)
	}
	if got := hex.EncodeToString(counts.Sum(nil)); got != digestCounts {
		t.Errorf("counts digest %s, committed %s: a States, PrunedStates or ExpandedStates count changed", got, digestCounts)
	}
}

// digestEngine is the SHA-256 of every engine digest line; see
// TestEngineDigest.
const digestEngine = "04c910364c717874adc12544780f6e507e73acc564666bb22de5648c8aa110d9"

// TestEngineDigest runs the digest corpus through the exact engine
// directly, without prep, cache or tiers: gaps bounded, under NoPrune
// and under FullGrid, and power at every digest alpha bounded and under
// NoPrune. Each result is one line — the error text, or the cost's
// float bits, every slot and the three state counts — and the SHA-256
// of all lines must equal digestEngine. The facade digest never runs
// NoPrune or FullGrid, so this is what pins the unbounded recursion and
// the full grid on the whole corpus.
func TestEngineDigest(t *testing.T) {
	type lane struct {
		label string
		obj   core.Objective
		opts  core.Options
	}
	lanes := []lane{
		{"gaps/bounded", core.Objective{}, core.Options{}},
		{"gaps/noprune", core.Objective{}, core.Options{NoPrune: true}},
		{"gaps/fullgrid", core.Objective{}, core.Options{FullGrid: true}},
	}
	for _, alpha := range []float64{0.5, 2, 3.7} {
		power := core.Objective{Power: true, Alpha: alpha}
		lanes = append(lanes,
			lane{fmt.Sprintf("power/%v/bounded", alpha), power, core.Options{}},
			lane{fmt.Sprintf("power/%v/noprune", alpha), power, core.Options{NoPrune: true}})
	}
	corpus := digestCorpus()
	h := sha256.New()
	for _, l := range lanes {
		for i, in := range corpus {
			r, err := core.Solve(in, l.obj, l.opts)
			if err != nil {
				fmt.Fprintf(h, "%s/%d err=%q\n", l.label, i, err.Error())
				continue
			}
			fmt.Fprintf(h, "%s/%d cost=%016x states=%d pruned=%d expanded=%d slots=",
				l.label, i, math.Float64bits(r.Cost), r.States, r.PrunedStates, r.ExpandedStates)
			for _, a := range r.Schedule.Slots {
				fmt.Fprintf(h, "%d@%d,", a.Proc, a.Time)
			}
			io.WriteString(h, "\n")
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digestEngine {
		t.Errorf("engine digest %s, committed %s: an engine cost, schedule, error or state count changed", got, digestEngine)
	}
}
