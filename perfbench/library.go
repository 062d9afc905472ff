package main

// The library workloads: a closed loop of facade calls over a fixed
// pool, with no fragment cache. exact-batch calls SolveBatch with one
// worker per CPU in ModeExact; auto-scale calls Solve on one large
// instance at a time in ModeAuto.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	gapsched "repro"
	"repro/internal/prep"
	"repro/internal/sched"
)

// setupRepeats is how many times a run sets the system up; setup_s is
// the median.
const setupRepeats = 3

// libraryWorkload is one closed-loop library workload.
type libraryWorkload struct {
	mode  gapsched.Mode
	batch bool // SolveBatch with one worker per CPU, else Solve
	ops   []libraryOp
}

func runExactBatch(o options, rep *report) error {
	return runLibrary(o, rep, &libraryWorkload{mode: gapsched.ModeExact, batch: true, ops: exactBatchOps(o.seed, o.quick)})
}

func runAutoScale(o options, rep *report) error {
	return runLibrary(o, rep, &libraryWorkload{mode: gapsched.ModeAuto, ops: autoScaleOps(o.seed, o.quick)})
}

func (w *libraryWorkload) solver(obj gapsched.Objective) gapsched.Solver {
	s := gapsched.Solver{Objective: obj, Mode: w.mode}
	if obj == gapsched.ObjectivePower {
		s.Alpha = alpha
	}
	if w.batch {
		s.Workers = runtime.NumCPU()
	}
	return s
}

// call runs one op through the facade.
func (w *libraryWorkload) call(op libraryOp) []gapsched.BatchResult {
	s := w.solver(op.Objective)
	if w.batch {
		return s.SolveBatch(op.Instances)
	}
	sol, err := s.Solve(op.Instances[0])
	return []gapsched.BatchResult{{Solution: sol, Err: err}}
}

// tally accumulates timed passes. lats holds every call's latency, in
// op order; byObjective splits the work by objective.
type tally struct {
	busy        time.Duration
	lats        []time.Duration
	jobs, count int
	cost        float64
	byObjective [2]struct {
		busy time.Duration
		jobs int
	}
}

// add folds pass p into t.
func (t *tally) add(p tally) {
	t.busy += p.busy
	t.lats = append(t.lats, p.lats...)
	t.jobs += p.jobs
	t.count += p.count
	t.cost += p.cost
	for i := range t.byObjective {
		t.byObjective[i].busy += p.byObjective[i].busy
		t.byObjective[i].jobs += p.byObjective[i].jobs
	}
}

// pass runs every op once and checks every answer: a valid schedule
// whose recomputed cost is the reported one and, when ref is non-nil,
// equals the reference pass's cost. It returns the checked costs and
// adds the pass to t when t is non-nil.
func (w *libraryWorkload) pass(rep *report, ref [][]float64, t *tally) [][]float64 {
	costs := make([][]float64, len(w.ops))
	for i, op := range w.ops {
		start := time.Now()
		res := w.call(op)
		d := time.Since(start)
		for k, br := range res {
			c, err := math.NaN(), br.Err
			if err == nil {
				c, err = verify(op.Instances[k], op.Objective, br.Solution)
			}
			if err == nil && ref != nil && c != ref[i][k] {
				err = fmt.Errorf("op %d instance %d: cost %v, reference pass %v", i, k, c, ref[i][k])
			}
			rep.check(err)
			costs[i] = append(costs[i], c)
			if err == nil && t != nil {
				n := len(op.Instances[k].Jobs)
				t.jobs += n
				t.count++
				t.cost += c
				t.byObjective[op.Objective].jobs += n
			}
		}
		if t != nil {
			t.busy += d
			t.lats = append(t.lats, d)
			t.byObjective[op.Objective].busy += d
		}
	}
	return costs
}

// verify checks one solution against its instance — a valid schedule
// whose recomputed cost is the reported cost, with the lower bound
// below it — and returns the cost.
func verify(in sched.Instance, obj gapsched.Objective, sol gapsched.Solution) (float64, error) {
	if err := sol.Schedule.Validate(in); err != nil {
		return math.NaN(), err
	}
	cost, got := obj.Cost(sol), float64(sol.Schedule.Spans())
	if obj == gapsched.ObjectivePower {
		got = sol.Schedule.PowerCost(alpha)
	}
	if !closeTo(got, cost) {
		return math.NaN(), fmt.Errorf("reported cost %v, schedule costs %v", cost, got)
	}
	if sol.LowerBound > cost && !closeTo(sol.LowerBound, cost) {
		return math.NaN(), fmt.Errorf("lower bound %v above cost %v", sol.LowerBound, cost)
	}
	return cost, nil
}

// closeTo compares costs recomputed in a different summation order.
func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// stepLatencies returns each closed-loop step's median latency over the
// passes, in ms. A step is one gaps op and the power op after it: it
// asks for both objectives, so step latencies form one mode where single
// calls split into a fast gaps and a slow power mode. The median over
// passes keeps a stall in one pass out of the step's figure.
func stepLatencies(lats []time.Duration, ops int) []float64 {
	steps := make([]float64, 0, ops/2)
	for i := 0; i+1 < ops; i += 2 {
		var per []float64
		for p := 0; p+ops <= len(lats); p += ops {
			per = append(per, ms(lats[p+i]+lats[p+i+1]))
		}
		steps = append(steps, percentile(per, .5))
	}
	return steps
}

func runLibrary(o options, rep *report, w *libraryWorkload) error {
	if o.trace {
		return w.traced(o, rep)
	}
	// The reference pass fixes every instance's cost before anything is
	// timed.
	ref := w.pass(rep, nil, nil)

	// Set-up: a fresh Solver per objective answers the first step — one
	// gaps op and one power op — which fills the engine's memo pools.
	first := &libraryWorkload{mode: w.mode, batch: w.batch, ops: w.ops[:2]}
	setups := make([]float64, setupRepeats)
	for i := range setups {
		start := time.Now()
		first.pass(rep, ref[:2], nil)
		setups[i] = time.Since(start).Seconds()
	}

	// Whole passes, at least three, until the calls have run for the
	// measured time: every instance weighs the same in cost_per_job, and
	// the rates are the median pass's.
	var t tally
	var jobRates, rates []float64
	allocs, cpu := allocated(), cpuTime()
	budget := time.Duration(o.seconds) * time.Second
	for len(rates) < 3 || t.busy < budget {
		var p tally
		w.pass(rep, ref, &p)
		jobRates = append(jobRates, float64(p.jobs)/p.busy.Seconds())
		rates = append(rates, float64(p.count)/p.busy.Seconds())
		t.add(p)
	}
	passes := len(rates)
	allocs, cpu = allocated()-allocs, cpuTime()-cpu

	steps := stepLatencies(t.lats, len(w.ops))
	p50, p99 := percentile(steps, .5), percentile(steps, .99)
	rep.set("setup_s", percentile(setups, .5), len(setups))
	rep.set("alloc_kib_per_job", float64(allocs)/1024/float64(t.jobs), t.jobs)
	rep.set("cpu_us_per_job", us(cpu)/float64(t.jobs), t.jobs)
	rep.set("max_rss_mb", peakRSSMiB(), 0)
	rep.set("jobs_per_s", percentile(jobRates, .5), passes)
	rep.set("cost_per_job", t.cost/float64(t.jobs), t.count)
	rep.set("solve_p50_ms", p50, len(t.lats)/2)
	rep.set("solve_p99_ms", p99, len(t.lats)/2)
	// A library caller has no incremental class: the session pair repeats
	// the step latency so every workload reports every metric.
	rep.set("session_p50_ms", p50, len(t.lats)/2)
	rep.set("session_p99_ms", p99, len(t.lats)/2)
	rep.set("max_rps", percentile(rates, .5), passes)

	var b strings.Builder
	fmt.Fprintf(&b, "closed loop: %d passes over %d ops, %d instances, %.3f s in calls\n", passes, len(w.ops), t.count, t.busy.Seconds())
	for obj, s := range t.byObjective {
		fmt.Fprintf(&b, "  %-6s %9d jobs %9.3f s %12.1f jobs/s\n", gapsched.Objective(obj), s.jobs, s.busy.Seconds(), div(float64(s.jobs), s.busy.Seconds()))
	}
	rep.table(b.String())
	return nil
}

// stageStats accumulates the staged pass's counters.
type stageStats struct {
	instances, fragments             int
	split, canon, assemble, overhead time.Duration
	backend                          map[string]*backendStats // by layer: core, poly, heur
}

type backendStats struct {
	fragments, jobs, expanded, pruned int
	busy                              time.Duration
	cost, lb                          float64
}

// stage solves one instance the way the facade does, one layer call at a
// time, each wrapped in a span: prep.ForGaps/ForPower (with Validate);
// per fragment Canonicalize+CanonicalKey, then a NoPreprocess Solve whose
// Solution names the backend that ran and how long it took;
// Plan.Assemble+Schedule.Validate. It returns the summed cost.
func (st *stageStats) stage(rec *recorder, op int, in sched.Instance, obj gapsched.Objective, s gapsched.Solver) (float64, error) {
	start := time.Now()
	err := in.Validate()
	var plan *prep.Plan
	if err == nil {
		if obj == gapsched.ObjectivePower {
			plan = prep.ForPower(in, alpha)
		} else {
			plan = prep.ForGaps(in)
		}
	}
	d := time.Since(start)
	rec.add("prep.ForGaps|ForPower", "prep", op, -1, start, d)
	st.split += d
	st.instances++
	if err != nil {
		return 0, err
	}
	keyAlpha := 0.0
	if obj == gapsched.ObjectivePower {
		keyAlpha = alpha
	}
	parts := make([]sched.Schedule, len(plan.Subs))
	cost := 0.0
	for f, sub := range plan.Subs {
		start = time.Now()
		canon, _ := prep.Canonicalize(sub.Instance)
		prep.CanonicalKey(canon, byte(obj), keyAlpha)
		d = time.Since(start)
		rec.add("prep.Canonicalize+CanonicalKey", "prep", op, -1, start, d)
		st.canon += d

		start = time.Now()
		sol, err := s.Solve(sub.Instance)
		d = time.Since(start)
		parent := rec.add("gapsched.Solver.Solve", "gapsched", op, -1, start, d)
		if err != nil {
			return 0, err
		}
		layer, busy := "core", sol.Timings.SolveDP
		switch {
		case sol.HeuristicFragments > 0:
			layer, busy = "heur", sol.Timings.SolveHeur
		case sol.PolyFragments > 0:
			layer, busy = "poly", sol.Timings.SolvePoly
		}
		// The backend's own timing, nested in the facade call.
		rec.add(layer, layer, op, parent, start, busy)
		st.overhead += d - busy
		st.fragments++
		b := st.backend[layer]
		b.fragments++
		b.jobs += len(sub.Instance.Jobs)
		b.busy += busy
		b.expanded += sol.ExpandedStates
		b.pruned += sol.PrunedStates
		b.cost += obj.Cost(sol)
		b.lb += sol.LowerBound
		cost += obj.Cost(sol)
		parts[f] = sol.Schedule
	}
	start = time.Now()
	schedule, err := plan.Assemble(parts)
	if err == nil {
		err = schedule.Validate(in)
	}
	d = time.Since(start)
	rec.add("prep.Plan.Assemble+Schedule.Validate", "prep", op, -1, start, d)
	st.assemble += d
	return cost, err
}

// traced times one plain pass, then runs the same pass staged under
// spans, checks that the staged costs equal the plain ones, and
// reports the per-layer metrics and cost table.
func (w *libraryWorkload) traced(o options, rep *report) error {
	var plain tally
	ref := w.pass(rep, nil, &plain)

	rec := newRecorder()
	st := &stageStats{backend: map[string]*backendStats{"core": {}, "poly": {}, "heur": {}}}
	start := time.Now()
	for i, op := range w.ops {
		s := w.solver(op.Objective)
		s.NoPreprocess = true
		for k, in := range op.Instances {
			c, err := st.stage(rec, i, in, op.Objective, s)
			if err == nil && c != ref[i][k] {
				err = fmt.Errorf("op %d instance %d: staged cost %v, plain %v", i, k, c, ref[i][k])
			}
			rep.check(err)
		}
	}
	traced := time.Since(start)
	if err := rec.write(o); err != nil {
		return err
	}

	core, poly, heur := st.backend["core"], st.backend["poly"], st.backend["heur"]
	rep.set("gapsched.fragments.dp", float64(core.fragments), 0)
	rep.set("gapsched.fragments.poly", float64(poly.fragments), 0)
	rep.set("gapsched.fragments.heuristic", float64(heur.fragments), 0)
	rep.set("gapsched.overhead_us", div(us(st.overhead), float64(st.fragments)), st.fragments)
	rep.set("prep.split_us", div(us(st.split), float64(st.instances)), st.instances)
	rep.set("prep.fragments", float64(st.fragments), 0)
	rep.set("prep.canon_us", div(us(st.canon), float64(st.fragments)), st.fragments)
	rep.set("prep.assemble_us", div(us(st.assemble), float64(st.instances)), st.instances)
	rep.set("core.busy_ms", ms(core.busy), 0)
	rep.set("core.fragments", float64(core.fragments), 0)
	rep.set("core.expanded_states", float64(core.expanded), 0)
	rep.set("core.ns_per_expanded_state", div(float64(core.busy), float64(core.expanded)), core.fragments)
	rep.set("core.prune_ratio", div(float64(core.pruned), float64(core.pruned+core.expanded)), 0)
	rep.set("poly.busy_ms", ms(poly.busy), 0)
	rep.set("poly.fragments", float64(poly.fragments), 0)
	rep.set("poly.expanded_states", float64(poly.expanded), 0)
	rep.set("heur.busy_ms", ms(heur.busy), 0)
	rep.set("heur.fragments", float64(heur.fragments), 0)
	rep.set("heur.jobs", float64(heur.jobs), 0)
	rep.set("heur.lb_ratio", div(heur.cost, heur.lb), heur.fragments)
	rep.set("trace_overhead", div(traced.Seconds(), plain.busy.Seconds()), 0)

	self, calls := rec.selfTimes()
	notes := []string{
		"core includes the internal/heur greedy it runs to seed its branch-and-bound incumbent",
		"prep includes Canonicalize+CanonicalKey, which the plain pass (no cache) does not run",
	}
	if w.batch {
		notes = append(notes, fmt.Sprintf("the plain pass runs SolveBatch with %d workers; the staged pass is sequential", runtime.NumCPU()))
	}
	layerTable(rep, fmt.Sprintf("per-layer self time, staged pass of %d ops (plain pass %.3f ms)", len(w.ops), ms(plain.busy)),
		self, calls, traced, notes...)
	return nil
}
