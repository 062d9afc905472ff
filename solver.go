package gapsched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fragcache"
	"repro/internal/heur"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/sched"
)

// Objective selects what a Solver minimizes.
type Objective int

const (
	// ObjectiveGaps minimizes the total number of spans — sleep→active
	// transitions — across processors (Theorem 1).
	ObjectiveGaps Objective = iota
	// ObjectivePower minimizes total power consumption under the
	// transition cost Alpha, with idle-active bridging (Theorem 2).
	ObjectivePower
)

func (o Objective) String() string {
	switch o {
	case ObjectiveGaps:
		return "gaps"
	case ObjectivePower:
		return "power"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Mode selects which solving tier serves an instance's fragments.
type Mode int

const (
	// ModeExact (the default) runs the exact DP engine on every
	// fragment: optimal costs, polynomial but steep in fragment size.
	ModeExact Mode = iota
	// ModeHeuristic runs the near-linear greedy tier (internal/heur) on
	// every fragment: always-feasible schedules with certified
	// optimality gaps (Solution.LowerBound ≤ OPT ≤ cost), serving
	// instance sizes the exact tier cannot.
	ModeHeuristic
	// ModeAuto picks per fragment between two tiers: the exact DP engine
	// when the fragment's estimated DP size is within Solver.StateBudget
	// (see Solver.StateBudget for the two estimates), the heuristic
	// otherwise. Mixed instances thus get exact answers wherever the
	// engine is affordable, and the Solution's LowerBound stays tight
	// (exact fragments contribute their optimal cost to it).
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeHeuristic:
		return "heuristic"
	case ModeAuto:
		return "auto"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Cost returns sol's value under objective o, in the objective's own
// units: the span count (as a float) for ObjectiveGaps, the power for
// ObjectivePower. It pairs with Solution.LowerBound, which is
// expressed in the same units, so sol's certified optimality gap is
// o.Cost(sol) − sol.LowerBound.
func (o Objective) Cost(sol Solution) float64 {
	if o == ObjectivePower {
		return sol.Power
	}
	return float64(sol.Spans)
}

// ParseMode parses the mode names used by the CLIs and the wire format
// — "exact", "heuristic", "auto" — with "" meaning ModeExact.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "heuristic":
		return ModeHeuristic, nil
	case "auto":
		return ModeAuto, nil
	}
	return 0, fmt.Errorf("gapsched: unknown mode %q (want exact, heuristic or auto)", s)
}

// DefaultStateBudget is the ModeAuto exact-tier admission bound used
// when Solver.StateBudget is zero. Multiprocessor fragments of up to a
// few hundred jobs and single-processor fragments into the thousands
// (E21's dense n = 2000 and n = 4000 shapes) fit it and stay exact,
// while the huge fragments that would stall the engine go to the
// heuristic.
const DefaultStateBudget = 1 << 25

// Solver is the configured entry point to the solving pipeline:
// preprocessing (instance decomposition and coordinate compression, see
// internal/prep), the solving tiers — the exact DP engine
// (internal/core) and the certified greedy heuristic (internal/heur),
// selected by Mode — an optional canonical-fragment solution cache,
// and a bounded worker pool fed at fragment granularity (all of it for
// SolveBatch, a share sized by the instance for Solve). The zero value
// minimizes gaps exactly with preprocessing enabled and no cache.
type Solver struct {
	// Objective selects the cost model. Default: ObjectiveGaps.
	Objective Objective
	// Alpha is the sleep→active transition cost; used by
	// ObjectivePower. Must be non-negative.
	Alpha float64
	// NoPreprocess skips the prep layer and hands the raw instance to
	// the DP engine in one piece. Useful for ablation; results are
	// identical either way.
	NoPreprocess bool
	// Workers bounds the worker pool. Zero or negative means
	// GOMAXPROCS. SolveBatch uses the whole pool; Solve uses one worker
	// per 32 jobs of its instance, at least one and at most the pool, so
	// Workers: 1 keeps Solve serial. Neither starts more workers than
	// there are fragments, and answers are identical for every count.
	Workers int
	// Cache, when non-nil, is a canonical-fragment solution cache
	// consulted by Solve, SolveBatch and sessions and shared across
	// calls (and across Solvers — entries are keyed by objective,
	// alpha, and solving tier, so differently configured Solvers can
	// share one cache without ever conflating an exact fragment
	// solution with a heuristic one). For a cache scoped to one call,
	// pass a fresh NewFragmentCache.
	Cache *FragmentCache
	// Mode selects the solving tier: ModeExact (default), ModeHeuristic,
	// or ModeAuto, which decides per fragment using StateBudget.
	Mode Mode
	// StateBudget is ModeAuto's admission bound for the exact engine. A
	// fragment is solved exactly when its index-space estimate
	// (prep.StateEstimate, discounted for pruning) is at most this, or
	// when it has one effective processor and its single-processor
	// estimate (prep.SingleProcEstimate, G·(n+1)) is at most this; it
	// goes to the heuristic otherwise. Zero means DefaultStateBudget; a
	// negative budget sends every fragment to the heuristic. Ignored by
	// ModeExact and ModeHeuristic.
	StateBudget int
}

// Solution is the unified outcome of a Solver run.
type Solution struct {
	// Spans is the optimal number of spans (wake-ups) summed over
	// processors. For ObjectivePower it reports the spans of the
	// returned schedule, which need not be span-minimal.
	Spans int
	// Gaps is Spans−1 (clamped at 0), the classic gap count on one
	// processor.
	Gaps int
	// Power is the optimal power consumption; set for ObjectivePower.
	Power float64
	// Schedule is an optimal schedule for the configured objective.
	Schedule Schedule
	// States counts memoized DP subproblems, summed over sub-instances:
	// the effective size of the exact computation. Fragments served
	// from the cache report the states their solve cost when it ran, so
	// the count is independent of cache hits.
	States int
	// Subinstances is the number of independent fragments the prep
	// layer solved (1 when preprocessing is off or nothing splits, 0
	// for the empty instance).
	Subinstances int
	// CacheHits counts the fragments of this instance that were served
	// from the fragment cache (including waits on another worker's
	// in-flight solve of the same fragment). Always 0 when no cache is
	// configured.
	CacheHits int
	// ResolvedFragments and ReusedFragments are set by Session.Resolve:
	// the fragments re-solved because a delta dirtied them, and the
	// fragments whose stored solutions were reused without re-solving.
	// Both are 0 for one-shot Solve/SolveBatch results.
	ResolvedFragments int
	ReusedFragments   int
	// Mode records the Solver.Mode that produced this solution.
	Mode Mode
	// LowerBound is a certified lower bound on the optimal cost of the
	// solved instance, in the objective's own units (spans for
	// ObjectiveGaps, power for ObjectivePower): LowerBound ≤ OPT ≤ the
	// reported cost. Fragments solved exactly contribute their optimal
	// cost; fragments served by the heuristic tier contribute the
	// internal/heur certificates (Hall/density span bound,
	// active-units + forced-transitions power bound). For a pure exact
	// solve it therefore equals the optimal cost itself.
	LowerBound float64
	// HeuristicFragments counts the fragments served by the heuristic
	// tier; 0 for ModeExact, Subinstances for ModeHeuristic, and
	// in between for ModeAuto on mixed instances.
	HeuristicFragments int
	// PolyFragments is always 0. It counted a second exact backend that
	// has since been folded into the DP engine, and stays only so that
	// existing readers of the field keep compiling; the DP engine serves
	// Subinstances − HeuristicFragments.
	PolyFragments int
	// CompetitiveRatio, CommittedJobs, and CommittedCost are set by
	// Resolve on online (commit-only) sessions and zero everywhere
	// else. CompetitiveRatio is the measured ratio of the online run's
	// cost over the revealed prefix (committed units plus the current
	// run-out) to the certified LowerBound of the same prefix's offline
	// optimum — the certificate keeps the ratio honest (never
	// understated) even when the mirror solve is heuristic. It is ≥ 1
	// up to the certificate's slack. CommittedJobs counts the jobs
	// placed irrevocably; CommittedCost is the committed prefix's cost
	// in the objective's units.
	CompetitiveRatio float64
	CommittedJobs    int
	CommittedCost    float64
	// PrunedStates counts exact-tier DP subproblems answered by the
	// branch-and-bound lower bound without being expanded, summed over
	// fragments. ExpandedStates counts the subproblems the recursion
	// actually expanded; together with States they size the bounded
	// search against the full DP. Like States, fragments served from the
	// cache report the counters of the solve that populated the entry,
	// so both are independent of cache hits; heuristic fragments
	// contribute 0.
	PrunedStates   int
	ExpandedStates int
	// Timings is the per-stage wall-clock breakdown of this solve —
	// where the pipeline actually spent its time. Unlike the state
	// counters it measures this call: fragments served from the cache
	// contribute their lookup/wait time to Timings.Cache, not the
	// original solve's cost, and a Session.Resolve reports only the
	// fragments it re-solved.
	Timings Timings
}

// Timings is a solve's per-stage wall-clock breakdown. The stages
// mirror the pipeline: preprocessing (validation + decomposition),
// fragment-cache service (lookups that avoided a backend solve,
// singleflight waits included), the two solving backends, and
// reassembly (fragment schedules → instance schedule + validation).
// Durations are summed over fragments/sub-steps, so on any parallel
// solve — a SolveBatch, or a Solve large enough to use several
// workers — they report aggregate work, not elapsed wall-clock.
type Timings struct {
	Prep    time.Duration
	Cache   time.Duration
	SolveDP time.Duration
	// SolvePoly is always 0, like Solution.PolyFragments: it timed the
	// retired second exact backend and stays for existing readers.
	SolvePoly time.Duration
	SolveHeur time.Duration
	Assemble  time.Duration
}

// Solve returns the summed backend solve time across both tiers.
func (t Timings) Solve() time.Duration {
	return t.SolveDP + t.SolveHeur
}

// Total returns the summed duration of every recorded stage.
func (t Timings) Total() time.Duration {
	return t.Prep + t.Cache + t.Solve() + t.Assemble
}

// FragmentCache is a sharded, bounded (LRU per shard) cache of
// canonical-fragment solutions with in-flight deduplication: concurrent
// solves of identical fragments are performed once. It is safe for
// concurrent use and may be shared across Solvers and batches; entries
// are keyed by the fragment's canonical form plus objective and alpha
// (see internal/prep.CanonicalKey), so a hit is always an exact match.
type FragmentCache struct {
	c *fragcache.Cache[fragResult]
}

// NewFragmentCache builds a fragment cache holding at most about
// capacity fragment solutions (the bound is enforced per shard, so it
// is approximate; see internal/fragcache).
func NewFragmentCache(capacity int) *FragmentCache {
	return &FragmentCache{c: fragcache.New[fragResult](capacity)}
}

// CacheStats snapshots a FragmentCache's effectiveness counters.
type CacheStats = fragcache.Stats

// Stats snapshots the cache counters accumulated over every solve that
// used this cache.
func (fc *FragmentCache) Stats() CacheStats { return fc.c.Stats() }

// Len returns the number of fragment solutions currently stored.
func (fc *FragmentCache) Len() int { return fc.c.Len() }

// fragResult is the one per-fragment record: what solving one fragment
// produced, which backend produced it, and what obtaining it cost.
// solveFragment returns it, the FragmentCache stores it (schedule in
// canonical job order; solveFragment stamps backend, hit and dur on
// every return), and sessions keep it per fragment. Every Solution
// counter and Timings stage is folded from it (Solution.fold) and every
// fragment span is recorded from it, so they cannot disagree.
// lb is the fragment's certified lower bound — the optimal cost itself
// on the exact backend, the internal/heur certificate on the heuristic
// one. err is typically ErrInfeasible (infeasible fragments are cached
// too, so repeated infeasible duplicates do not re-run the feasibility
// machinery). dur is the wall-clock the call spent obtaining the record
// — the backend solve for a miss, the lookup (and possible singleflight
// wait) for a cache hit.
type fragResult struct {
	cost     float64
	schedule sched.Schedule
	states   int
	pruned   int
	expanded int
	lb       float64
	backend  obs.Backend
	hit      bool
	dur      time.Duration
	err      error
}

// heurTag marks heuristic-tier entries in the cache key's tag byte, so
// the tiers can never serve each other's solutions even when Solvers of
// different modes share one FragmentCache.
const heurTag = 0x80

// objectiveRuntime binds the objective- and mode-specific pieces of
// the pipeline after the configuration has been validated once: how to
// decompose an instance, how to solve one fragment on each backend,
// which backend a fragment goes to, and how to interpret the
// accumulated cost. Sharing it between Solve and SolveBatch is what
// makes their validation and results uniform.
type objectiveRuntime struct {
	tag    byte // cache-key objective tag
	alpha  float64
	mode   Mode
	budget int // resolved ModeAuto exact-tier admission bound
	plan   func(sched.Instance) *prep.Plan
	solve  [len(obs.Backends)]func(sched.Instance) fragResult // indexed by backend
	finish func(*Solution, float64)
}

// autoPruneDiscount scales ModeAuto's admission estimate to reflect
// branch-and-bound pruning: prep.StateEstimate models the unpruned
// state space, while the bounded engine expands a fraction of it on
// real workloads (the state-count reductions E21 measures run well
// above this factor), so admitting by raw estimate would send the
// exact tier's newly affordable fragments to the heuristic. Dividing
// the estimate, rather than multiplying the budget, keeps MaxInt
// budgets overflow-free.
const autoPruneDiscount = 32

// tier picks the backend serving one fragment under the configured
// mode. ModeAuto decides two ways: the exact engine when the fragment's
// index-space estimate — discounted for pruning — fits StateBudget, or
// when the fragment has one effective processor and its
// single-processor estimate fits StateBudget (at p = 1 the engine's
// level dimensions collapse to bits, so the index-space shape
// overprices it by orders of magnitude); the heuristic otherwise. A
// negative StateBudget sends every fragment to the heuristic. Every
// estimate depends only on the job multiset and processor count, so
// the decision is identical for a fragment and its canonical form.
func (rt *objectiveRuntime) tier(fr sched.Instance) obs.Backend {
	switch rt.mode {
	case ModeHeuristic:
		return obs.BackendHeur
	case ModeAuto:
		if rt.budget < 0 {
			return obs.BackendHeur
		}
		state, single, singleProc := prep.AdmissionEstimates(fr)
		if state/autoPruneDiscount <= rt.budget || singleProc && single <= rt.budget {
			return obs.BackendDP
		}
		return obs.BackendHeur
	}
	return obs.BackendDP
}

// heurErr maps the heuristic tier's infeasibility onto the facade's
// ErrInfeasible, so callers see one error identity regardless of tier.
func heurErr(err error) error {
	if errors.Is(err, heur.ErrInfeasible) {
		return ErrInfeasible
	}
	return err
}

// runtime validates the Solver configuration — Alpha, Objective, and
// Mode — in one place, so Solve and SolveBatch report identical errors
// for identical misconfigurations regardless of objective path.
func (s Solver) runtime() (objectiveRuntime, error) {
	if s.Alpha < 0 {
		return objectiveRuntime{}, fmt.Errorf("gapsched: negative transition cost alpha %v", s.Alpha)
	}
	switch s.Mode {
	case ModeExact, ModeHeuristic, ModeAuto:
	default:
		return objectiveRuntime{}, fmt.Errorf("gapsched: unknown mode %v", s.Mode)
	}
	budget := s.StateBudget
	if budget == 0 {
		budget = DefaultStateBudget
	}
	switch s.Objective {
	case ObjectiveGaps:
		return objectiveRuntime{
			tag:    byte(ObjectiveGaps),
			mode:   s.Mode,
			budget: budget,
			plan:   prep.ForGaps,
			solve: [...]func(sched.Instance) fragResult{
				obs.BackendDP: func(fr sched.Instance) fragResult {
					res, err := core.SolveGaps(fr)
					return fragResult{cost: float64(res.Spans), schedule: res.Schedule,
						states: res.States, pruned: res.PrunedStates, expanded: res.ExpandedStates,
						lb: float64(res.Spans), err: err}
				},
				obs.BackendHeur: func(fr sched.Instance) fragResult {
					res, err := heur.SolveGapsFragment(fr)
					return fragResult{cost: res.Cost, schedule: res.Schedule, lb: res.LowerBound, err: heurErr(err)}
				},
			},
			finish: func(sol *Solution, cost float64) {
				sol.Spans = int(cost)
				sol.Gaps = max(sol.Spans-1, 0)
			},
		}, nil
	case ObjectivePower:
		alpha := s.Alpha
		return objectiveRuntime{
			tag:    byte(ObjectivePower),
			alpha:  alpha,
			mode:   s.Mode,
			budget: budget,
			plan:   func(in sched.Instance) *prep.Plan { return prep.ForPower(in, alpha) },
			solve: [...]func(sched.Instance) fragResult{
				obs.BackendDP: func(fr sched.Instance) fragResult {
					res, err := core.SolvePower(fr, alpha)
					return fragResult{cost: res.Power, schedule: res.Schedule,
						states: res.States, pruned: res.PrunedStates, expanded: res.ExpandedStates,
						lb: res.Power, err: err}
				},
				obs.BackendHeur: func(fr sched.Instance) fragResult {
					res, err := heur.SolvePowerFragment(fr, alpha)
					return fragResult{cost: res.Cost, schedule: res.Schedule, lb: res.LowerBound, err: heurErr(err)}
				},
			},
			finish: func(sol *Solution, cost float64) {
				sol.Power = cost
				sol.Spans = sol.Schedule.Spans()
				sol.Gaps = max(sol.Spans-1, 0)
			},
		}, nil
	}
	return objectiveRuntime{}, fmt.Errorf("gapsched: unknown objective %v", s.Objective)
}

// fragUse says how the call folding a record came by it.
type fragUse uint8

const (
	fragSolved   fragUse = iota // obtained by this one-shot Solve or SolveBatch call
	fragResolved                // a dirty session fragment this Resolve re-solved
	fragReused                  // a clean session fragment's stored record
)

// fold adds one fragment's record to the solution; it is the only
// place per-fragment outcomes reach a Solution. The state counters,
// lower bound and backend split describe the fragment whoever solved
// it, so a reused record adds them too; CacheHits and the cache and
// solve Timings measure this call's work, so a reused record adds
// none. Costs are not folded: callers sum them in fragment order and
// hand the total to objectiveRuntime.finish.
func (sol *Solution) fold(r *fragResult, use fragUse) {
	sol.Subinstances++
	sol.States += r.states
	sol.PrunedStates += r.pruned
	sol.ExpandedStates += r.expanded
	sol.LowerBound += r.lb
	if r.backend == obs.BackendHeur {
		sol.HeuristicFragments++
	}
	switch use {
	case fragReused:
		sol.ReusedFragments++
		return
	case fragResolved:
		sol.ResolvedFragments++
	}
	switch {
	case r.hit:
		sol.CacheHits++
		sol.Timings.Cache += r.dur
	case r.backend == obs.BackendHeur:
		sol.Timings.SolveHeur += r.dur
	default:
		sol.Timings.SolveDP += r.dur
	}
}

// preparedInstance is one instance after the prep phase: its fragments
// ready to solve (each independently) and slots for their results. For
// NoPreprocess the whole raw instance is the single "fragment".
type preparedInstance struct {
	in      Instance
	plan    *prep.Plan // nil when NoPreprocess
	frags   []sched.Instance
	err     error // validation error; no fragments when set
	prepDur time.Duration
	results []fragResult
	// failed is set once any fragment errors, so batch workers skip the
	// instance's remaining fragments instead of solving results that
	// finishInstance will discard. Skipping cannot change which error
	// is reported for an uncanceled solve: fragments of a validated
	// instance only ever fail with ErrInfeasible, so the first error in
	// fragment order is the same error regardless of which fragments
	// actually ran. (Once the batch context is done, fragments fail
	// with the context's error instead, and the reported error may be
	// either — both mean "not solved".)
	failed atomic.Bool
}

// prepare runs the prep phase for one instance, timing it (the prep
// duration lands in Solution.Timings and, when a trace is attached, a
// StagePrep span).
func (s Solver) prepare(in Instance, rt objectiveRuntime, tr *obs.Trace) *preparedInstance {
	start := time.Now()
	p := &preparedInstance{in: in}
	defer func() {
		p.prepDur = time.Since(start)
		tr.Span(obs.StagePrep, "", start, p.prepDur)
	}()
	if s.NoPreprocess {
		p.frags = []sched.Instance{in}
	} else {
		if err := in.Validate(); err != nil {
			p.err = err
			return p
		}
		p.plan = rt.plan(in)
		p.frags = make([]sched.Instance, len(p.plan.Subs))
		for i, sub := range p.plan.Subs {
			p.frags[i] = sub.Instance
		}
	}
	p.results = make([]fragResult, len(p.frags))
	return p
}

// solveFragment solves one fragment on the backend the configured
// mode assigns it, through the cache when one is configured, and
// stamps the record's backend, hit and dur. Cached solves run on the
// canonical form of the fragment (jobs sorted in compressed
// coordinates) and the stored schedule is mapped back through the
// canonicalization permutation, so a hit returns a schedule of the
// fragment as given; the heuristic's entries carry a distinct key tag
// bit, so backends never serve each other's solutions. Every call is
// timed: the elapsed wall-clock lands in the result's dur and, when tr
// is non-nil, in a per-fragment span — a backend-tagged StageSolve
// span for a real solve, a StageCache span for a hit (singleflight
// waits on another worker's solve included).
func (s Solver) solveFragment(rt objectiveRuntime, fr sched.Instance, tr *obs.Trace) fragResult {
	start := time.Now()
	b := rt.tier(fr)
	solve := rt.solve[b]
	var res fragResult
	if s.Cache == nil {
		res = solve(fr)
	} else {
		tag := rt.tag
		if b == obs.BackendHeur {
			tag |= heurTag
		}
		canon, perm := prep.Canonicalize(fr)
		var hit bool
		res, hit = s.Cache.c.Do(prep.CanonicalKey(canon, tag, rt.alpha), func() fragResult { return solve(canon) })
		res.hit = hit
		if res.err == nil {
			// Canonical job i is fragment job perm[i]; their windows
			// agree, so rerouting the slots yields a valid fragment
			// schedule. The cached slice is shared and read-only; build
			// a fresh one.
			slots := make([]sched.Assignment, len(res.schedule.Slots))
			for i, a := range res.schedule.Slots {
				slots[perm[i]] = a
			}
			res.schedule = sched.Schedule{Procs: res.schedule.Procs, Slots: slots}
		}
	}
	res.backend = b
	res.dur = time.Since(start)
	stage := obs.StageSolve
	if res.hit {
		stage = obs.StageCache
	}
	tr.Span(stage, b.String(), start, res.dur)
	return res
}

// finishInstance folds per-fragment results (all of which must be
// populated unless a fragment errored, after which siblings may be
// zero-value placeholders) into one Solution: records fold and costs
// accumulate in fragment order — fixed summation order keeps float
// results bit-identical no matter which workers solved what — and the
// fragment schedules are reassembled onto the original instance. The
// first error in fragment order wins, matching a sequential solve
// exactly. The reassembly is timed into Timings.Assemble (and a
// StageAssemble span when tr is non-nil).
func (s Solver) finishInstance(p *preparedInstance, rt objectiveRuntime, tr *obs.Trace) (Solution, error) {
	if p.err != nil {
		return Solution{}, p.err
	}
	sol := Solution{Mode: s.Mode, Timings: Timings{Prep: p.prepDur}}
	parts := make([]sched.Schedule, len(p.frags))
	cost := 0.0
	for i := range p.results {
		r := &p.results[i]
		if r.err != nil {
			return Solution{}, r.err
		}
		sol.fold(r, fragSolved)
		cost += r.cost
		parts[i] = r.schedule
	}
	if p.plan == nil {
		sol.Schedule = parts[0]
	} else {
		start := time.Now()
		schedule, err := p.plan.Assemble(parts)
		if err == nil {
			err = schedule.Validate(p.in)
		}
		sol.Timings.Assemble = time.Since(start)
		tr.Span(obs.StageAssemble, "", start, sol.Timings.Assemble)
		if err != nil {
			return Solution{}, err
		}
		sol.Schedule = schedule
	}
	rt.finish(&sol, cost)
	return sol, nil
}

// Solve runs the configured pipeline on one instance. Solve is
// SolveContext with a background context.
func (s Solver) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext is Solve with cancellation and deadline support. It is a
// one-instance SolveBatchContext on one worker per 32 jobs of in, at
// least one and at most the pool (see Solver.Workers): small instances
// run their fragments in order on the calling goroutine, large ones
// spread them over the pool.
// Either way each worker observes the context before taking a
// fragment, and a done context ends the solve with ctx.Err() (wrapped).
// Fragments already running — at most one per worker — are completed;
// unit fragments are fast, so cancellation latency is bounded by the
// heaviest single fragment. A successful return is always a complete
// result, bit-identical for every worker count — partial solutions are
// never returned.
func (s Solver) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	s.Workers = solveWorkers(s.pool(), len(in.Jobs))
	r := s.SolveBatchContext(ctx, []Instance{in})[0]
	return r.Solution, r.Err
}

// solveJobsPerWorker is how many jobs of a Solve instance pay for one
// more worker. It comes from BenchmarkSolveWorkers on 2 vCPU: with
// many small fragments, a second worker was no faster at 32 jobs and
// 20–40% faster from 64 jobs on; with 64-job fragments it broke even
// until there were four fragments to share.
const solveJobsPerWorker = 32

// solveWorkers is Solve's worker count for an instance of jobs jobs
// under a pool of pool workers: one per solveJobsPerWorker jobs, at
// least one and at most pool.
func solveWorkers(pool, jobs int) int {
	return min(pool, max(1, jobs/solveJobsPerWorker))
}

// pool resolves Workers: zero or negative means GOMAXPROCS.
func (s Solver) pool() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// ctxErr converts a done context into the facade's error form.
func ctxErr(ctx context.Context) error {
	return fmt.Errorf("gapsched: solve aborted: %w", context.Cause(ctx))
}

// BatchResult pairs one instance's Solution with its error; exactly one
// of the two is meaningful.
type BatchResult struct {
	Solution Solution
	Err      error
}

// task addresses one fragment in the flattened batch work queue.
type task struct {
	inst, frag int
}

// SolveBatch solves every instance with the configured pipeline,
// distributing work across a pool bounded by Workers (default
// GOMAXPROCS) at *fragment* granularity: all instances are preprocessed
// up front, their fragments flattened into one work queue, and each
// instance's solution assembled as its last fragment completes. A
// skewed instance therefore cannot serialize the batch behind one
// worker, and — when Cache is set — identical fragments recurring
// across the batch are solved once.
//
// Results align positionally with ins and are identical to per-instance
// Solve calls (first-error semantics and bit-exact costs included),
// independent of Workers and of cache configuration — except CacheHits,
// whose attribution across instances depends on which worker reaches a
// duplicate fragment first. Instances are independent; a failure in one
// does not disturb the others.
//
// SolveBatch is SolveBatchContext with a background context.
func (s Solver) SolveBatch(ins []Instance) []BatchResult {
	return s.SolveBatchContext(context.Background(), ins)
}

// SolveBatchContext is SolveBatch with cancellation and deadline
// support. The context is observed at fragment granularity: once ctx
// is done, workers stop picking up fragments, already-running
// fragments are completed, and every instance whose solve did not
// finish reports ctx's error (instances whose fragments all completed
// before the cancellation still report their full solution). A nil
// error in a BatchResult therefore always accompanies a complete,
// bit-identical solution.
func (s Solver) SolveBatchContext(ctx context.Context, ins []Instance) []BatchResult {
	out := make([]BatchResult, len(ins))
	if len(ins) == 0 {
		return out
	}
	rt, err := s.runtime()
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}

	// Prep phase: decompose every instance, flatten the fragments. One
	// batch shares the context's trace, so its spans interleave across
	// instances; per-instance Timings stay exact regardless.
	tr := obs.FromContext(ctx)
	prepped := make([]*preparedInstance, len(ins))
	remaining := make([]atomic.Int32, len(ins))
	frags := 0
	for i, in := range ins {
		prepped[i] = s.prepare(in, rt, tr)
		frags += len(prepped[i].frags)
		remaining[i].Store(int32(len(prepped[i].frags)))
	}
	// Instances with nothing to solve (validation failures, empty
	// plans) finish immediately; the rest finish when their fragment
	// counter drains.
	queue := make([]task, 0, frags)
	for i, p := range prepped {
		if len(p.frags) == 0 {
			out[i].Solution, out[i].Err = s.finishInstance(p, rt, tr)
		}
		for f := range p.frags {
			queue = append(queue, task{inst: i, frag: f})
		}
	}

	workers := min(s.pool(), len(queue))
	// The calling goroutine is one of the workers, so a one-worker
	// solve starts no goroutine at all.
	var next atomic.Int64
	work := func() {
		for {
			qi := int(next.Add(1)) - 1
			if qi >= len(queue) {
				return
			}
			tk := queue[qi]
			p := prepped[tk.inst]
			if !p.failed.Load() {
				var res fragResult
				if ctx.Err() != nil {
					res = fragResult{err: ctxErr(ctx)}
				} else {
					res = s.solveFragment(rt, p.frags[tk.frag], tr)
				}
				p.results[tk.frag] = res
				if res.err != nil {
					p.failed.Store(true)
				}
			}
			// The worker that drains the counter observes every
			// sibling fragment's result (atomic Add orders the
			// writes) and assembles the instance.
			if remaining[tk.inst].Add(-1) == 0 {
				out[tk.inst].Solution, out[tk.inst].Err = s.finishInstance(p, rt, tr)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
