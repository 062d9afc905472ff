// Command gapsched solves scheduling instances produced by cmd/gapgen
// (or hand-written JSON) and prints the schedule, its span/gap counts,
// its power consumption and a rendered power-state timeline.
//
// Usage:
//
//	gapgen -kind one-interval -n 12 | gapsched -algo gaps
//	gapsched -input instance.json -algo power -alpha 3
//	gapgen -profile dense -n 100000 | gapsched -algo gaps -mode heuristic -quiet
//	gapsched -input instance.json -algo gaps -mode auto -state-budget 1000000
//	gapsched -input multi.json -algo approx
//	gapsched -input multi.json -algo throughput -budget 3
//	gapsched -stream -algo power -alpha 3 -mode auto < deltas.txt
//	gapsched -stream -online -algo gaps < arrivals.txt
//
// Algorithms: gaps (Thm 1 exact), power (Thm 2 exact), greedy
// ([FHKN06] baseline, single processor), edf (online baseline),
// approx (Thm 3 multi-interval pipeline), naive (matching baseline),
// throughput (Thm 11 greedy).
//
// The gaps and power algorithms accept -trace, which prints the solve's
// per-stage span summary (prep, cache, per-backend solve, assemble)
// recorded through the observability layer (internal/obs).
//
// The gaps and power algorithms accept -mode exact|heuristic|auto and
// -state-budget, selecting the solving tier per fragment: heuristic
// runs the near-linear greedy with a certified lower bound (printed
// with the cost as an optimality-gap ratio), auto solves each fragment
// exactly when its admission estimate (prep.AdmissionEstimate) fits the
// budget and heuristically otherwise. Both flags also apply to -stream
// sessions.
//
// Stream mode (-stream, gaps and power only) drives an incremental
// scheduling session instead of a one-shot solve: the input is a
// line-oriented delta script — "add R D" (or "+ R D") inserts a unit
// job with window [R,D] and prints its id, "remove ID" (or "- ID")
// deletes one — and after every delta the evolving optimal cost is
// re-resolved incrementally (only the schedule fragments the delta
// touched are re-solved) and printed. Blank lines and #-comments are
// skipped; an infeasible state is reported and the stream continues.
//
// Online mode (-stream -online) makes the session commit-only: jobs
// must arrive in non-decreasing release order, removals are rejected,
// and every time unit up to the latest arrival is committed
// irrevocably, with idle gaps priced by the α-threshold power-down
// rule. Each resolve line then also reports the measured competitive
// ratio — the committed-run cost over the certified lower bound of
// the revealed prefix's offline optimum.
//
// Unknown flags, bad flag values (a NaN or infinite -alpha among them)
// and stray positional arguments exit with status 2 and the usage
// text, matching the other CLIs.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	gapsched "repro"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sched"
)

// options is the parsed command line.
type options struct {
	input, algo string
	alpha       float64
	budget      int
	procs       int
	mode        string
	stateBudget int
	stream      bool
	online      bool
	quiet       bool
	trace       bool
}

// parseArgs parses the command line with the shared CLI conventions
// (internal/cli), without touching global state: flag.ErrHelp passes
// through for -h, and unknown flags, bad values (a NaN or infinite
// -alpha among them), and stray positional arguments error after
// printing the usage text to stderr.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("gapsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.input, "input", "-", "instance JSON file (- for stdin)")
	fs.StringVar(&o.algo, "algo", "gaps", "gaps | power | greedy | edf | approx | naive | throughput")
	fs.Float64Var(&o.alpha, "alpha", -1, "transition cost (overrides the file's alpha when ≥ 0)")
	fs.IntVar(&o.budget, "budget", 2, "span budget for -algo throughput")
	fs.IntVar(&o.procs, "procs", 1, "processor count for -stream sessions")
	fs.StringVar(&o.mode, "mode", "exact", "solver tier for gaps/power: exact | heuristic | auto")
	fs.IntVar(&o.stateBudget, "state-budget", 0, "auto mode solves a fragment exactly when its admission estimate is at most this (0 = default, negative = never)")
	fs.BoolVar(&o.stream, "stream", false, "read job deltas line by line and resolve incrementally")
	fs.BoolVar(&o.online, "online", false, "commit-only online session with measured competitive ratio (requires -stream)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress the timeline rendering")
	fs.BoolVar(&o.trace, "trace", false, "print the per-stage solve trace (gaps and power)")
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	// A negative -alpha defers to the file's alpha; no other value can
	// stand for "unset", so a NaN, infinite or too large one is a bad
	// value.
	if math.IsNaN(o.alpha) || math.IsInf(o.alpha, 0) || o.alpha > sched.MaxAlpha {
		fmt.Fprintf(stderr, "invalid value %v for flag -alpha: not finite or above 2^53\n", o.alpha)
		fs.Usage()
		return options{}, fmt.Errorf("gapsched: -alpha %v is not finite or above 2^53", o.alpha)
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(cli.Status(err))
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "gapsched: %v\n", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	input, algo, alpha, budget, quiet := o.input, o.algo, o.alpha, o.budget, o.quiet
	mode, err := gapsched.ParseMode(o.mode)
	if err != nil {
		return err
	}
	if o.online && !o.stream {
		return errors.New("-online requires -stream")
	}
	var r io.Reader = os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if o.stream {
		return runStream(r, o, mode, w)
	}
	file, err := sched.ReadJSON(r)
	if err != nil {
		return err
	}
	if alpha < 0 {
		alpha = file.Alpha
	}

	switch algo {
	case "gaps", "power", "greedy", "edf":
		if file.Instance == nil {
			return fmt.Errorf("algorithm %q needs a one-interval instance", algo)
		}
		return runOneInterval(*file.Instance, o, mode, alpha, quiet, w)
	case "approx", "naive", "throughput":
		mi := file.Multi
		if mi == nil {
			if file.Instance == nil {
				return fmt.Errorf("algorithm %q needs a multi-interval instance", algo)
			}
			laid, _ := gapsched.LayOut(*file.Instance)
			mi = &laid
			fmt.Fprintf(w, "note: laid out %d-processor instance onto a single timeline\n", file.Instance.Procs)
		}
		return runMulti(*mi, algo, alpha, budget, quiet, w)
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
}

func runOneInterval(in sched.Instance, o options, mode gapsched.Mode, alpha float64, quiet bool, w io.Writer) error {
	algo := o.algo
	// -trace threads an obs.Trace through the solve, so the facade
	// records its per-stage spans; printTrace renders them afterwards.
	ctx := context.Background()
	var tr *obs.Trace
	if o.trace && (algo == "gaps" || algo == "power") {
		tr = obs.NewTrace(algo)
		ctx = obs.With(ctx, tr)
	}
	var (
		s   sched.Schedule
		err error
	)
	switch algo {
	case "gaps":
		var sol gapsched.Solution
		sol, err = gapsched.Solver{Objective: gapsched.ObjectiveGaps, Mode: mode, StateBudget: o.stateBudget}.SolveContext(ctx, in)
		if err == nil {
			s = sol.Schedule
			fmt.Fprintf(w, "%s wake-ups (spans): %d   gaps: %d   DP states: %d   sub-instances: %d\n",
				tierLabel(sol), sol.Spans, sol.Gaps, sol.States, sol.Subinstances)
			printCertificate(w, sol, float64(sol.Spans))
		}
	case "power":
		var sol gapsched.Solution
		sol, err = gapsched.Solver{Objective: gapsched.ObjectivePower, Alpha: alpha, Mode: mode, StateBudget: o.stateBudget}.SolveContext(ctx, in)
		if err == nil {
			s = sol.Schedule
			fmt.Fprintf(w, "%s power: %.3f (α=%.2f)   DP states: %d   sub-instances: %d\n",
				tierLabel(sol), sol.Power, alpha, sol.States, sol.Subinstances)
			printCertificate(w, sol, sol.Power)
		}
	case "greedy":
		var res gapsched.GreedyResult
		res, err = gapsched.GreedyGapSchedule(in)
		if err == nil {
			s = res.Schedule
			fmt.Fprintf(w, "greedy wake-ups (spans): %d   forbidden intervals: %d\n", res.Spans, len(res.Forbidden))
		}
	case "edf":
		var ok bool
		s, ok = gapsched.EDF(in)
		if !ok {
			err = gapsched.ErrInfeasible
		} else {
			fmt.Fprintf(w, "EDF wake-ups (spans): %d\n", s.Spans())
		}
	}
	if err != nil {
		return err
	}
	if tr != nil {
		printTrace(w, tr)
	}
	fmt.Fprintf(w, "power at α=%.2f: %.3f\n", alpha, s.PowerCost(alpha))
	printAssignments(w, s)
	if !quiet {
		fmt.Fprint(w, power.Simulate(s, alpha).Render())
		fmt.Fprint(w, power.SpanSummary(s))
	}
	return nil
}

// printTrace renders a solve's per-stage span summary: every recorded
// stage (backend-tagged where a backend served it) with its span
// count and summed duration, in pipeline order.
func printTrace(w io.Writer, tr *obs.Trace) {
	tr.Finish(nil)
	d := tr.Data()
	fmt.Fprintf(w, "trace (%v total):\n", d.Dur)
	for _, st := range d.Stages() {
		fmt.Fprintf(w, "  %-18s ×%-4d %v\n", st.Label(), st.Count, st.Dur)
	}
}

func runMulti(mi sched.MultiInstance, algo string, alpha float64, budget int, quiet bool, w io.Writer) error {
	switch algo {
	case "approx":
		ms, st, err := gapsched.ApproxMultiPower(mi, alpha, gapsched.ApproxOptions{SearchDepth: 2})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "approx spans: %d   power: %.3f (α=%.2f)   packed %d jobs in %d runs (shift %d)\n",
			st.Spans, st.Power, alpha, st.PackedJobs, st.PackedRuns, st.Shift)
		if !quiet {
			fmt.Fprint(w, power.SimulateMulti(ms, alpha).Render())
		}
	case "naive":
		ms, err := gapsched.AnyMultiSchedule(mi)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "naive spans: %d   power: %.3f (α=%.2f)\n", ms.Spans(), ms.PowerCost(alpha), alpha)
		if !quiet {
			fmt.Fprint(w, power.SimulateMulti(ms, alpha).Render())
		}
	case "throughput":
		res, err := gapsched.MaxThroughput(mi, budget)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "scheduled %d of %d jobs in %d spans (budget %d)\n", res.Jobs(), mi.N(), res.Spans, budget)
		var jobs []int
		for j := range res.Scheduled {
			jobs = append(jobs, j)
		}
		sort.Ints(jobs)
		for _, j := range jobs {
			fmt.Fprintf(w, "  job %d at t=%d\n", j, res.Scheduled[j])
		}
	}
	return nil
}

// tierLabel describes a solution's cost quality: "optimal" unless some
// fragment was served by the heuristic tier.
func tierLabel(sol gapsched.Solution) string {
	if sol.HeuristicFragments > 0 {
		return "heuristic"
	}
	return "optimal"
}

// printCertificate reports the mode and certified optimality gap of a
// solution that was not (entirely) served by the exact tier.
func printCertificate(w io.Writer, sol gapsched.Solution, cost float64) {
	if sol.Mode == gapsched.ModeExact {
		return
	}
	ratio := 1.0
	if sol.LowerBound > 0 {
		ratio = cost / sol.LowerBound
	}
	fmt.Fprintf(w, "mode: %s   certified lower bound: %.3f   cost/LB ratio: %.3f   heuristic fragments: %d/%d\n",
		sol.Mode, sol.LowerBound, ratio, sol.HeuristicFragments, sol.Subinstances)
}

// runStream drives an incremental session from a line-oriented delta
// script: "add R D"/"+ R D" inserts a job, "remove ID"/"- ID" deletes
// one, and after every delta the evolving cost is re-resolved
// incrementally and printed together with the fragment-reuse counters
// (plus the certified lower bound when the session runs on a
// non-exact mode). With -online the session is commit-only and each
// resolve line reports the measured competitive ratio. A negative
// alpha (the flag default) means 0.
func runStream(r io.Reader, o options, mode gapsched.Mode, w io.Writer) error {
	algo, alpha, procs := o.algo, o.alpha, o.procs
	if alpha < 0 {
		alpha = 0
	}
	s := gapsched.Solver{Mode: mode, StateBudget: o.stateBudget}
	switch algo {
	case "gaps":
	case "power":
		s.Objective, s.Alpha = gapsched.ObjectivePower, alpha
	default:
		return fmt.Errorf("-stream supports gaps and power, not %q", algo)
	}
	open := s.Open
	if o.online {
		open = s.OpenOnline
	}
	sess, err := open(procs)
	if err != nil {
		return err
	}
	defer sess.Close()

	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		var what string
		switch op := fields[0]; {
		case (op == "add" || op == "+") && len(fields) == 3:
			rel, err1 := strconv.Atoi(fields[1])
			dl, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("line %d: bad window %q %q", line, fields[1], fields[2])
			}
			id, err := sess.Add(gapsched.Job{Release: rel, Deadline: dl})
			if err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			what = fmt.Sprintf("+[%d,%d] id=%d", rel, dl, id)
		case (op == "remove" || op == "-") && len(fields) == 2:
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return fmt.Errorf("line %d: bad job id %q", line, fields[1])
			}
			if err := sess.Remove(id); err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			what = fmt.Sprintf("-id=%d", id)
		default:
			return fmt.Errorf("line %d: want \"add R D\" or \"remove ID\", got %q", line, sc.Text())
		}

		sol, err := sess.Resolve()
		switch {
		case errors.Is(err, gapsched.ErrInfeasible):
			fmt.Fprintf(w, "%-16s jobs=%-4d INFEASIBLE\n", what, sess.Len())
			continue
		case err != nil:
			return fmt.Errorf("line %d: %v", line, err)
		}
		cost := fmt.Sprintf("spans=%d gaps=%d", sol.Spans, sol.Gaps)
		if algo == "power" {
			cost = fmt.Sprintf("power=%.3f (α=%.2f)", sol.Power, alpha)
		}
		if sol.Mode != gapsched.ModeExact {
			cost += fmt.Sprintf(" lb=%.3f heur=%d", sol.LowerBound, sol.HeuristicFragments)
		}
		if o.online {
			cost += fmt.Sprintf(" ratio=%.3f committed=%d", sol.CompetitiveRatio, sol.CommittedJobs)
		}
		fmt.Fprintf(w, "%-16s jobs=%-4d frags=%-3d resolved=%-3d reused=%-3d %s\n",
			what, sess.Len(), sol.Subinstances, sol.ResolvedFragments, sol.ReusedFragments, cost)
	}
	return sc.Err()
}

func printAssignments(w io.Writer, s sched.Schedule) {
	type row struct{ job, proc, time int }
	rows := make([]row, len(s.Slots))
	for i, a := range s.Slots {
		rows[i] = row{i, a.Proc, a.Time}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].time != rows[b].time {
			return rows[a].time < rows[b].time
		}
		return rows[a].proc < rows[b].proc
	})
	for _, r := range rows {
		fmt.Fprintf(w, "  t=%-4d P%-2d job %d\n", r.time, r.proc, r.job)
	}
}
