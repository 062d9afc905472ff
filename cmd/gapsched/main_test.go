package main

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// Command-line errors must exit non-zero with the usage text, matching
// every CLI in this repository.
func TestGapschedRejectsBadCommandLines(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"positional argument", []string{"extra"}},
		{"trailing argument", []string{"-algo", "gaps", "extra"}},
		{"bad value", []string{"-budget", "many"}},
		{"NaN alpha", []string{"-algo", "power", "-alpha", "NaN"}},
		{"infinite alpha", []string{"-algo", "power", "-alpha", "Inf"}},
		{"negative infinite alpha", []string{"-stream", "-algo", "power", "-alpha", "-Inf"}},
		{"alpha above 2^53", []string{"-algo", "power", "-alpha", "1e308"}},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		if _, err := parseArgs(c.args, &stderr); err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s: gapsched %v accepted, want error", c.name, c.args)
		}
		if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "-algo") {
			t.Errorf("%s: no usage text on stderr:\n%s", c.name, stderr.String())
		}
	}
	if _, err := parseArgs([]string{"-h"}, &bytes.Buffer{}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	o, err := parseArgs([]string{"-algo", "power", "-alpha", "3", "-quiet"}, &bytes.Buffer{})
	if err != nil || o.algo != "power" || o.alpha != 3 || !o.quiet {
		t.Errorf("valid command line mangled: %+v, %v", o, err)
	}
}

func writeInstance(t *testing.T, f sched.File) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.json")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := f.WriteJSON(out); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOneIntervalAlgorithms(t *testing.T) {
	path := writeInstance(t, sched.File{
		Kind:  sched.KindOneInterval,
		Alpha: 2,
		Instance: &sched.Instance{Procs: 1, Jobs: []sched.Job{
			{Release: 0, Deadline: 2}, {Release: 5, Deadline: 7},
		}},
	})
	for _, algo := range []string{"gaps", "power", "greedy", "edf"} {
		var b strings.Builder
		if err := run(options{input: path, algo: algo, alpha: -1, budget: 2}, &b); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(b.String(), "t=") {
			t.Fatalf("%s: no assignments printed:\n%s", algo, b.String())
		}
	}
}

func TestRunMultiAlgorithms(t *testing.T) {
	path := writeInstance(t, sched.File{
		Kind:  sched.KindMultiInterval,
		Alpha: 1,
		Multi: &sched.MultiInstance{Jobs: []sched.MultiJob{
			sched.MultiJobFromTimes(0, 4),
			sched.MultiJobFromTimes(1, 5),
			sched.MultiJobFromTimes(9),
		}},
	})
	for _, algo := range []string{"approx", "naive", "throughput"} {
		var b strings.Builder
		if err := run(options{input: path, algo: algo, alpha: -1, budget: 2, quiet: true}, &b); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if b.Len() == 0 {
			t.Fatalf("%s: empty output", algo)
		}
	}
}

func TestRunLaysOutMultiprocForMultiAlgos(t *testing.T) {
	path := writeInstance(t, sched.File{
		Kind:  sched.KindOneInterval,
		Alpha: 1,
		Instance: &sched.Instance{Procs: 2, Jobs: []sched.Job{
			{Release: 0, Deadline: 1}, {Release: 0, Deadline: 1},
		}},
	})
	var b strings.Builder
	if err := run(options{input: path, algo: "naive", alpha: -1, budget: 2, quiet: true}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "laid out") {
		t.Fatalf("expected lay-out note:\n%s", b.String())
	}
}

// writeScript drops a stream-mode delta script into a temp file.
func writeScript(t *testing.T, script string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "deltas.txt")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunStream drives the incremental session mode end to end: adds
// and removes evolve the printed cost, fragment reuse shows up in the
// counters, comments are skipped, and an infeasible interlude is
// reported without killing the stream.
func TestRunStream(t *testing.T) {
	path := writeScript(t, `
# two separated clusters
add 0 2
+ 1 3
add 20 22
# a point-job clash makes it infeasible, then the clash leaves
add 20 20
add 20 20
- 4
remove 3
`)
	var b strings.Builder
	if err := run(options{input: path, algo: "gaps", alpha: -1, budget: 2, procs: 1, stream: true}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d output lines, want 7 (one per delta):\n%s", len(lines), out)
	}
	for _, want := range []string{
		"+[0,2] id=0",
		"spans=1 gaps=0", // first cluster alone
		"spans=2 gaps=1", // both clusters
		"INFEASIBLE",     // three point jobs in [20,22]... only after the clash
		"resolved=1",     // the delta touched one fragment
		"reused=1",       // the untouched cluster was reused
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stream output missing %q:\n%s", want, out)
		}
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "jobs=3") || !strings.Contains(last, "spans=2") {
		t.Errorf("final state wrong: %q", last)
	}
}

// TestRunStreamPower: the power objective prints evolving power and
// honors alpha.
func TestRunStreamPower(t *testing.T) {
	path := writeScript(t, "add 0 0\nadd 5 5\n")
	var b strings.Builder
	if err := run(options{input: path, algo: "power", alpha: 3, budget: 2, procs: 1, stream: true}, &b); err != nil {
		t.Fatal(err)
	}
	// Two unit jobs 4 idle units apart at α=3: sleeping between them
	// (2 active + 2·α = 8) beats bridging the gap (6 active + α = 9).
	if !strings.Contains(b.String(), "power=8.000") {
		t.Fatalf("expected power=8.000 in:\n%s", b.String())
	}
}

// TestRunStreamRejections: malformed scripts, unknown ids, and
// unsupported algorithms fail with errors naming the offending line.
func TestRunStreamRejections(t *testing.T) {
	for name, c := range map[string]struct{ algo, script string }{
		"bad op":          {"gaps", "frobnicate 1 2\n"},
		"bad window":      {"gaps", "add one two\n"},
		"bad id":          {"gaps", "add 0 1\nremove x\n"},
		"unknown id":      {"gaps", "remove 9\n"},
		"empty window":    {"gaps", "add 5 1\n"},
		"multi algorithm": {"approx", "add 0 1\n"},
	} {
		path := writeScript(t, c.script)
		if err := run(options{input: path, algo: c.algo, alpha: -1, budget: 2, procs: 1, stream: true}, &strings.Builder{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunRejections(t *testing.T) {
	if err := run(options{input: "/nonexistent/file.json", algo: "gaps", alpha: -1, budget: 2, quiet: true}, &strings.Builder{}); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeInstance(t, sched.File{
		Kind:     sched.KindOneInterval,
		Instance: &sched.Instance{Procs: 1, Jobs: []sched.Job{{Release: 0, Deadline: 0}}},
	})
	if err := run(options{input: path, algo: "bogus", alpha: -1, budget: 2, quiet: true}, &strings.Builder{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run(options{input: path, algo: "approx", alpha: -1, budget: 2, quiet: true}, &strings.Builder{}); err != nil {
		t.Fatalf("one-interval should lay out for approx: %v", err)
	}
	// A negative -alpha defers to the file's alpha, which the decoder
	// rejects when negative.
	negative := writeInstance(t, sched.File{
		Kind:     sched.KindOneInterval,
		Alpha:    -1,
		Instance: &sched.Instance{Procs: 1, Jobs: []sched.Job{{Release: 0, Deadline: 0}}},
	})
	if err := run(options{input: negative, algo: "power", alpha: -1, quiet: true}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("file alpha -1: got %v, want an invalid-alpha error", err)
	}
}

// TestRunModes drives the gaps and power algorithms through every
// solver tier: heuristic output must carry the certificate line, auto
// with an unbounded budget must agree with exact, and a bad mode must
// be rejected.
func TestRunModes(t *testing.T) {
	path := writeInstance(t, sched.File{
		Kind:  sched.KindOneInterval,
		Alpha: 2,
		Instance: &sched.Instance{Procs: 1, Jobs: []sched.Job{
			{Release: 0, Deadline: 2}, {Release: 1, Deadline: 4}, {Release: 30, Deadline: 33},
		}},
	})
	for _, algo := range []string{"gaps", "power"} {
		var exact, heur, auto strings.Builder
		if err := run(options{input: path, algo: algo, alpha: -1, mode: "exact"}, &exact); err != nil {
			t.Fatalf("%s exact: %v", algo, err)
		}
		if strings.Contains(exact.String(), "certified lower bound") {
			t.Fatalf("%s exact printed a certificate:\n%s", algo, exact.String())
		}
		if err := run(options{input: path, algo: algo, alpha: -1, mode: "heuristic", quiet: true}, &heur); err != nil {
			t.Fatalf("%s heuristic: %v", algo, err)
		}
		for _, want := range []string{"heuristic", "certified lower bound", "cost/LB ratio", "heuristic fragments: 2/2"} {
			if !strings.Contains(heur.String(), want) {
				t.Fatalf("%s heuristic output missing %q:\n%s", algo, want, heur.String())
			}
		}
		// Unbounded auto reports the same first (cost) line as exact,
		// modulo the mode banner that follows it.
		if err := run(options{input: path, algo: algo, alpha: -1, mode: "auto", stateBudget: math.MaxInt, quiet: true}, &auto); err != nil {
			t.Fatalf("%s auto: %v", algo, err)
		}
		exactCost := strings.SplitN(exact.String(), "\n", 2)[0]
		autoCost := strings.SplitN(auto.String(), "\n", 2)[0]
		if exactCost != autoCost {
			t.Fatalf("%s: auto cost line %q, exact %q", algo, autoCost, exactCost)
		}
	}
	if err := run(options{input: path, algo: "gaps", mode: "sloppy"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRunStreamOnline drives -stream -online through the adversarial
// family: every resolve line carries the measured competitive ratio,
// and the final ratio is exactly n (3 committed spans against an
// offline optimum of 1).
func TestRunStreamOnline(t *testing.T) {
	path := writeScript(t, `
# three flexible jobs, then the tight jobs that punish eagerness
add 0 9
add 0 9
add 0 9
add 3 4
add 5 6
add 7 8
`)
	var b strings.Builder
	if err := run(options{input: path, algo: "gaps", alpha: -1, budget: 2, procs: 1, stream: true, online: true}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d output lines, want 6:\n%s", len(lines), out)
	}
	for _, line := range lines {
		if !strings.Contains(line, "ratio=") || !strings.Contains(line, "committed=") {
			t.Fatalf("online resolve line missing ratio columns: %q", line)
		}
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, "ratio=3.000") || !strings.Contains(last, "spans=3") {
		t.Fatalf("final adversarial state wrong: %q", last)
	}
}

// TestRunStreamOnlineRejections: online streams are commit-only —
// removals and out-of-order arrivals fail with line-numbered errors —
// and -online without -stream is a usage error.
func TestRunStreamOnlineRejections(t *testing.T) {
	for name, script := range map[string]string{
		"remove":       "add 0 4\nremove 0\n",
		"out of order": "add 5 9\nadd 2 9\n",
	} {
		path := writeScript(t, script)
		err := run(options{input: path, algo: "gaps", alpha: -1, budget: 2, procs: 1, stream: true, online: true}, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: err %v, want a line-2 error", name, err)
		}
	}
	if err := run(options{algo: "gaps", alpha: -1, online: true}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "-stream") {
		t.Errorf("-online without -stream: %v, want usage error", err)
	}
}

// TestRunStreamModes: -stream sessions honor -mode, printing the lb
// column for non-exact tiers.
func TestRunStreamModes(t *testing.T) {
	script := "add 0 3\nadd 50 54\nremove 0\n"
	var b strings.Builder
	if err := run(options{algo: "gaps", alpha: -1, procs: 1, stream: true, mode: "heuristic",
		input: writeScript(t, script)}, &b); err != nil {
		t.Fatalf("stream heuristic: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "lb=") || !strings.Contains(out, "heur=") {
		t.Fatalf("stream heuristic output missing certificate columns:\n%s", out)
	}
	var e strings.Builder
	if err := run(options{algo: "gaps", alpha: -1, procs: 1, stream: true, mode: "exact",
		input: writeScript(t, script)}, &e); err != nil {
		t.Fatalf("stream exact: %v", err)
	}
	if strings.Contains(e.String(), "lb=") {
		t.Fatalf("stream exact printed certificates:\n%s", e.String())
	}
}

// TestRunTrace: -trace on an exact solve prints the per-stage span
// summary after the schedule; algorithms without a traced pipeline
// stay silent.
func TestRunTrace(t *testing.T) {
	path := writeInstance(t, sched.File{
		Kind:  sched.KindOneInterval,
		Alpha: 2,
		Instance: &sched.Instance{Procs: 1, Jobs: []sched.Job{
			{Release: 0, Deadline: 2}, {Release: 5, Deadline: 7},
		}},
	})
	o, err := parseArgs([]string{"-trace", "-input", path}, &bytes.Buffer{})
	if err != nil || !o.trace {
		t.Fatalf("parseArgs -trace: %+v, %v", o, err)
	}
	var b strings.Builder
	if err := run(options{input: path, algo: "gaps", alpha: -1, budget: 2, trace: true}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"trace (", "prep", "solve[", "assemble"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace summary missing %q:\n%s", want, out)
		}
	}
	var quiet strings.Builder
	if err := run(options{input: path, algo: "greedy", alpha: -1, budget: 2, trace: true}, &quiet); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quiet.String(), "trace (") {
		t.Fatalf("untraced algorithm printed a trace:\n%s", quiet.String())
	}
}

// TestRunHugeMachine: a file declaring 2^50 processors for two jobs
// solves and renders with either exact algorithm, timeline and span
// summary included, with rows for the first processors and one line
// counting the idle rest, instead of sizing the rendering by procs.
func TestRunHugeMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.json")
	const file = `{"kind":"one-interval","instance":{"procs":1125899906842624,"jobs":[{"release":0,"deadline":1},{"release":0,"deadline":1}]}}`
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"gaps", "power"} {
		var b strings.Builder
		if err := run(options{input: path, algo: algo, alpha: -1, mode: "exact"}, &b); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := b.String()
		for _, want := range []string{"P0  |", "energy = ", "P0 :", "(+1125899906842616 more processors, idle throughout)"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: output lacks %q:\n%s", algo, want, out)
			}
		}
	}
}
