// Command perfbench is the end-to-end benchmark of the gapsched solving
// pipeline. One run drives one named workload from outside the program:
// exact-batch and auto-scale call the library facade (gapsched.Solver)
// in a closed loop, and daemon-mixed sends open-loop traffic to an
// in-process internal/service daemon over unencrypted HTTP/2. Every
// answer is checked, and the report ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set. With --trace 1 the
// run replays the same inputs under in-memory spans, one per call into
// a layer's public function, and reports the per-layer set with a
// self-time table. BENCHMARK.json at the repository root declares both
// sets; WORKLOADS.md says why each workload exists and which numbers
// each layer should move. run.sh builds the command from source:
//
//	bash perfbench/run.sh --workload exact-batch --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// spanDir receives the traced run's spans.
	spanDir string
	// quick shrinks every input so the package tests can drive each
	// workload end to end in about a second; the command line never
	// sets it.
	quick bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report) error{
	"exact-batch":  runExactBatch,
	"auto-scale":   runAutoScale,
	"daemon-mixed": runDaemonMixed,
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{spanDir: ".bench_build"}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "exact-batch, auto-scale or daemon-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	switch {
	case fs.NArg() > 0:
		return options{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case workloads[o.workload] == nil:
		return options{}, fmt.Errorf("unknown workload %q (want exact-batch, auto-scale or daemon-mixed)", o.workload)
	case o.seconds < 1:
		return options{}, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	case trace != 0 && trace != 1:
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs one workload and prints its report. The status is 0 only
// when every operation succeeded and every answer checked out; a failed
// check still prints the result line, with "correct": false.
func execute(o options, stdout, stderr io.Writer) int {
	rep := newReport(o)
	if err := workloads[o.workload](o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := rep.result()
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			rep.print(stdout)
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !res.Correct {
		for _, msg := range rep.failures {
			fmt.Fprintln(stderr, "perfbench: check failed:", msg)
		}
		return 1
	}
	return 0
}
