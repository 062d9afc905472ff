package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is the untraced metric set and perLayer the traced one, in
// report order. BENCHMARK.json declares the same names and units
// (TestMetricsMatchBenchmarkJSON).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"alloc_kib_per_job", "KiB/job"},
	{"cpu_us_per_job", "us/job"},
	{"jobs_per_s", "jobs/s"},
	{"cost_per_job", "cost/job"},
	{"solve_p50_ms", "ms"},
}

// unGated are measured and printed by untraced runs but left out of the
// result line: on a shared 2-vCPU machine they moved between runs by
// more than any bound a regression gate could use (see WORKLOADS.md).
var unGated = []metricSpec{
	{"session_p50_ms", "ms"},
	{"solve_p99_ms", "ms"},
	{"session_p99_ms", "ms"},
	{"max_rps", "req/s"},
	{"max_rss_mb", "MiB"},
}

var perLayer = append([]metricSpec{
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.batch_size", "req/dispatch"},
	{"service.residual_ms", "ms"},
	{"service.cpu_us_per_req", "us"},
	{"sched.decode_us", "us"},
	{"sched.encode_us", "us"},
	{"sched.req_bytes", "bytes"},
	{"sched.resp_bytes", "bytes"},
	{"gapsched.fragments.dp", "count"},
	{"gapsched.fragments.poly", "count"},
	{"gapsched.fragments.heuristic", "count"},
	{"gapsched.overhead_us", "us"},
	{"prep.split_us", "us"},
	{"prep.fragments", "count"},
	{"prep.canon_us", "us"},
	{"prep.assemble_us", "us"},
	{"fragcache.hit_ratio", "ratio"},
	{"fragcache.hit_us", "us"},
	{"fragcache.waits", "count"},
	{"fragcache.evictions", "count"},
	{"core.busy_ms", "ms"},
	{"core.fragments", "count"},
	{"core.expanded_states", "count"},
	{"core.ns_per_expanded_state", "ns"},
	{"core.prune_ratio", "ratio"},
	{"poly.busy_ms", "ms"},
	{"poly.fragments", "count"},
	{"poly.expanded_states", "count"},
	{"heur.busy_ms", "ms"},
	{"heur.fragments", "count"},
	{"heur.jobs", "count"},
	{"heur.lb_ratio", "ratio"},
	{"incr.resolve_us", "us"},
	{"incr.resolved_per_solve", "count"},
	{"incr.reused_per_solve", "count"},
	{"gen.late_p99_ms", "ms"},
	{"trace_overhead", "ratio"},
}, shareSpecs()...)

// layers are the pipeline layers of the cost table, in pipeline order.
var layers = []string{"service", "sched", "gapsched", "prep", "fragcache", "core", "poly", "heur", "incr"}

// shareSpecs names each layer's share of the traced time, plus the
// share no layer accounts for.
func shareSpecs() []metricSpec {
	var specs []metricSpec
	for _, l := range append(layers, "unattributed") {
		specs = append(specs, metricSpec{l + ".share", "ratio"})
	}
	return specs
}

// result is the machine-readable outcome, the last line of the report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one metric value; n is the number of measurements a timing
// summarizes (0 for counts, ratios and totals).
type sample struct {
	v float64
	n int
}

// maxFailureLines bounds how many failure messages a run keeps.
const maxFailureLines = 10

// report accumulates one run: operation checks, metric values and
// preformatted tables.
type report struct {
	opts options

	mu        sync.Mutex // checks arrive from request goroutines
	attempted int
	failed    int
	failures  []string

	values map[string]sample
	tables []string
}

func newReport(o options) *report {
	r := &report{opts: o, values: map[string]sample{}}
	if o.trace {
		// A layer a workload does not exercise reports zero.
		for _, sp := range perLayer {
			r.values[sp.name] = sample{}
		}
	}
	return r
}

// check counts one attempted operation, failed when err is non-nil.
func (r *report) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < maxFailureLines {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *report) set(name string, v float64, n int) { r.values[name] = sample{v, n} }

func (r *report) table(s string) { r.tables = append(r.tables, s) }

func (r *report) specs() []metricSpec {
	if r.opts.trace {
		return perLayer
	}
	return endToEnd
}

// result assembles the result line. Every declared metric must have
// been measured as a finite number; anything else is a bug.
func (r *report) result() (result, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, sp := range r.specs() {
		s, ok := r.values[sp.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", sp.name)
		}
		if math.IsNaN(s.v) || math.IsInf(s.v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", sp.name, s.v)
		}
		res.Metrics[sp.name] = metric{Value: s.v, Unit: sp.unit}
	}
	return res, nil
}

// print writes the human-readable report: the tables, then every
// metric with its unit and sample count, then the error rate.
func (r *report) print(w io.Writer) {
	kind := "end-to-end"
	if r.opts.trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d (%s)\n", r.opts.workload, r.opts.seed, r.opts.seconds, kind)
	for _, t := range r.tables {
		fmt.Fprint(w, t)
	}
	specs := r.specs()
	if !r.opts.trace {
		specs = append(specs[:len(specs):len(specs)], unGated...)
	}
	for _, sp := range specs {
		s := r.values[sp.name]
		n := ""
		if s.n > 0 {
			n = fmt.Sprintf("n=%d", s.n)
		}
		fmt.Fprintf(w, "  %-30s %16.6g %-12s %s\n", sp.name, s.v, sp.unit, n)
	}
	fmt.Fprintf(w, "  %-30s %16.6g %-12s attempted=%d failed=%d\n", "error_rate",
		div(float64(r.failed), float64(r.attempted)), "ratio", r.attempted, r.failed)
}

// percentile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// div is a/b, or 0 when nothing was measured.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocated is the heap allocated so far, freed or not. Its growth per
// job is the run's memory figure: peak resident set and peak live heap
// follow the collector's timing and moved by half between runs of one
// seed, the bytes allocated follow the work.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's origin; Parent is the index of the enclosing span, -1 for
// none.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// recorder keeps one traced run's spans in memory until it ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a call of duration d that began at start and returns its
// index, the parent of spans nested inside it.
func (r *recorder) add(name, layer string, op, parent int, start time.Time, d time.Duration) int {
	s := start.Sub(r.origin).Nanoseconds()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Op: op, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	return len(r.spans) - 1
}

// selfTimes sums each layer's self time — a span's duration minus the
// part its children cover — and counts its spans.
func (r *recorder) selfTimes() (map[string]time.Duration, map[string]int) {
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self, calls := map[string]time.Duration{}, map[string]int{}
	for i, s := range r.spans {
		self[s.Layer] += time.Duration(s.End - s.Start - covered[i])
		calls[s.Layer]++
	}
	return self, calls
}

// write stores the spans under o.spanDir, one JSON object per line.
func (r *recorder) write(o options) error {
	if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.spanDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTable records each layer's share of total and renders the cost
// table: self time and span count per layer, whose rows plus
// "unattributed" add up to total.
func layerTable(rep *report, title string, self map[string]time.Duration, calls map[string]int, total time.Duration, notes ...string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.3f ms\n  %-13s %12s %8s %9s\n", title, ms(total), "layer", "self ms", "share", "spans")
	rest := total
	for _, l := range layers {
		rest -= self[l]
		sh := div(float64(self[l]), float64(total))
		rep.set(l+".share", sh, 0)
		fmt.Fprintf(&b, "  %-13s %12.3f %7.1f%% %9d\n", l, ms(self[l]), 100*sh, calls[l])
	}
	sh := div(float64(rest), float64(total))
	rep.set("unattributed.share", sh, 0)
	fmt.Fprintf(&b, "  %-13s %12.3f %7.1f%%\n", "unattributed", ms(rest), 100*sh)
	for _, n := range notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	rep.table(b.String())
}
