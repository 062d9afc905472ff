package service

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	gapsched "repro"
	"repro/internal/obs"
	"repro/internal/sched"
)

// metrics is the daemon's counter set, updated with atomics on the
// request path and rendered in Prometheus text exposition format by
// the /metrics endpoint. Fragment-cache counters are not duplicated
// here; they are read from the shared FragmentCache at render time.
type metrics struct {
	start time.Time // process vitals anchor, set by New

	solveRequests atomic.Int64 // /v1/solve requests received
	batchRequests atomic.Int64 // /v1/batch envelopes received
	batchItems    atomic.Int64 // requests carried inside /v1/batch envelopes
	dispatches    atomic.Int64 // solver dispatches (coalesced groups + batch groups)
	coalesced     atomic.Int64 // solve requests that shared a dispatch with ≥1 peer
	inflight      atomic.Int64 // HTTP requests currently being served

	sessionRequests atomic.Int64 // requests to any /v1/session endpoint
	sessionDeltas   atomic.Int64 // deltas applied to sessions
	sessionSolves   atomic.Int64 // incremental session resolves served
	sessionsCreated atomic.Int64 // sessions opened
	sessionsClosed  atomic.Int64 // sessions deleted by clients or shutdown
	sessionsExpired atomic.Int64 // sessions reclaimed by the TTL

	// Per-mode solve accounting, indexed by gapsched.Mode: every
	// successfully served solution — /v1/solve, each /v1/batch element,
	// each session resolve — bumps the counter of the solver mode that
	// produced it, and adds its certified optimality gap (cost −
	// lowerBound, zero for exact solves) to the summed quality-gap gauge.
	modeSolves [len(sched.WireModes)]atomic.Int64
	qualityGap atomic.Uint64 // float64 bits of the summed gap

	// Per-backend fragment accounting, indexed by obs.Backend: every
	// served solution adds its fragment counts to the backend that
	// solved them, so the live tier mix is visible at fragment
	// granularity, where ModeAuto actually decides.
	backendSolves [len(obs.Backends)]atomic.Int64

	// Online-tier accounting: solves served for commit-only sessions,
	// and the most recently measured competitive ratio (a gauge — the
	// ratio is a property of one session's revealed prefix, so summing
	// across sessions would mean nothing).
	onlineSolves atomic.Int64
	onlineRatio  atomic.Uint64 // float64 bits of the last ratio

	// Branch-and-bound accounting summed over served solutions: DP
	// subproblems cut by the exact tier's bound versus subproblems
	// expanded. Their ratio is the live pruning effectiveness of the
	// workload the daemon is actually serving.
	prunedStates   atomic.Int64
	expandedStates atomic.Int64

	// Failed requests, indexed like sched.ErrCodes.
	errors [len(sched.ErrCodes)]atomic.Int64

	// Latency histograms (lock-free, log₂-bucketed; internal/obs).
	// Fragment histograms, indexed by obs.Backend, measure individual
	// backend solves extracted from dispatch traces; queueWait measures
	// how long solve requests sat buffered in coalescing windows before
	// their dispatch started. Each endpoint owns its end-to-end request
	// histogram.
	fragSolve [len(obs.Backends)]obs.Histogram
	queueWait obs.Histogram
}

// observeFragment records one fragment's backend solve duration under
// the histogram of the backend its solve span is tagged with.
func (m *metrics) observeFragment(backend string, d time.Duration) {
	for b, name := range obs.Backends {
		if name == backend {
			m.fragSolve[b].Observe(d)
			return
		}
	}
}

// countSolve records one successfully served solution of a solver
// minimizing objective: the mode that produced it, its certified
// optimality gap (cost − lowerBound), its per-backend fragment split,
// its branch-and-bound state counters and, for online sessions, its
// competitive ratio.
func (m *metrics) countSolve(objective gapsched.Objective, sol gapsched.Solution) {
	m.prunedStates.Add(int64(sol.PrunedStates))
	m.expandedStates.Add(int64(sol.ExpandedStates))
	m.backendSolves[obs.BackendDP].Add(int64(sol.Subinstances - sol.HeuristicFragments))
	m.backendSolves[obs.BackendHeur].Add(int64(sol.HeuristicFragments))
	m.modeSolves[sol.Mode].Add(1)
	if sol.CompetitiveRatio > 0 {
		m.onlineSolves.Add(1)
		m.onlineRatio.Store(math.Float64bits(sol.CompetitiveRatio))
	}
	gap := objective.Cost(sol) - sol.LowerBound
	if !(gap > 0) { // exact solves certify themselves: gap 0
		return
	}
	for {
		old := m.qualityGap.Load()
		next := math.Float64bits(math.Float64frombits(old) + gap)
		if m.qualityGap.CompareAndSwap(old, next) {
			return
		}
	}
}

// qualityGapTotal reads the summed quality gap.
func (m *metrics) qualityGapTotal() float64 {
	return math.Float64frombits(m.qualityGap.Load())
}

// onlineRatioValue reads the last measured online competitive ratio
// (0 before any online solve).
func (m *metrics) onlineRatioValue() float64 {
	return math.Float64frombits(m.onlineRatio.Load())
}

// countError increments the counter of one wire error code; a code
// outside sched.ErrCodes counts as internal.
func (m *metrics) countError(code string) {
	i := slices.Index(sched.ErrCodes[:], code)
	if i < 0 {
		i = slices.Index(sched.ErrCodes[:], sched.ErrCodeInternal)
	}
	m.errors[i].Add(1)
}

// byName pairs each name with the counter at its index.
func byName(names []string, counts []atomic.Int64) map[string]int64 {
	out := make(map[string]int64, len(names))
	for i, name := range names {
		out[name] = counts[i].Load()
	}
	return out
}

// labeled renders the label/value pairs of one counter family whose
// series are named by names and counted at the same index of counts.
func labeled(label string, names []string, counts []atomic.Int64) []any {
	pairs := make([]any, 0, 2*len(names))
	for i, name := range names {
		pairs = append(pairs, fmt.Sprintf("%s=%q", label, name), counts[i].Load())
	}
	return pairs
}

// buildRevision reads the VCS revision stamped into the binary, once.
// Binaries built outside a checkout (or with -buildvcs=false) report
// "unknown".
var buildRevision = sync.OnceValue(func() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
})

// writeVitals renders the process-identity and runtime gauges: the
// build (Go version + VCS revision), the start time, and the live
// goroutine and heap numbers a dashboard needs next to the request
// metrics.
func (m *metrics) writeVitals(w io.Writer) {
	fmt.Fprintf(w, "# HELP gapschedd_build_info Build identity; the value is always 1, the labels carry the Go version and VCS revision.\n"+
		"# TYPE gapschedd_build_info gauge\ngapschedd_build_info{goversion=%q,revision=%q} 1\n",
		runtime.Version(), buildRevision())
	fmt.Fprintf(w, "# HELP gapschedd_start_time_seconds Unix time the daemon was constructed, for uptime arithmetic.\n"+
		"# TYPE gapschedd_start_time_seconds gauge\ngapschedd_start_time_seconds %.3f\n",
		float64(m.start.UnixNano())/1e9)
	fmt.Fprintf(w, "# HELP gapschedd_go_goroutines Goroutines currently live.\n"+
		"# TYPE gapschedd_go_goroutines gauge\ngapschedd_go_goroutines %d\n", runtime.NumGoroutine())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP gapschedd_go_heap_inuse_bytes Bytes in in-use heap spans.\n"+
		"# TYPE gapschedd_go_heap_inuse_bytes gauge\ngapschedd_go_heap_inuse_bytes %d\n", ms.HeapInuse)
	fmt.Fprintf(w, "# HELP gapschedd_go_heap_alloc_bytes Bytes of live heap objects.\n"+
		"# TYPE gapschedd_go_heap_alloc_bytes gauge\ngapschedd_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
}

// write renders the counters. eps is the endpoint table, buffered the
// coalescer's current open-window occupancy, sessionsOpen the live
// session count; cache may be nil (caching disabled).
func (m *metrics) write(w io.Writer, eps []*endpoint, buffered, sessionsOpen int, cache *gapsched.FragmentCache) {
	counter := func(name, help string, pairs ...any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i := 0; i < len(pairs); i += 2 {
			if labels := pairs[i].(string); labels != "" {
				fmt.Fprintf(w, "%s{%s} %d\n", name, labels, pairs[i+1])
			} else {
				fmt.Fprintf(w, "%s %d\n", name, pairs[i+1])
			}
		}
	}
	// Endpoints sharing a requests_total series render it once, at the
	// first of them.
	var reqPairs []any
	for i, ep := range eps {
		if !slices.ContainsFunc(eps[:i], func(prev *endpoint) bool { return prev.reqs == ep.reqs }) {
			reqPairs = append(reqPairs, fmt.Sprintf("endpoint=%q", ep.reqLabel), ep.reqs.Load())
		}
	}
	counter("gapschedd_requests_total", "Requests received, by endpoint.", reqPairs...)
	counter("gapschedd_batch_items_total", "Requests carried inside /v1/batch envelopes.",
		"", m.batchItems.Load())
	counter("gapschedd_dispatches_total", "Solver dispatches (each runs one SolveBatch).",
		"", m.dispatches.Load())
	counter("gapschedd_coalesced_requests_total", "Solve requests that shared a dispatch with at least one other request.",
		"", m.coalesced.Load())
	counter("gapschedd_errors_total", "Failed requests, by wire error code.",
		labeled("code", sched.ErrCodes[:], m.errors[:])...)
	counter("gapschedd_mode_solves_total", "Successfully served solutions, by solver mode.",
		labeled("mode", sched.WireModes[:], m.modeSolves[:])...)
	counter("gapschedd_backend_solves_total", "Fragments solved over served solutions, by backend: the exact DP engine or the greedy heuristic.",
		labeled("backend", obs.Backends[:], m.backendSolves[:])...)
	fmt.Fprintf(w, "# HELP gapschedd_quality_gap_total Summed certified optimality gap (cost minus lower bound) over served solutions.\n"+
		"# TYPE gapschedd_quality_gap_total counter\ngapschedd_quality_gap_total %g\n", m.qualityGapTotal())
	counter("gapschedd_dp_states_total", "Exact-tier DP subproblems over served solutions, by outcome: pruned (cut by the branch-and-bound lower bound) versus expanded.",
		`outcome="pruned"`, m.prunedStates.Load(),
		`outcome="expanded"`, m.expandedStates.Load())
	counter("gapschedd_session_events_total", "Incremental-session lifecycle and usage events.",
		`event="created"`, m.sessionsCreated.Load(),
		`event="closed"`, m.sessionsClosed.Load(),
		`event="expired"`, m.sessionsExpired.Load(),
		`event="delta"`, m.sessionDeltas.Load(),
		`event="solve"`, m.sessionSolves.Load())
	counter("gapschedd_online_solves_total", "Solves served for online (commit-only) sessions.",
		"", m.onlineSolves.Load())
	fmt.Fprintf(w, "# HELP gapschedd_online_ratio Last measured online competitive ratio (online cost over the certified lower bound of the revealed prefix's offline optimum).\n"+
		"# TYPE gapschedd_online_ratio gauge\ngapschedd_online_ratio %g\n", m.onlineRatioValue())
	fmt.Fprintf(w, "# HELP gapschedd_sessions_open Incremental sessions currently live.\n"+
		"# TYPE gapschedd_sessions_open gauge\ngapschedd_sessions_open %d\n", sessionsOpen)
	fmt.Fprintf(w, "# HELP gapschedd_inflight_requests HTTP requests currently being served.\n"+
		"# TYPE gapschedd_inflight_requests gauge\ngapschedd_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP gapschedd_buffered_requests Requests waiting in open coalescing windows.\n"+
		"# TYPE gapschedd_buffered_requests gauge\ngapschedd_buffered_requests %d\n", buffered)
	if cache != nil {
		st := cache.Stats()
		counter("gapschedd_fragcache_events_total", "Fragment cache events since startup.",
			`event="hit"`, st.Hits,
			`event="miss"`, st.Misses,
			`event="wait"`, st.Waits,
			`event="eviction"`, st.Evictions)
		fmt.Fprintf(w, "# HELP gapschedd_fragcache_entries Fragment solutions currently cached.\n"+
			"# TYPE gapschedd_fragcache_entries gauge\ngapschedd_fragcache_entries %d\n", st.Entries)
	}
	reqSeries := make([]obs.Series, len(eps))
	for i, ep := range eps {
		reqSeries[i] = obs.Series{Labels: fmt.Sprintf("endpoint=%q", ep.label), Hist: &ep.lat}
	}
	obs.WriteProm(w, "gapschedd_request_duration_seconds",
		"End-to-end request handling latency, by endpoint.", reqSeries...)
	fragSeries := make([]obs.Series, len(obs.Backends))
	for b, name := range obs.Backends {
		fragSeries[b] = obs.Series{Labels: fmt.Sprintf("backend=%q", name), Hist: &m.fragSolve[b]}
	}
	obs.WriteProm(w, "gapschedd_fragment_solve_duration_seconds",
		"Per-fragment backend solve latency over dispatched solves, by backend (cache hits excluded).",
		fragSeries...)
	obs.WriteProm(w, "gapschedd_queue_wait_seconds",
		"Time solve requests spent buffered in coalescing windows before their dispatch started.",
		obs.Series{Hist: &m.queueWait})
	m.writeVitals(w)
}
