package service

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
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

	// Per-mode solve accounting: every successfully served solution —
	// /v1/solve, each /v1/batch element, each session resolve — bumps
	// the counter of the solver mode that produced it, and adds its
	// certified optimality gap (cost − lowerBound, zero for exact
	// solves) to the summed quality-gap gauge.
	modeExact     atomic.Int64
	modeHeuristic atomic.Int64
	modeAuto      atomic.Int64
	qualityGap    atomic.Uint64 // float64 bits of the summed gap

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

	errBadRequest  atomic.Int64
	errInfeasible  atomic.Int64
	errCanceled    atomic.Int64
	errUnavailable atomic.Int64
	errNotFound    atomic.Int64
	errInternal    atomic.Int64

	// Latency histograms (lock-free, log₂-bucketed; internal/obs).
	// Request histograms measure end-to-end handler time per endpoint;
	// fragment histograms, indexed by obs.Backend, measure individual
	// backend solves extracted from dispatch traces; queueWait measures
	// how long solve requests sat buffered in coalescing windows before
	// their dispatch started.
	reqSolve         obs.Histogram
	reqBatch         obs.Histogram
	reqSessionCreate obs.Histogram
	reqSessionDelta  obs.Histogram
	reqSessionSolve  obs.Histogram
	reqSessionDelete obs.Histogram
	fragSolve        [len(obs.Backends)]obs.Histogram
	queueWait        obs.Histogram
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

// countModeSolve records one successfully served solution of a key's
// configuration: the mode that produced it, its certified optimality
// gap (cost − lowerBound), its per-backend fragment split, and its
// branch-and-bound state counters.
func (m *metrics) countModeSolve(key solveKey, sol gapsched.Solution) {
	m.prunedStates.Add(int64(sol.PrunedStates))
	m.expandedStates.Add(int64(sol.ExpandedStates))
	m.backendSolves[obs.BackendDP].Add(int64(sol.Subinstances - sol.HeuristicFragments))
	m.backendSolves[obs.BackendHeur].Add(int64(sol.HeuristicFragments))
	switch sol.Mode {
	case gapsched.ModeHeuristic:
		m.modeHeuristic.Add(1)
	case gapsched.ModeAuto:
		m.modeAuto.Add(1)
	default:
		m.modeExact.Add(1)
	}
	gap := key.objective.Cost(sol) - sol.LowerBound
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

// observeOnlineRatio records one online-session solve and its measured
// competitive ratio.
func (m *metrics) observeOnlineRatio(ratio float64) {
	m.onlineSolves.Add(1)
	m.onlineRatio.Store(math.Float64bits(ratio))
}

// onlineRatioValue reads the last measured online competitive ratio
// (0 before any online solve).
func (m *metrics) onlineRatioValue() float64 {
	return math.Float64frombits(m.onlineRatio.Load())
}

// bumpError increments the counter for one wire error code.
func (m *metrics) bumpError(code string) {
	switch code {
	case sched.ErrCodeBadRequest:
		m.errBadRequest.Add(1)
	case sched.ErrCodeInfeasible:
		m.errInfeasible.Add(1)
	case sched.ErrCodeCanceled:
		m.errCanceled.Add(1)
	case sched.ErrCodeUnavailable:
		m.errUnavailable.Add(1)
	case sched.ErrCodeNotFound:
		m.errNotFound.Add(1)
	default:
		m.errInternal.Add(1)
	}
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

// write renders the counters. buffered is the coalescer's current
// open-window occupancy, sessionsOpen the live session count; cache
// may be nil (caching disabled).
func (m *metrics) write(w io.Writer, buffered, sessionsOpen int, cache *gapsched.FragmentCache) {
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
	counter("gapschedd_requests_total", "Requests received, by endpoint.",
		`endpoint="solve"`, m.solveRequests.Load(),
		`endpoint="batch"`, m.batchRequests.Load(),
		`endpoint="session"`, m.sessionRequests.Load())
	counter("gapschedd_batch_items_total", "Requests carried inside /v1/batch envelopes.",
		"", m.batchItems.Load())
	counter("gapschedd_dispatches_total", "Solver dispatches (each runs one SolveBatch).",
		"", m.dispatches.Load())
	counter("gapschedd_coalesced_requests_total", "Solve requests that shared a dispatch with at least one other request.",
		"", m.coalesced.Load())
	counter("gapschedd_errors_total", "Failed requests, by wire error code.",
		`code="bad_request"`, m.errBadRequest.Load(),
		`code="infeasible"`, m.errInfeasible.Load(),
		`code="canceled"`, m.errCanceled.Load(),
		`code="unavailable"`, m.errUnavailable.Load(),
		`code="not_found"`, m.errNotFound.Load(),
		`code="internal"`, m.errInternal.Load())
	counter("gapschedd_mode_solves_total", "Successfully served solutions, by solver mode.",
		`mode="exact"`, m.modeExact.Load(),
		`mode="heuristic"`, m.modeHeuristic.Load(),
		`mode="auto"`, m.modeAuto.Load())
	backendPairs := make([]any, 0, 2*len(obs.Backends))
	for b, name := range obs.Backends {
		backendPairs = append(backendPairs, fmt.Sprintf("backend=%q", name), m.backendSolves[b].Load())
	}
	counter("gapschedd_backend_solves_total", "Fragments solved over served solutions, by backend: the exact DP engine or the greedy heuristic.",
		backendPairs...)
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
	obs.WriteProm(w, "gapschedd_request_duration_seconds",
		"End-to-end request handling latency, by endpoint.",
		obs.Series{Labels: `endpoint="solve"`, Hist: &m.reqSolve},
		obs.Series{Labels: `endpoint="batch"`, Hist: &m.reqBatch},
		obs.Series{Labels: `endpoint="session_create"`, Hist: &m.reqSessionCreate},
		obs.Series{Labels: `endpoint="session_delta"`, Hist: &m.reqSessionDelta},
		obs.Series{Labels: `endpoint="session_solve"`, Hist: &m.reqSessionSolve},
		obs.Series{Labels: `endpoint="session_delete"`, Hist: &m.reqSessionDelete})
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
