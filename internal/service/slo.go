package service

// The live SLO layer: every instrumented request feeds the rolling
// window its endpoint table entry owns (latency histogram +
// request/error counters, internal/obs Windowed rings), and an
// evaluator turns the trailing window into sliding p50/p90/p99, an
// error rate, an error-budget burn rate, and an ok|degraded verdict
// against the configured objectives. The verdict is surfaced
// everywhere an operator looks: gauges on /metrics, the JSON snapshot
// at GET /v1/debug/slo, the status field on /healthz, and
// edge-triggered slog warnings when the error budget starts (and
// stops) burning.

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// sloSubWindows is the ring resolution: the trailing window ages out
// in window/sloSubWindows steps.
const sloSubWindows = 10

// SLO verdict strings, shared by /healthz, /v1/debug/slo and E24.
const (
	SLOStatusOK       = "ok"
	SLOStatusDegraded = "degraded"
)

// sloWindow is one endpoint's rolling window.
type sloWindow struct {
	lat  *obs.Windowed
	reqs *obs.WindowedCounter
	errs *obs.WindowedCounter
}

// sloTracker evaluates the endpoint table's windows against the
// objectives and owns the burn-warning edge trigger. Built once by
// New; observe runs on every request completion, evaluate on demand
// (metrics scrape, healthz, debug endpoint).
type sloTracker struct {
	p99     time.Duration // target sliding p99; <= 0 disables the latency objective
	errRate float64       // max windowed error fraction; <= 0 disables the error objective
	window  time.Duration
	logger  *slog.Logger
	eps     []*endpoint
	burning atomic.Bool // true while the error budget burns faster than earned
}

// newSLOTracker gives every endpoint of eps its trailing window.
func newSLOTracker(eps []*endpoint, p99 time.Duration, errRate float64, window time.Duration, logger *slog.Logger) *sloTracker {
	for _, ep := range eps {
		ep.win = sloWindow{
			lat:  obs.NewWindowed(window, sloSubWindows),
			reqs: obs.NewWindowedCounter(window, sloSubWindows),
			errs: obs.NewWindowedCounter(window, sloSubWindows),
		}
	}
	return &sloTracker{p99: p99, errRate: errRate, window: window, logger: logger, eps: eps}
}

// observe feeds one completed request into its endpoint's window. SLO
// errors are server faults — HTTP 5xx: internal errors, shedding
// (503), and solve deadline cut-offs (504). 4xx responses are the
// client's problem (malformed or infeasible requests) and spend no
// error budget.
func (t *sloTracker) observe(ep *endpoint, d time.Duration, status int) {
	now := time.Now()
	ep.win.lat.ObserveAt(now, d)
	ep.win.reqs.AddAt(now, 1)
	if status >= 500 {
		ep.win.errs.AddAt(now, 1)
	}
	t.checkBurn(now)
}

// totalsAt sums requests and errors across all endpoint windows.
func (t *sloTracker) totalsAt(now time.Time) (reqs, errs int64) {
	for _, ep := range t.eps {
		reqs += ep.win.reqs.TotalAt(now)
		errs += ep.win.errs.TotalAt(now)
	}
	return reqs, errs
}

// burnAt computes the error-budget burn rate over the trailing window:
// windowed error rate divided by the objective. Burn 1.0 spends budget
// exactly as fast as the objective earns it; above 1.0 the budget
// shrinks. Zero when the error objective is disabled or the window is
// empty.
func (t *sloTracker) burnAt(now time.Time) (burn float64, reqs, errs int64) {
	reqs, errs = t.totalsAt(now)
	if t.errRate <= 0 || reqs == 0 {
		return 0, reqs, errs
	}
	return float64(errs) / float64(reqs) / t.errRate, reqs, errs
}

// checkBurn fires the edge-triggered budget-burn log lines: one
// warning when the burn rate crosses above 1, one info line when it
// recovers. The windowed counters bound flapping to the sub-window
// cadence, so the transitions cannot storm the log.
func (t *sloTracker) checkBurn(now time.Time) {
	if t.errRate <= 0 {
		return
	}
	burn, reqs, errs := t.burnAt(now)
	if reqs == 0 {
		return
	}
	burning := burn > 1
	if burning == t.burning.Load() || !t.burning.CompareAndSwap(!burning, burning) {
		return
	}
	args := []any{
		slog.Float64("burnRate", burn),
		slog.Float64("errorRate", float64(errs)/float64(reqs)),
		slog.Float64("objective", t.errRate),
		slog.Int64("windowRequests", reqs),
		slog.Int64("windowErrors", errs),
		slog.Duration("window", t.window),
	}
	if burning {
		t.logger.Warn("slo error budget burning", args...)
	} else {
		t.logger.Info("slo error budget recovered", args...)
	}
}

// SLOReport is the JSON document served by GET /v1/debug/slo: the
// daemon's own view of its trailing-window SLO state.
type SLOReport struct {
	// Status is "ok" or "degraded": degraded when any endpoint breaches
	// an enabled objective, or the overall error budget burns faster
	// than it is earned.
	Status string `json:"status"`
	// WindowSeconds is the trailing window the numbers cover.
	WindowSeconds float64 `json:"windowSeconds"`
	// TargetP99Seconds and TargetErrorRate echo the configured
	// objectives; zero means the objective is disabled.
	TargetP99Seconds float64 `json:"targetP99Seconds"`
	TargetErrorRate  float64 `json:"targetErrorRate"`
	// Requests/Errors/ErrorRate aggregate every tracked endpoint over
	// the window.
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	ErrorRate float64 `json:"errorRate"`
	// ErrorBudgetRemaining is the unspent fraction of the window's
	// error budget (1 − burn rate, floored at 0).
	ErrorBudgetRemaining float64 `json:"errorBudgetRemaining"`
	// BurnRate is windowed error rate over the objective; above 1 the
	// budget is shrinking.
	BurnRate float64 `json:"burnRate"`
	// Endpoints holds the per-endpoint windows.
	Endpoints map[string]SLOEndpoint `json:"endpoints"`
}

// SLOEndpoint is one endpoint's trailing-window summary.
type SLOEndpoint struct {
	Status     string  `json:"status"`
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	ErrorRate  float64 `json:"errorRate"`
	P50Seconds float64 `json:"p50Seconds"`
	P90Seconds float64 `json:"p90Seconds"`
	P99Seconds float64 `json:"p99Seconds"`
}

// evaluate builds the full SLO report for the trailing window ending
// now.
func (t *sloTracker) evaluate(now time.Time) SLOReport {
	rep := SLOReport{
		Status:               SLOStatusOK,
		WindowSeconds:        t.window.Seconds(),
		ErrorBudgetRemaining: 1,
		Endpoints:            make(map[string]SLOEndpoint, len(t.eps)),
	}
	if t.p99 > 0 {
		rep.TargetP99Seconds = t.p99.Seconds()
	}
	if t.errRate > 0 {
		rep.TargetErrorRate = t.errRate
	}
	for _, e := range t.eps {
		snap := e.win.lat.SnapshotAt(now)
		ep := SLOEndpoint{
			Status:     SLOStatusOK,
			Requests:   e.win.reqs.TotalAt(now),
			Errors:     e.win.errs.TotalAt(now),
			P50Seconds: snap.Quantile(0.5),
			P90Seconds: snap.Quantile(0.9),
			P99Seconds: snap.Quantile(0.99),
		}
		if ep.Requests > 0 {
			ep.ErrorRate = float64(ep.Errors) / float64(ep.Requests)
			if (t.p99 > 0 && ep.P99Seconds > t.p99.Seconds()) ||
				(t.errRate > 0 && ep.ErrorRate > t.errRate) {
				ep.Status = SLOStatusDegraded
				rep.Status = SLOStatusDegraded
			}
		}
		rep.Requests += ep.Requests
		rep.Errors += ep.Errors
		rep.Endpoints[e.label] = ep
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
	}
	if t.errRate > 0 && rep.Requests > 0 {
		rep.BurnRate = rep.ErrorRate / t.errRate
		rep.ErrorBudgetRemaining = 1 - rep.BurnRate
		if rep.ErrorBudgetRemaining < 0 {
			rep.ErrorBudgetRemaining = 0
		}
		if rep.BurnRate > 1 {
			rep.Status = SLOStatusDegraded
		}
	}
	return rep
}

// writeProm renders the SLO gauge families from one evaluation, so
// /metrics, /healthz and /v1/debug/slo all derive from the same
// arithmetic.
func (t *sloTracker) writeProm(w io.Writer, now time.Time) {
	rep := t.evaluate(now)
	fmt.Fprintf(w, "# HELP gapschedd_slo_latency_seconds Sliding request-latency quantiles over the trailing SLO window, by endpoint.\n"+
		"# TYPE gapschedd_slo_latency_seconds gauge\n")
	quantiles := []struct {
		label string
		pick  func(SLOEndpoint) float64
	}{
		{"0.5", func(e SLOEndpoint) float64 { return e.P50Seconds }},
		{"0.9", func(e SLOEndpoint) float64 { return e.P90Seconds }},
		{"0.99", func(e SLOEndpoint) float64 { return e.P99Seconds }},
	}
	for _, e := range t.eps {
		ep := rep.Endpoints[e.label]
		for _, q := range quantiles {
			fmt.Fprintf(w, "gapschedd_slo_latency_seconds{endpoint=%q,quantile=%q} %g\n",
				e.label, q.label, q.pick(ep))
		}
	}
	fmt.Fprintf(w, "# HELP gapschedd_slo_error_budget_remaining Unspent fraction of the trailing window's error budget (1 when no budget is configured or spent).\n"+
		"# TYPE gapschedd_slo_error_budget_remaining gauge\ngapschedd_slo_error_budget_remaining %g\n",
		rep.ErrorBudgetRemaining)
	fmt.Fprintf(w, "# HELP gapschedd_slo_burn_rate Error-budget burn rate over the trailing window: windowed error rate divided by the objective (above 1 the budget shrinks).\n"+
		"# TYPE gapschedd_slo_burn_rate gauge\ngapschedd_slo_burn_rate %g\n",
		rep.BurnRate)
	degraded := 0
	if rep.Status == SLOStatusDegraded {
		degraded = 1
	}
	fmt.Fprintf(w, "# HELP gapschedd_slo_degraded Whether any SLO objective is currently breached (1 = degraded).\n"+
		"# TYPE gapschedd_slo_degraded gauge\ngapschedd_slo_degraded %d\n", degraded)
}

// handleSLO serves GET /v1/debug/slo.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.evaluate(time.Now()))
}
