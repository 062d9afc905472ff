package service

// The daemon's side of the observability layer: every solver dispatch
// — a coalesced /v1/solve window, a /v1/batch group, a session resolve
// — runs under one obs.Trace threaded through the solve context, so
// the facade records its per-stage spans into it. When the dispatch
// completes, the trace is drained into the latency histograms
// (/metrics), retained in the ring served by /v1/debug/traces, and —
// past the configured slow-solve threshold — logged with its full
// stage breakdown.

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// logLimiter is a token bucket gating noisy warning paths: a busy
// daemon with a saturated solver would otherwise emit one slow-solve
// line per dispatch. allow spends one token when available and reports
// how many lines were suppressed since the last allowed one, so the
// next emitted warning can carry the drop count instead of losing it.
type logLimiter struct {
	mu         sync.Mutex
	rate       float64 // tokens per second
	burst      float64
	tokens     float64
	last       time.Time
	suppressed int64
}

// slow-solve warning budget: sustained one line per 2s with a burst of
// 4, so isolated stragglers always log and a pathological stream
// settles at half a line per second.
const (
	slowLogRate  = 0.5
	slowLogBurst = 4
)

func newLogLimiter(rate, burst float64) *logLimiter {
	return &logLimiter{rate: rate, burst: burst, tokens: burst}
}

// allow reports whether one line may be emitted at now, and — when it
// may — how many lines were suppressed since the previous emission. A
// nil limiter allows everything.
func (l *logLimiter) allow(now time.Time) (bool, int64) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.last.IsZero() {
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
	if l.tokens < 1 {
		l.suppressed++
		return false, 0
	}
	l.tokens--
	n := l.suppressed
	l.suppressed = 0
	return true, n
}

// pipelineObs bundles the sinks a finished dispatch trace feeds. Built
// once by New and shared by the coalescer and the session handlers.
type pipelineObs struct {
	met     *metrics
	rec     *obs.Recorder // nil when trace retention is disabled
	logger  *slog.Logger
	slow    time.Duration // warn threshold; ≤ 0 disables slow-solve logging
	slowLim *logLimiter   // rate limit on slow-solve warnings
}

// finishTrace completes one dispatch trace: stamps its duration and
// error, feeds its spans into the queue-wait and per-backend fragment
// histograms, retains it in the debug ring, and logs it when it ran
// slower than the configured threshold.
func (o *pipelineObs) finishTrace(tr *obs.Trace, err error) {
	tr.Finish(err)
	d := tr.Data()
	for _, sp := range d.Spans {
		switch sp.Name {
		case obs.StageQueueWait:
			o.met.queueWait.Observe(sp.Dur)
		case obs.StageSolve:
			o.met.observeFragment(sp.Backend, sp.Dur)
		}
	}
	id := o.rec.Add(tr)
	if o.slow <= 0 || d.Dur < o.slow {
		return
	}
	ok, suppressed := o.slowLim.allow(time.Now())
	if !ok {
		return
	}
	args := []any{
		slog.Uint64("traceId", id),
		slog.String("op", d.Op),
		slog.Duration("duration", d.Dur),
		slog.String("stages", stageSummary(d)),
	}
	if suppressed > 0 {
		args = append(args, slog.Int64("suppressed", suppressed))
	}
	if d.Err != "" {
		args = append(args, slog.String("error", d.Err))
	}
	for k, v := range d.Attrs {
		args = append(args, slog.String(k, v))
	}
	o.logger.Warn("slow solve", args...)
}

// stageSummary renders a trace's per-stage breakdown (obs
// TraceData.Stages) as one compact line ("queue_wait=1.2ms prep=30µs
// solve[dp]=4ms …"), so the summary stays one log attribute no matter
// how many fragments the dispatch solved.
func stageSummary(d obs.TraceData) string {
	var b strings.Builder
	for _, st := range d.Stages() {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", st.Label(), st.Dur)
	}
	return b.String()
}
