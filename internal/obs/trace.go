package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span stage names recorded by the solving pipeline. Solve and cache
// spans additionally carry the name of the Backend that served the
// fragment.
const (
	StageQueueWait = "queue_wait" // coalescer buffering, enqueue → dispatch
	StagePrep      = "prep"       // instance validation + decomposition
	StageCache     = "cache"      // fragment served from the cache (incl. singleflight waits)
	StageSolve     = "solve"      // one fragment's backend solve
	StageAssemble  = "assemble"   // fragment schedules → instance schedule + validation
)

// Backend identifies the solver that served one fragment. It indexes
// Backends, so per-backend tallies are arrays of len(Backends).
type Backend uint8

const (
	BackendDP   Backend = iota // the exact branch-and-bound DP engine
	BackendHeur                // the certified greedy heuristic
)

// Backends names every Backend in pipeline order. The names are the
// solve-span tags, the /metrics backend labels and the stage keys of
// trace summaries.
var Backends = [...]string{BackendDP: "dp", BackendHeur: "heuristic"}

func (b Backend) String() string { return Backends[b] }

// Span is one timed stage of a solve. Start is the offset from the
// owning trace's start time, so a span tree is self-contained.
// Both durations marshal as integer nanoseconds.
type Span struct {
	Name    string        `json:"name"`
	Backend string        `json:"backend,omitempty"`
	Start   time.Duration `json:"startNs"`
	Dur     time.Duration `json:"durationNs"`
}

// Trace collects the span tree of one solve request. Create with
// NewTrace, attach to a context with With so the facade records into
// it, and hand the finished trace to a Recorder. All methods are safe
// for concurrent use (batch workers record spans concurrently) and
// nil-receiver safe, so an unattached pipeline pays one branch per
// would-be span.
type Trace struct {
	op    string
	start time.Time

	mu    sync.Mutex
	spans []Span
	attrs map[string]string
	err   string
	dur   time.Duration
}

// NewTrace starts a trace for one operation (e.g. "solve",
// "session_solve"); the clock starts now.
func NewTrace(op string) *Trace {
	return &Trace{op: op, start: time.Now()}
}

// Begin returns the trace's start time; recording helpers measure
// span offsets against it.
func (t *Trace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Span records one completed stage: a span named name (backend-tagged
// when backend is non-empty) that started at start and ran for d.
func (t *Trace) Span(name, backend string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	sp := Span{Name: name, Backend: backend, Start: start.Sub(t.start), Dur: d}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// SetAttr attaches one key=value attribute (request id, mode, fragment
// count, …) shown with the trace in /v1/debug/traces and in slow-solve
// log lines.
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = make(map[string]string)
	}
	t.attrs[key] = value
	t.mu.Unlock()
}

// Finish stamps the trace's total duration (once; later calls keep the
// first stamp) and, when err is non-nil, its error text.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	d := time.Since(t.start)
	t.mu.Lock()
	if t.dur == 0 {
		t.dur = d
	}
	if err != nil && t.err == "" {
		t.err = err.Error()
	}
	t.mu.Unlock()
}

// Dur returns the total duration stamped by Finish (the live elapsed
// time if Finish has not run yet).
func (t *Trace) Dur() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dur == 0 {
		return time.Since(t.start)
	}
	return t.dur
}

// Data snapshots the trace into its serializable form: spans sorted by
// start offset (concurrent workers append out of order), attributes
// copied. ID is zero until a Recorder assigns one.
func (t *Trace) Data() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceData{
		Op:    t.op,
		Start: t.start,
		Dur:   t.dur,
		Err:   t.err,
		Spans: append([]Span(nil), t.spans...),
	}
	if len(t.attrs) > 0 {
		d.Attrs = make(map[string]string, len(t.attrs))
		for k, v := range t.attrs {
			d.Attrs[k] = v
		}
	}
	sort.SliceStable(d.Spans, func(i, j int) bool { return d.Spans[i].Start < d.Spans[j].Start })
	return d
}

// TraceData is the serializable snapshot of one finished trace, the
// element of /v1/debug/traces responses. Dur marshals as integer
// nanoseconds.
type TraceData struct {
	ID    uint64            `json:"id"`
	Op    string            `json:"op"`
	Start time.Time         `json:"start"`
	Dur   time.Duration     `json:"durationNs"`
	Err   string            `json:"error,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Spans []Span            `json:"spans"`
}

// StageSum is one row of a trace's per-stage breakdown: the spans of
// one stage — of one backend, for solve spans — counted and summed.
type StageSum struct {
	Stage   string
	Backend string // set on solve rows only
	Count   int
	Dur     time.Duration
}

// Label names the row: the stage, suffixed with [backend] on solve
// rows ("prep", "solve[dp]").
func (s StageSum) Label() string {
	if s.Backend == "" {
		return s.Stage
	}
	return s.Stage + "[" + s.Backend + "]"
}

// Stages aggregates the trace's spans into per-stage sums in pipeline
// order — queue_wait, prep, cache, one solve row per Backend, assemble
// — omitting stages that recorded no span. Cache spans fold into one
// row whichever backend owns the entry; spans of unknown stages or
// backends are not counted.
func (d TraceData) Stages() []StageSum {
	rows := make([]StageSum, 0, 4+len(Backends))
	rows = append(rows, StageSum{Stage: StageQueueWait}, StageSum{Stage: StagePrep}, StageSum{Stage: StageCache})
	for _, b := range Backends {
		rows = append(rows, StageSum{Stage: StageSolve, Backend: b})
	}
	rows = append(rows, StageSum{Stage: StageAssemble})
	for _, sp := range d.Spans {
		for i := range rows {
			if r := &rows[i]; r.Stage == sp.Name && (r.Backend == sp.Backend || sp.Name != StageSolve) {
				r.Count++
				r.Dur += sp.Dur
				break
			}
		}
	}
	out := rows[:0]
	for _, r := range rows {
		if r.Count > 0 {
			out = append(out, r)
		}
	}
	return out
}

// ctxKey keys the Trace attached to a context.
type ctxKey struct{}

// With returns a context carrying t; the solving pipeline records its
// stage spans into whatever trace the context carries.
func With(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil when none is
// attached (every recording method is nil-safe).
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// DefaultRingSize is the trace ring capacity used when a Recorder is
// built with a non-positive size.
const DefaultRingSize = 64

// Recorder keeps the last N finished traces in a fixed-size ring and
// assigns each a monotonically increasing id. Safe for concurrent use.
type Recorder struct {
	mu   sync.Mutex
	ring []TraceData
	next uint64 // traces ever added; ids are 1-based
}

// NewRecorder builds a recorder holding the last n traces (n ≤ 0 means
// DefaultRingSize).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Recorder{ring: make([]TraceData, 0, n)}
}

// Add finishes t (if its owner has not already) and stores its
// snapshot, evicting the oldest trace once the ring is full. It
// returns the id assigned to the trace, so log lines can reference the
// retained entry. A nil recorder or a nil trace is a no-op returning 0.
func (r *Recorder) Add(t *Trace) uint64 {
	if r == nil || t == nil {
		return 0
	}
	t.Finish(nil)
	d := t.Data()
	r.mu.Lock()
	r.next++
	d.ID = r.next
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, d)
	} else {
		r.ring[int((r.next-1)%uint64(cap(r.ring)))] = d
	}
	r.mu.Unlock()
	return d.ID
}

// Traces returns the retained traces, newest first.
func (r *Recorder) Traces() []TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceData, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		// Newest is at index (next-1) mod cap; walk backwards.
		idx := int((r.next - 1 - uint64(i)) % uint64(cap(r.ring)))
		out = append(out, r.ring[idx])
	}
	return out
}
