package service

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	gapsched "repro"
	"repro/internal/obs"
)

// ErrShuttingDown is returned to requests that arrive after graceful
// shutdown has begun.
var ErrShuttingDown = errors.New("service: shutting down")

// solveKey identifies one solver configuration. Requests coalesce only
// with requests of the same key, since one SolveBatch call runs under
// one configuration; the fragment cache is still shared across keys
// (its entries are keyed by objective, alpha, and solving tier).
// budget is meaningful only for ModeAuto — keyFor zeroes it for the
// other modes so an irrelevant stateBudget does not fragment the
// coalescing windows.
type solveKey struct {
	objective gapsched.Objective
	alpha     float64
	mode      gapsched.Mode
	budget    int
}

// pending is one buffered request. done is buffered so a dispatcher
// never blocks on a client that stopped listening; enq timestamps the
// buffering so the dispatch trace can report each request's queue wait.
type pending struct {
	ctx  context.Context
	in   gapsched.Instance
	done chan gapsched.BatchResult
	enq  time.Time
}

// coalescer buffers concurrent single-instance requests into short
// time/size windows and dispatches each window as one fragment-level
// SolveBatch over the shared cache, demultiplexing results back per
// request. Independent clients sending similar workloads inside one
// window therefore hit the same canonical fragments — the duplicate-
// heavy batch shape the cache layer was built for — instead of
// re-solving in isolation.
type coalescer struct {
	window   time.Duration // 0 disables buffering: every request dispatches at once
	maxBatch int           // dispatch early once a window holds this many requests
	timeout  time.Duration // per-dispatch solve deadline (0 = none)
	solver   func(solveKey) gapsched.Solver
	met      *metrics
	po       *pipelineObs // sinks for the per-dispatch trace

	mu     sync.Mutex
	groups map[solveKey]*group
	closed bool
	wg     sync.WaitGroup // in-flight dispatch goroutines
}

// group is one open coalescing window.
type group struct {
	reqs  []*pending
	timer *time.Timer
}

func newCoalescer(window time.Duration, maxBatch int, timeout time.Duration, met *metrics, po *pipelineObs, solver func(solveKey) gapsched.Solver) *coalescer {
	return &coalescer{
		window:   window,
		maxBatch: maxBatch,
		timeout:  timeout,
		solver:   solver,
		met:      met,
		po:       po,
		groups:   make(map[solveKey]*group),
	}
}

// enqueue buffers one request and returns the channel its result will
// arrive on. ctx is honored whenever the dispatch ends up serving only
// this request — an immediate (uncoalesced) dispatch, or a window that
// closes with no other request in it. A dispatch serving several
// clients is bounded by the coalescer's timeout instead, so one
// disconnecting client cannot cancel its peers' solutions.
func (c *coalescer) enqueue(ctx context.Context, key solveKey, in gapsched.Instance) (<-chan gapsched.BatchResult, error) {
	p := &pending{ctx: ctx, in: in, done: make(chan gapsched.BatchResult, 1), enq: time.Now()}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if c.window <= 0 || c.maxBatch <= 1 {
		c.wg.Add(1)
		c.mu.Unlock()
		go c.run(key, []*pending{p})
		return p.done, nil
	}
	g := c.groups[key]
	if g == nil {
		g = &group{}
		c.groups[key] = g
		// The window opens when its first request arrives; the timer
		// callback flushes whatever the window accumulated.
		g.timer = time.AfterFunc(c.window, func() { c.flush(key, g) })
	}
	g.reqs = append(g.reqs, p)
	if len(g.reqs) >= c.maxBatch {
		c.detachLocked(key, g)
		reqs := g.reqs
		c.mu.Unlock()
		go c.run(key, reqs)
		return p.done, nil
	}
	c.mu.Unlock()
	return p.done, nil
}

// detachLocked removes g from the open set and claims a dispatch slot.
// Caller holds c.mu and must start run() for g's requests.
func (c *coalescer) detachLocked(key solveKey, g *group) {
	delete(c.groups, key)
	g.timer.Stop()
	c.wg.Add(1)
}

// flush dispatches g when its window timer fires. g may already have
// been dispatched by the size trigger or by Close; the map identity
// check makes the flush idempotent.
func (c *coalescer) flush(key solveKey, g *group) {
	c.mu.Lock()
	if c.groups[key] != g {
		c.mu.Unlock()
		return
	}
	c.detachLocked(key, g)
	reqs := g.reqs
	c.mu.Unlock()
	c.run(key, reqs)
}

// run dispatches one claimed window, results demultiplexed back per
// request. The caller must have claimed a wg slot (detachLocked or
// enqueue). A coalesced window yields one trace with a queue-wait span
// per buffered request.
func (c *coalescer) run(key solveKey, reqs []*pending) {
	defer c.wg.Done()
	tr := obs.NewTrace("solve")
	// Queue waits happened before the dispatch trace began; anchor them
	// at offset zero so span offsets stay non-negative — the duration is
	// the meaningful quantity.
	for _, p := range reqs {
		tr.Span(obs.StageQueueWait, "", tr.Begin(), tr.Begin().Sub(p.enq))
	}
	// A single-request dispatch serves exactly one client, however it
	// got here — immediate, size-triggered, or a timer flush of a
	// window nobody else joined — so that client's ctx can safely
	// govern it. Multi-request dispatches share their solve across
	// clients and rely on the coalescer timeout alone.
	ctx := context.Background()
	if len(reqs) == 1 && reqs[0].ctx != nil {
		ctx = reqs[0].ctx
	}
	if len(reqs) > 1 {
		c.met.coalesced.Add(int64(len(reqs)))
	}
	// A lone request solves on one worker whatever its size, and a
	// window of several shares the configured pool. This is the
	// daemon's own rule: the library's Solve sizes its pool share by
	// the instance instead.
	s := c.solver(key)
	if len(reqs) == 1 {
		s.Workers = 1
	}
	ins := make([]gapsched.Instance, len(reqs))
	for i, p := range reqs {
		ins[i] = p.in
	}
	for i, r := range c.dispatch(ctx, tr, s, ins) {
		reqs[i].done <- r
	}
}

// dispatch is the daemon's one solve path, serving coalesced windows
// (run) and /v1/batch groups alike: a single SolveBatchContext of s
// under the coalescer's timeout (which can only shorten a deadline ctx
// already carries), recorded into tr. The trace finishes (histograms
// fed, ring entry added, slow-solve warning logged) before dispatch
// returns, so a client that has its response can already see its
// dispatch in /v1/debug/traces.
func (c *coalescer) dispatch(ctx context.Context, tr *obs.Trace, s gapsched.Solver, ins []gapsched.Instance) []gapsched.BatchResult {
	tr.SetAttr("mode", s.Mode.String())
	tr.SetAttr("requests", strconv.Itoa(len(ins)))
	if rid, ok := ctx.Value(ridKey{}).(uint64); ok {
		tr.SetAttr("requestId", strconv.FormatUint(rid, 10))
	}
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	c.met.dispatches.Add(1)
	results := s.SolveBatchContext(obs.With(ctx, tr), ins)
	fragments := 0
	var firstErr error
	for _, r := range results {
		fragments += r.Solution.Subinstances
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
	}
	tr.SetAttr("fragments", strconv.Itoa(fragments))
	c.po.finishTrace(tr, firstErr)
	return results
}

// acquire claims a dispatch slot for solve work that runs outside the
// coalescing windows (client-built /v1/batch envelopes), so close()
// waits for it and work arriving after shutdown began is rejected —
// the same lifecycle every windowed dispatch gets.
func (c *coalescer) acquire() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrShuttingDown
	}
	c.wg.Add(1)
	return nil
}

// release returns a slot claimed with acquire.
func (c *coalescer) release() { c.wg.Done() }

// buffered returns the number of requests currently waiting in open
// coalescing windows (dispatched requests no longer count).
func (c *coalescer) buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, g := range c.groups {
		n += len(g.reqs)
	}
	return n
}

// close rejects new requests, dispatches every open window so buffered
// clients still get answers, and waits for all in-flight dispatches.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	type claimed struct {
		key  solveKey
		reqs []*pending
	}
	var flushes []claimed
	for key, g := range c.groups {
		c.detachLocked(key, g)
		flushes = append(flushes, claimed{key, g.reqs})
	}
	c.mu.Unlock()
	for _, f := range flushes {
		go c.run(f.key, f.reqs)
	}
	c.wg.Wait()
}
