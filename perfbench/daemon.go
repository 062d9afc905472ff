package main

// The daemon-mixed workload: service.New with gapschedd's defaults
// behind an http.Server on loopback that speaks unencrypted HTTP/2, and
// one single-connection client per CPU. Two traffic classes share the
// daemon: open-loop one-shot /v1/solve requests at a fixed nominal rate
// — most repeat a hot pool the warm-up put in the fragment cache, a
// stated share are fresh — and paced delta→solve pairs on incremental
// sessions. A ladder of rising one-shot rates then finds the highest
// rate whose solve p99 stays within ladderLimit with no growing backlog.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gapsched "repro"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
)

// Traffic shape of daemon-mixed.
const (
	freshShare     = 0.1                    // one-shot requests carrying an instance not sent before
	sessionPeriod  = 10 * time.Millisecond  // one delta→solve pair per session per period
	windows        = 5                      // nominal-phase windows; latencies report the median window
	ladders        = 3                      // rate ladders per run; max_rps is their median
	ladderStart    = 4.0                    // first ladder rate, in multiples of the nominal rate
	ladderFactor   = 1.15                   // rate ratio between ladder steps
	ladderLimit    = 100 * time.Millisecond // solve p99 a ladder step must stay within
	requestTimeout = 10 * time.Second       // a request unanswered this long failed
	maxStreams     = 4096                   // concurrent HTTP/2 streams per connection
)

// daemonPlan sizes the phases of one daemon-mixed run.
type daemonPlan struct {
	quick        bool
	hot          int           // distinct hot-pool instances
	rate         float64       // nominal one-shot rate, requests per second
	nominal      time.Duration // nominal phase length
	step         time.Duration // ladder step length
	steps        int           // ladder steps at most
	sessionSteps int           // delta→solve pairs per session in the nominal phase
}

func planFor(o options) daemonPlan {
	run := time.Duration(o.seconds) * time.Second
	p := daemonPlan{hot: 1024, rate: 1000, nominal: run / 2, step: run / 25, steps: 10}
	if o.quick {
		p = daemonPlan{quick: true, hot: 16, rate: 200, nominal: 500 * time.Millisecond, step: 100 * time.Millisecond, steps: 2}
	}
	p.sessionSteps = int(p.nominal / sessionPeriod)
	return p
}

func (p daemonPlan) nominalRequests() int { return int(p.rate * p.nominal.Seconds()) }

// ladder returns each ladder step's rate and request count.
func (p daemonPlan) ladder() ([]float64, []int) {
	rates, sizes := make([]float64, p.steps), make([]int, p.steps)
	rate := p.rate * ladderStart
	for k := range rates {
		rates[k], sizes[k] = rate, int(rate*p.step.Seconds())
		rate *= ladderFactor
	}
	return rates, sizes
}

// requests is the one-shot stream length: the nominal phase plus the
// longest ladders.
func (p daemonPlan) requests() int {
	n := 0
	_, sizes := p.ladder()
	for _, s := range sizes {
		n += s
	}
	return p.nominalRequests() + ladders*n
}

// daemonWorkload holds one run's inputs and their library references.
type daemonWorkload struct {
	plan        daemonPlan
	conns       int
	in          daemonInputs
	sessionRefs [][]float64 // per session: cost after the initial solve, then after each step
}

// daemon is one in-process gapschedd and the clients that reach it.
type daemon struct {
	srv      *service.Server
	hs       *http.Server
	served   chan error
	base     string
	clients  []*http.Client
	streams  []chan struct{} // per-connection stream budget
	next     atomic.Uint64
	dials    atomic.Int64 // client connections opened
	accepts  atomic.Int64 // server connections accepted
	sessions []string     // session ids, in script order
}

func startDaemon(conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		// gapschedd's defaults: a 2 ms window, 64-request batches, a
		// 65536-entry cache and a 30 s solve timeout.
		srv: service.New(service.Config{
			Window:        2 * time.Millisecond,
			MaxBatch:      service.DefaultMaxBatch,
			CacheCapacity: service.DefaultCacheCapacity,
			SolveTimeout:  30 * time.Second,
		}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	var sp http.Protocols
	sp.SetHTTP1(true)
	sp.SetUnencryptedHTTP2(true)
	d.hs = &http.Server{
		Handler:   d.srv,
		Protocols: &sp,
		HTTP2:     &http.HTTP2Config{MaxConcurrentStreams: maxStreams},
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				d.accepts.Add(1)
			}
		},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	// HTTP/2 with prior knowledge and no HTTP/1 fallback: each client
	// multiplexes all of its requests over one connection.
	var cp http.Protocols
	cp.SetUnencryptedHTTP2(true)
	for i := 0; i < conns; i++ {
		var dialer net.Dialer
		d.clients = append(d.clients, &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				Protocols: &cp,
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					d.dials.Add(1)
					return dialer.DialContext(ctx, network, addr)
				},
			},
		})
		d.streams = append(d.streams, make(chan struct{}, maxStreams))
	}
	return d, nil
}

// do sends one request on the next connection in turn.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	return d.doOn(int(d.next.Add(1)%uint64(len(d.clients))), method, path, body)
}

// doOn sends one request on client i and returns the status and the
// whole body. An answer not carried by HTTP/2 is an error.
func (d *daemon) doOn(i int, method, path string, body []byte) (int, []byte, error) {
	// Waiting for a stream slot keeps the transport from dialing a
	// second connection when the server's stream limit is reached.
	d.streams[i] <- struct{}{}
	defer func() { <-d.streams[i] }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.clients[i].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.ProtoMajor != 2 {
		return resp.StatusCode, b, fmt.Errorf("%s %s answered over %s, want HTTP/2", method, path, resp.Proto)
	}
	return resp.StatusCode, b, nil
}

// close shuts the daemon down — listener, coalescer and sessions — and
// waits for the server goroutine. It fails if more connections were
// opened than there are clients: every request must have shared them.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	if n := max(d.dials.Load(), d.accepts.Load()); n > int64(len(d.clients)) && err == nil {
		err = fmt.Errorf("%d connections opened for %d clients", n, len(d.clients))
	}
	return err
}

// checkSolve decodes one solve answer and checks it against the
// instance asked about: status 200, a valid schedule, and a reported
// cost equal to the schedule's recomputed cost. The schedule is dropped
// from the returned response.
func checkSolve(status int, body []byte, in sched.Instance, objective string) (sched.SolveResponse, float64, error) {
	if status != http.StatusOK {
		return sched.SolveResponse{}, 0, fmt.Errorf("status %d: %.200s", status, body)
	}
	resp, err := sched.DecodeSolveResponse(bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	if err := resp.Schedule.Validate(in); err != nil {
		return resp, 0, err
	}
	cost, got := float64(resp.Spans), float64(resp.Schedule.Spans())
	if objective == sched.WirePower {
		cost, got = resp.Power, resp.Schedule.PowerCost(alpha)
	}
	if !closeTo(got, cost) {
		return resp, 0, fmt.Errorf("reported cost %v, schedule costs %v", cost, got)
	}
	resp.Schedule = nil
	return resp, cost, nil
}

// shotResult is one one-shot request's outcome.
type shotResult struct {
	sent      time.Time
	late, lat time.Duration // due → sent, due → answered
	status    int
	body      []byte // the answer; dropped once checked unless kept for tracing
	resp      sched.SolveResponse
	cost      float64
	jobs      int // jobs of the instance, once the answer checked out
	err       error
}

// fire sends shots open loop from start: shot i is due at start+i/rate
// and goes out then, whether or not earlier ones were answered. Answers
// are checked once the last one is in, so checking never competes with
// the load. It returns the outcomes and how many requests were still
// unanswered when the last one went out.
func (d *daemon) fire(shots []*shot, rate float64, start time.Time, keep bool) ([]shotResult, int) {
	out := make([]shotResult, len(shots))
	var wg sync.WaitGroup
	var open atomic.Int64
	for i, sh := range shots {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		open.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer open.Add(-1)
			r := &out[i]
			r.sent = time.Now()
			r.late = r.sent.Sub(due)
			r.status, r.body, r.err = d.do(http.MethodPost, "/v1/solve", sh.body)
			r.lat = time.Since(due)
		}()
	}
	backlog := int(open.Load())
	wg.Wait()
	for i, sh := range shots {
		r := &out[i]
		if r.err == nil {
			r.resp, r.cost, r.err = checkSolve(r.status, r.body, sh.req.Instance(), sh.req.Objective)
		}
		if r.err == nil {
			r.jobs = len(sh.req.Jobs)
		}
		if !keep {
			r.body = nil
		}
	}
	return out, backlog
}

// liveSet mirrors a session's job set on the client: the daemon numbers
// jobs in arrival order and answers with the live jobs in id order.
type liveSet struct {
	procs int
	jobs  map[int]sched.Job
}

func newLiveSet(sc sessionScript) *liveSet {
	l := &liveSet{procs: sc.create.Procs, jobs: map[int]sched.Job{}}
	for id, j := range sc.create.Jobs {
		l.jobs[id] = j
	}
	return l
}

func (l *liveSet) apply(st sessionStep) {
	for _, id := range st.delta.Remove {
		delete(l.jobs, id)
	}
	for i, j := range st.delta.Add {
		l.jobs[st.ids[i]] = j
	}
}

func (l *liveSet) instance() sched.Instance {
	ids := make([]int, 0, len(l.jobs))
	for id := range l.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	jobs := make([]sched.Job, len(ids))
	for i, id := range ids {
		jobs[i] = l.jobs[id]
	}
	return sched.NewMultiprocInstance(jobs, l.procs)
}

// sessionResult is one delta→solve pair's outcome.
type sessionResult struct {
	sent      time.Time
	late, lat time.Duration // due → delta sent, due → solve answered
	jobs      int
	resp      sched.SolveResponse
	body      []byte // the solve answer, kept for tracing
	err       error
}

// createSession opens a session with the script's initial jobs.
func (d *daemon) createSession(sc sessionScript) (string, error) {
	status, body, err := d.do(http.MethodPost, "/v1/session", sc.createBody)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("session create: status %d: %.200s", status, body)
	}
	resp, err := sched.DecodeSessionResponse(bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	for i, id := range resp.JobIDs {
		if id != i {
			return "", fmt.Errorf("session create assigned id %d to job %d", id, i)
		}
	}
	return resp.Session, nil
}

// sessionSolve resolves a session and checks the answer against the
// client's copy of its jobs and the library reference cost.
func (d *daemon) sessionSolve(id string, live *liveSet, objective string, ref float64) (sched.SolveResponse, []byte, error) {
	status, body, err := d.do(http.MethodPost, "/v1/session/"+id+"/solve", nil)
	if err != nil {
		return sched.SolveResponse{}, nil, err
	}
	resp, cost, err := checkSolve(status, body, live.instance(), objective)
	if err == nil && cost != ref {
		err = fmt.Errorf("session %s solve cost %v, library Session %v", id, cost, ref)
	}
	return resp, body, err
}

// runSession sends a script's paced delta→solve pairs: pair k is due at
// start+k·sessionPeriod and waits for the pair before it, so a slow
// answer delays, and is charged to, the pairs behind it.
func (d *daemon) runSession(id string, sc sessionScript, refs []float64, steps int, start time.Time, keep bool) []sessionResult {
	live := newLiveSet(sc)
	out := make([]sessionResult, steps)
	for k := range out {
		due := start.Add(time.Duration(k) * sessionPeriod)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r := &out[k]
		st := sc.steps[k]
		r.sent = time.Now()
		r.late = r.sent.Sub(due)
		status, body, err := d.do(http.MethodPost, "/v1/session/"+id+"/delta", st.body)
		if err == nil {
			err = checkDelta(status, body, st.ids)
		}
		live.apply(st)
		if err == nil {
			r.resp, r.body, err = d.sessionSolve(id, live, sc.create.Objective, refs[k+1])
			r.jobs = len(live.jobs)
		}
		r.lat = time.Since(due)
		r.err = err
		if !keep {
			r.body = nil
		}
	}
	return out
}

func checkDelta(status int, body []byte, ids []int) error {
	if status != http.StatusOK {
		return fmt.Errorf("session delta: status %d: %.200s", status, body)
	}
	resp, err := sched.DecodeSessionResponse(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if !slices.Equal(resp.JobIDs, ids) {
		return fmt.Errorf("session delta assigned ids %v, script expects %v", resp.JobIDs, ids)
	}
	return nil
}

// wireSolver is the library Solver a wire request's configuration
// names.
func wireSolver(objective, mode string) gapsched.Solver {
	var s gapsched.Solver
	if objective == sched.WirePower {
		s.Objective, s.Alpha = gapsched.ObjectivePower, alpha
	}
	s.Mode, _ = gapsched.ParseMode(mode) // generated requests name valid modes
	return s
}

// references solves every shot not yet referenced directly through the
// library and records its checked cost.
func references(rep *report, shots []*shot) {
	for _, sh := range shots {
		if !math.IsNaN(sh.ref) {
			continue
		}
		in := sh.req.Instance()
		s := wireSolver(sh.req.Objective, sh.req.Mode)
		sol, err := s.Solve(in)
		if err == nil {
			sh.ref, err = verify(in, s.Objective, sol)
		}
		rep.check(err)
	}
}

// incrStats times the session steps of a library replay.
type incrStats struct {
	apply, resolve, inside time.Duration // Add/Remove; Resolve wall; its fragment solves
	resolves               int
}

// replaySession runs a script's create and first steps through a
// library Session, as the daemon's session endpoints do, and returns the
// cost after the initial resolve and after each step. With rec non-nil
// it also times each step's calls into the Session under spans.
func replaySession(sc sessionScript, steps int, rec *recorder, op int, st *incrStats) ([]float64, error) {
	s := wireSolver(sc.create.Objective, sc.create.Mode)
	ss, err := s.Open(sc.create.Procs)
	if err != nil {
		return nil, err
	}
	defer ss.Close()
	for _, j := range sc.create.Jobs {
		if _, err := ss.Add(j); err != nil {
			return nil, err
		}
	}
	sol, err := ss.Resolve()
	if err != nil {
		return nil, err
	}
	costs := []float64{s.Objective.Cost(sol)}
	for _, step := range sc.steps[:steps] {
		start := time.Now()
		for _, id := range step.delta.Remove {
			if err := ss.Remove(id); err != nil {
				return nil, err
			}
		}
		for i, j := range step.delta.Add {
			id, err := ss.Add(j)
			if err == nil && id != step.ids[i] {
				err = fmt.Errorf("library Session assigned id %d, script expects %d", id, step.ids[i])
			}
			if err != nil {
				return nil, err
			}
		}
		applied := time.Since(start)
		rstart := time.Now()
		sol, err := ss.Resolve()
		resolved := time.Since(rstart)
		if err != nil {
			return nil, err
		}
		costs = append(costs, s.Objective.Cost(sol))
		if rec != nil {
			rec.add("gapsched.Session.Remove+Add", "incr", op, -1, start, applied)
			parent := rec.add("gapsched.Session.Resolve", "incr", op, -1, rstart, resolved)
			t := sol.Timings
			for _, part := range []struct {
				layer string
				d     time.Duration
			}{{"core", t.SolveDP}, {"poly", t.SolvePoly}, {"heur", t.SolveHeur}, {"prep", t.Prep + t.Assemble}} {
				if part.d > 0 {
					rec.add(part.layer, part.layer, op, parent, rstart, part.d)
				}
			}
			st.apply += applied
			st.resolve += resolved
			st.inside += t.Total()
			st.resolves++
		}
	}
	return costs, nil
}

func runDaemonMixed(o options, rep *report) error {
	w := &daemonWorkload{plan: planFor(o), conns: runtime.NumCPU()}
	w.in = daemonMixedInputs(o.seed, w.plan, min(2, w.conns))
	// References: a direct library Solve of every hot instance and every
	// nominal-phase fresh one, and a library Session replay per script.
	references(rep, w.in.hot)
	references(rep, w.in.stream[:w.plan.nominalRequests()])
	for _, sc := range w.in.sessions {
		refs, err := replaySession(sc, w.plan.sessionSteps, nil, 0, nil)
		if err != nil {
			return fmt.Errorf("session reference replay: %w", err)
		}
		w.sessionRefs = append(w.sessionRefs, refs)
	}
	if o.trace {
		return w.traced(o, rep)
	}

	var d *daemon
	setups := make([]float64, setupRepeats)
	for i := range setups {
		dd, took, err := w.setup(rep)
		if err != nil {
			return err
		}
		setups[i] = took.Seconds()
		if i < len(setups)-1 {
			rep.check(dd.close())
		} else {
			d = dd
		}
	}
	ph := w.nominal(d, false)
	rss := peakRSSMiB()
	allocKiB, cpuUs := ph.perJob()
	one := foldShots(rep, w.in.stream, ph.shots)
	sess, sessJobs := foldSessions(rep, ph.sessions)
	pairs := len(ph.sessions) * len(sess)
	solveP99 := windowed([][]float64{one.lat}, .99)
	base := ladderStep{rate: w.plan.rate, p99: solveP99}

	var b strings.Builder
	fmt.Fprintf(&b, "nominal phase: %.0f req/s for %v, %d one-shot requests (%d fresh), %d session pairs; generator late p99 %.3f ms\n",
		w.plan.rate, w.plan.nominal, len(ph.shots), w.countFresh(w.in.stream[:len(ph.shots)]), pairs, percentile(one.late, .99))
	fmt.Fprintf(&b, "rate ladders (limit: solve p99 <= %v, backlog <= rate x limit):\n  %6s %10s %8s %10s %10s %10s %8s %7s %s\n",
		ladderLimit, "ladder", "req/s", "requests", "p50 ms", "p99 ms", "late p99", "backlog", "failed", "pass")
	rest := w.in.stream[len(ph.shots):]
	var rpss []float64
	for k := 0; k < ladders; k++ {
		steps, shots, res := w.ladder(d, rest)
		rest = rest[len(shots):]
		references(rep, shots)
		foldShots(rep, shots, res)
		rpss = append(rpss, maxRPS(base, steps))
		for _, st := range steps {
			fmt.Fprintf(&b, "  %6d %10.0f %8d %10.3f %10.3f %10.3f %8d %7d %v\n", k, st.rate, st.requests, st.p50, st.p99, st.lateP99, st.backlog, st.failed, st.pass)
		}
	}
	rep.check(d.close())
	fmt.Fprintf(&b, "  max_rps per ladder: %.0f\n", rpss)
	rep.table(b.String())

	rep.set("setup_s", percentile(setups, .5), len(setups))
	rep.set("alloc_kib_per_job", allocKiB, one.jobs+sessJobs)
	rep.set("cpu_us_per_job", cpuUs, one.jobs+sessJobs)
	rep.set("max_rss_mb", rss, 0)
	rep.set("jobs_per_s", float64(one.jobs+sessJobs)/ph.elapsed.Seconds(), one.ok+pairs)
	rep.set("cost_per_job", div(one.cost, float64(one.jobs)), one.ok)
	rep.set("solve_p50_ms", windowed([][]float64{one.lat}, .5), len(one.lat))
	rep.set("solve_p99_ms", solveP99, len(one.lat))
	rep.set("session_p50_ms", windowed([][]float64{sess}, .5), pairs)
	rep.set("session_p99_ms", windowed([][]float64{sess}, .99), pairs)
	rep.set("max_rps", percentile(rpss, .5), len(rpss))
	return nil
}

// windowed splits every series — latencies in due order — into the
// nominal phase's windows, takes the q-quantile of each window over all
// series, and returns the median window's: a stall that hits one window
// moves one of the values, not the reported one.
func windowed(series [][]float64, q float64) float64 {
	var per []float64
	for k := 0; k < windows; k++ {
		var part []float64
		for _, s := range series {
			part = append(part, s[k*len(s)/windows:(k+1)*len(s)/windows]...)
		}
		per = append(per, percentile(part, q))
	}
	return percentile(per, .5)
}

// perJob returns the heap KiB and CPU microseconds the process spent
// per job of the requests due in each window of the phase, as the
// median window's: a burst of load from outside the run that hits one
// window moves one of the values, not the reported one.
func (ph phase) perJob() (allocKiB, cpuUs float64) {
	var jobs [windows]int
	for i, r := range ph.shots {
		jobs[i*windows/len(ph.shots)] += r.jobs
	}
	for _, rs := range ph.sessions {
		for k, r := range rs {
			jobs[k*windows/len(rs)] += r.jobs
		}
	}
	var a, c []float64
	for k, n := range jobs {
		a = append(a, float64(ph.marks[k+1].alloc-ph.marks[k].alloc)/1024/float64(n))
		c = append(c, us(ph.marks[k+1].cpu-ph.marks[k].cpu)/float64(n))
	}
	return percentile(a, .5), percentile(c, .5)
}

// countFresh counts the shots that are not hot-pool repeats.
func (w *daemonWorkload) countFresh(shots []*shot) int {
	hot := map[*shot]bool{}
	for _, sh := range w.in.hot {
		hot[sh] = true
	}
	n := 0
	for _, sh := range shots {
		if !hot[sh] {
			n++
		}
	}
	return n
}

// setup brings a daemon to readiness and returns it with the time that
// took: start the server, open one connection per client, create the
// sessions, and run the warm-up pass — every hot-pool instance once,
// which fills the fragment cache, and one full resolve per session.
func (w *daemonWorkload) setup(rep *report) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(w.conns)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*daemon, time.Duration, error) {
		d.close()
		return nil, 0, err
	}
	for i := range d.clients {
		status, _, err := d.doOn(i, http.MethodGet, "/healthz", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("/healthz: status %d", status)
		}
		if err != nil {
			return fail(fmt.Errorf("opening connection %d: %w", i, err))
		}
	}
	for _, sc := range w.in.sessions {
		id, err := d.createSession(sc)
		if err != nil {
			return fail(err)
		}
		d.sessions = append(d.sessions, id)
	}
	var wg sync.WaitGroup
	for s, id := range d.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := w.in.sessions[s]
			_, _, err := d.sessionSolve(id, newLiveSet(sc), sc.create.Objective, w.sessionRefs[s][0])
			rep.check(err)
		}()
	}
	res, _ := d.fire(w.in.hot, math.Inf(1), time.Now(), false)
	foldShots(rep, w.in.hot, res)
	wg.Wait()
	return d, time.Since(start), nil
}

// phase is one nominal phase's outcome. marks holds the process's
// usage at the phase's start and at the end of each of its windows.
type phase struct {
	shots    []shotResult
	sessions [][]sessionResult
	elapsed  time.Duration
	marks    [windows + 1]usage
}

// usage is the process's CPU time and heap allocation so far.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func usageNow() usage { return usage{cpuTime(), allocated()} }

// nominal runs the nominal phase: the stream's first requests at the
// nominal rate, concurrently with every session's paced pairs, the
// sessions staggered across one period.
func (w *daemonWorkload) nominal(d *daemon, keep bool) phase {
	ph := phase{sessions: make([][]sessionResult, len(d.sessions))}
	start := time.Now()
	ph.marks[0] = usageNow()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= windows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * w.plan.nominal / windows)))
			ph.marks[k] = usageNow()
		}
	}()
	for s, id := range d.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := time.Duration(s) * sessionPeriod / time.Duration(len(d.sessions))
			ph.sessions[s] = d.runSession(id, w.in.sessions[s], w.sessionRefs[s], w.plan.sessionSteps, start.Add(off), keep)
		}()
	}
	ph.shots, _ = d.fire(w.in.stream[:w.plan.nominalRequests()], w.plan.rate, start, keep)
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// ladderStep is one rung of the rate ladder; latencies are in ms.
type ladderStep struct {
	rate              float64
	requests, failed  int
	p50, p99, lateP99 float64
	backlog           int
	pass              bool
}

// ladder raises the one-shot rate step by step, sending the next
// requests of rest, until a step fails: a failed request, a solve p99
// above ladderLimit, or more requests unanswered when the step's last
// one went out than arrive in ladderLimit (a growing backlog). It
// returns the steps, the shots sent and their outcomes.
func (w *daemonWorkload) ladder(d *daemon, rest []*shot) ([]ladderStep, []*shot, []shotResult) {
	rates, sizes := w.plan.ladder()
	var steps []ladderStep
	var all []shotResult
	used := 0
	for k, rate := range rates {
		shots := rest[used : used+sizes[k]]
		res, backlog := d.fire(shots, rate, time.Now(), false)
		st := ladderStep{rate: rate, requests: len(res), backlog: backlog}
		lat, late := make([]float64, len(res)), make([]float64, len(res))
		for i, r := range res {
			if r.err != nil {
				st.failed++
				r.lat = requestTimeout
			}
			lat[i], late[i] = ms(r.lat), ms(r.late)
		}
		st.p50, st.p99, st.lateP99 = percentile(lat, .5), percentile(lat, .99), percentile(late, .99)
		st.pass = st.failed == 0 && st.p99 <= ms(ladderLimit) && float64(backlog) <= rate*ladderLimit.Seconds()
		steps = append(steps, st)
		all = append(all, res...)
		used += len(shots)
		if !st.pass {
			break
		}
	}
	return steps, rest[:used], all
}

// maxRPS is the highest rate that meets the limit: the rate where solve
// p99 crosses ladderLimit, interpolated geometrically in rate and p99
// between the last passing step and the first failing one, with the
// nominal phase as step zero. A step that failed on errors or backlog
// alone, not on p99, ends the ladder at the step before it.
func maxRPS(base ladderStep, steps []ladderStep) float64 {
	limit := ms(ladderLimit)
	prev := base
	for _, st := range steps {
		if st.pass {
			prev = st
			continue
		}
		if st.failed > 0 || st.p99 <= limit || prev.p99 <= 0 || prev.p99 >= limit {
			return prev.rate
		}
		t := math.Log(limit/prev.p99) / math.Log(st.p99/prev.p99)
		return prev.rate * math.Pow(st.rate/prev.rate, t)
	}
	return prev.rate
}

// shotSummary folds one phase's checked one-shot outcomes.
type shotSummary struct {
	lat, late []float64 // ms from due; a failed request counts as the timeout
	ok, jobs  int
	cost      float64
}

// foldShots counts each outcome as one operation, failed unless its
// answer checked out and its cost equals the library reference.
func foldShots(rep *report, shots []*shot, res []shotResult) shotSummary {
	var s shotSummary
	for i, r := range res {
		sh := shots[i]
		err := r.err
		if err == nil && r.cost != sh.ref {
			err = fmt.Errorf("/v1/solve cost %v, library Solve %v", r.cost, sh.ref)
		}
		rep.check(err)
		lat := r.lat
		if err != nil {
			lat = requestTimeout
		}
		s.lat = append(s.lat, ms(lat))
		s.late = append(s.late, ms(r.late))
		if err == nil {
			s.ok++
			s.jobs += len(sh.req.Jobs)
			s.cost += r.cost
		}
	}
	return s
}

// foldSessions counts each delta→solve pair as one operation and
// returns, per step, the mean over the sessions of that step's pair
// latency from due in ms (a failed pair counts as the timeout), and the
// jobs in the instances solved. The sessions differ in objective and
// mode, so their pairs form two modes; the per-step mean is one.
func foldSessions(rep *report, res [][]sessionResult) ([]float64, int) {
	lat := make([]float64, len(res[0]))
	jobs := 0
	for _, rs := range res {
		for k, r := range rs {
			rep.check(r.err)
			d := r.lat
			if r.err != nil {
				d = requestTimeout
			} else {
				jobs += r.jobs
			}
			lat[k] += ms(d) / float64(len(res))
		}
	}
	return lat, jobs
}

// counters is a snapshot of the daemon's own accounting.
type counters struct {
	prom  map[string]float64
	stats service.Stats
}

func (d *daemon) scrape() (counters, error) {
	status, body, err := d.do(http.MethodGet, "/metrics", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", status)
	}
	if err != nil {
		return counters{}, err
	}
	c := counters{prom: map[string]float64{}, stats: d.srv.Stats()}
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				c.prom[line[:i]] = v
			}
		}
	}
	return c, nil
}

// since is the growth of one exposition sample between two scrapes.
func (c counters) since(prev counters, sample string) float64 {
	return c.prom[sample] - prev.prom[sample]
}

// queueWait rebuilds the daemon's queue-wait histogram over the span
// between two scrapes.
func queueWait(before, after counters) obs.Snapshot {
	var s obs.Snapshot
	prev := 0.0
	for i := 0; i <= obs.NumFiniteBuckets; i++ {
		le := "+Inf"
		if i < obs.NumFiniteBuckets {
			le = strconv.FormatFloat(obs.BucketBound(i), 'g', -1, 64)
		}
		cum := after.since(before, `gapschedd_queue_wait_seconds_bucket{le="`+le+`"}`)
		s.Buckets[i] = uint64(cum - prev)
		prev = cum
	}
	s.Sum = time.Duration(after.since(before, "gapschedd_queue_wait_seconds_sum") * float64(time.Second))
	return s
}

// traced runs the nominal phase twice on fresh daemons with the same
// inputs — plainly, then keeping every answer — and derives the
// per-layer metrics and cost table from the second: the daemon's own
// counters (Stats and /metrics), each answer's timings, the wire codec
// timed on the phase's own bodies, and the session scripts replayed
// through a library Session. The table decomposes the summed request
// time, send to answer, of the phase: the open loop fixes its wall
// time.
func (w *daemonWorkload) traced(o options, rep *report) error {
	d, _, err := w.setup(rep)
	if err != nil {
		return err
	}
	plain := w.nominal(d, false)
	rep.check(d.close())
	if d, _, err = w.setup(rep); err != nil {
		return err
	}
	before, err := d.scrape()
	if err != nil {
		d.close()
		return err
	}
	cpu := cpuTime()
	ph := w.nominal(d, true)
	cpu = cpuTime() - cpu
	after, err := d.scrape()
	rep.check(d.close())
	if err != nil {
		return err
	}
	shots := w.in.stream[:len(ph.shots)]
	foldShots(rep, shots, plain.shots)
	foldSessions(rep, plain.sessions)
	one := foldShots(rep, shots, ph.shots)
	foldSessions(rep, ph.sessions)

	rec := newRecorder()
	rows := map[string]time.Duration{}
	var total, plainTotal time.Duration
	var answers, fragments int
	var prepNs, asmNs, cacheNs int64
	// account adds one answer's stage timings to the rows.
	account := func(resp sched.SolveResponse, parent int, start time.Time, op int) time.Duration {
		t := resp.Timings
		if t == nil {
			return 0
		}
		answers++
		fragments += resp.Subinstances
		prepNs += t.PrepNs
		asmNs += t.AssembleNs
		cacheNs += t.CacheNs
		var in time.Duration
		for _, part := range []struct {
			layer string
			ns    int64
		}{{"prep", t.PrepNs + t.AssembleNs}, {"fragcache", t.CacheNs}, {"core", t.SolveDPNs}, {"poly", t.SolvePolyNs}, {"heur", t.SolveHeurNs}} {
			dur := time.Duration(part.ns)
			rows[part.layer] += dur
			in += dur
			if dur > 0 {
				rec.add(part.layer, part.layer, op, parent, start, dur)
			}
		}
		return in
	}
	var oneShotInside, oneShotTime time.Duration
	for i, r := range ph.shots {
		if r.err != nil {
			continue
		}
		t := r.lat - r.late
		total += t
		oneShotTime += t
		parent := rec.add("POST /v1/solve", "service", i, -1, r.sent, t)
		oneShotInside += account(r.resp, parent, r.sent, i)
	}
	var resolved, reused, pairs int
	for s, rs := range ph.sessions {
		for k, r := range rs {
			if r.err != nil {
				continue
			}
			t := r.lat - r.late
			total += t
			op := len(ph.shots) + s*len(rs) + k
			parent := rec.add("POST /v1/session/{id}/delta+solve", "service", op, -1, r.sent, t)
			account(r.resp, parent, r.sent, op)
			resolved += r.resp.ResolvedFragments
			reused += r.resp.ReusedFragments
			pairs++
		}
	}
	for _, r := range plain.shots {
		if r.err == nil {
			plainTotal += r.lat - r.late
		}
	}
	for _, rs := range plain.sessions {
		for _, r := range rs {
			if r.err == nil {
				plainTotal += r.lat - r.late
			}
		}
	}

	// The wire codec, timed on the phase's own bodies: request decoding
	// as the handlers do it, and re-encoding of each answer.
	var dec, enc time.Duration
	var decoded, encoded, reqBytes, respBytes int
	codec := func(decode func() error, reqBody, respBody []byte, op int) error {
		start := time.Now()
		err := decode()
		took := time.Since(start)
		if err != nil {
			return err
		}
		rec.add("sched.Decode*", "sched", op, -1, start, took)
		dec += took
		decoded++
		reqBytes += len(reqBody)
		if respBody == nil {
			return nil
		}
		var resp sched.SolveResponse
		if err := json.Unmarshal(respBody, &resp); err != nil {
			return err
		}
		start = time.Now()
		err = json.NewEncoder(io.Discard).Encode(resp)
		took = time.Since(start)
		rec.add("encode SolveResponse", "sched", op, -1, start, took)
		enc += took
		encoded++
		respBytes += len(respBody)
		return err
	}
	for i, r := range ph.shots {
		if r.err != nil {
			continue
		}
		body := shots[i].body
		if err := codec(func() error { _, err := sched.DecodeSolveRequest(bytes.NewReader(body)); return err }, body, r.body, i); err != nil {
			return err
		}
	}
	for s, rs := range ph.sessions {
		for k, r := range rs {
			if r.err != nil {
				continue
			}
			body := w.in.sessions[s].steps[k].body
			op := len(ph.shots) + s*len(rs) + k
			if err := codec(func() error { _, err := sched.DecodeSessionDeltaRequest(bytes.NewReader(body)); return err }, body, r.body, op); err != nil {
				return err
			}
		}
	}
	rows["sched"] = dec + enc

	// The incremental layer: the same session steps through a library
	// Session; what a Resolve spends outside its fragment solves, plus
	// the deltas themselves, is the tracker's bookkeeping.
	var inc incrStats
	for s, sc := range w.in.sessions {
		if _, err := replaySession(sc, w.plan.sessionSteps, rec, -1-s, &inc); err != nil {
			return fmt.Errorf("session replay: %w", err)
		}
	}
	rows["incr"] = inc.apply + inc.resolve - inc.inside

	qw := queueWait(before, after)
	rows["service"] = qw.Sum
	if err := rec.write(o); err != nil {
		return err
	}

	hits := float64(after.stats.Cache.Hits - before.stats.Cache.Hits)
	misses := float64(after.stats.Cache.Misses - before.stats.Cache.Misses)
	backend := func(name string) float64 {
		return after.since(before, `gapschedd_fragment_solve_duration_seconds_count{backend="`+name+`"}`)
	}
	expanded := after.since(before, `gapschedd_dp_states_total{outcome="expanded"}`)
	pruned := after.since(before, `gapschedd_dp_states_total{outcome="pruned"}`)
	requests := float64(len(ph.shots) + 2*pairs)
	rep.set("service.queue_wait_p50_ms", 1e3*qw.Quantile(.5), int(qw.Count()))
	rep.set("service.queue_wait_p99_ms", 1e3*qw.Quantile(.99), int(qw.Count()))
	rep.set("service.batch_size", div(float64(after.stats.SolveRequests-before.stats.SolveRequests),
		float64(after.stats.Dispatches-before.stats.Dispatches)), 0)
	rep.set("service.residual_ms", div(ms(oneShotTime-oneShotInside-qw.Sum), float64(one.ok)), one.ok)
	rep.set("service.cpu_us_per_req", div(us(cpu), requests), int(requests))
	rep.set("sched.decode_us", div(us(dec), float64(decoded)), decoded)
	rep.set("sched.encode_us", div(us(enc), float64(encoded)), encoded)
	rep.set("sched.req_bytes", div(float64(reqBytes), float64(decoded)), decoded)
	rep.set("sched.resp_bytes", div(float64(respBytes), float64(encoded)), encoded)
	rep.set("gapsched.fragments.dp", after.since(before, `gapschedd_backend_solves_total{backend="dp"}`), 0)
	rep.set("gapsched.fragments.poly", after.since(before, `gapschedd_backend_solves_total{backend="poly"}`), 0)
	rep.set("gapsched.fragments.heuristic", after.since(before, `gapschedd_backend_solves_total{backend="heuristic"}`), 0)
	rep.set("prep.split_us", div(float64(prepNs)/1e3, float64(answers)), answers)
	rep.set("prep.fragments", float64(fragments), 0)
	rep.set("prep.assemble_us", div(float64(asmNs)/1e3, float64(answers)), answers)
	rep.set("fragcache.hit_ratio", div(hits, hits+misses), int(hits+misses))
	rep.set("fragcache.hit_us", div(float64(cacheNs)/1e3, hits), int(hits))
	rep.set("fragcache.waits", float64(after.stats.Cache.Waits-before.stats.Cache.Waits), 0)
	rep.set("fragcache.evictions", float64(after.stats.Cache.Evictions-before.stats.Cache.Evictions), 0)
	rep.set("core.busy_ms", ms(rows["core"]), 0)
	rep.set("core.fragments", backend("dp"), 0)
	rep.set("core.expanded_states", expanded, 0)
	rep.set("core.ns_per_expanded_state", div(float64(rows["core"]), expanded), 0)
	rep.set("core.prune_ratio", div(pruned, pruned+expanded), 0)
	rep.set("poly.busy_ms", ms(rows["poly"]), 0)
	rep.set("poly.fragments", backend("poly"), 0)
	rep.set("heur.busy_ms", ms(rows["heur"]), 0)
	rep.set("heur.fragments", backend("heuristic"), 0)
	rep.set("incr.resolve_us", div(us(inc.resolve), float64(inc.resolves)), inc.resolves)
	rep.set("incr.resolved_per_solve", div(float64(resolved), float64(pairs)), pairs)
	rep.set("incr.reused_per_solve", div(float64(reused), float64(pairs)), pairs)
	rep.set("gen.late_p99_ms", percentile(one.late, .99), len(one.late))
	rep.set("trace_overhead", div(float64(total), float64(plainTotal)), 0)

	_, calls := rec.selfTimes()
	layerTable(rep, fmt.Sprintf("per-layer time, summed over %d requests and %d session pairs, send to answer", one.ok, pairs),
		rows, calls, total,
		"service is the coalescer's queue wait (daemon histogram); sched is the wire codec timed on the phase's bodies",
		"prep, fragcache, core, poly and heur are the answers' own timings; core includes its heur incumbent seeding",
		"incr is a library Session replay of the same steps; gapsched dispatch and HTTP/2 transport fall in unattributed")
	return nil
}
