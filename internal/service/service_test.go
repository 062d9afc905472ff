package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	gapsched "repro"
	"repro/internal/sched"
	"repro/internal/workload"
)

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// trySolve is the goroutine-safe counterpart of postJSON+decodeSolve:
// it returns errors instead of calling into testing.T, which must not
// be failed from spawned goroutines.
func trySolve(url string, req sched.SolveRequest) (sched.SolveResponse, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		return sched.SolveResponse{}, err
	}
	httpResp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return sched.SolveResponse{}, err
	}
	defer httpResp.Body.Close()
	return sched.DecodeSolveResponse(httpResp.Body)
}

func decodeSolve(t *testing.T, resp *http.Response) sched.SolveResponse {
	t.Helper()
	defer resp.Body.Close()
	out, err := sched.DecodeSolveResponse(resp.Body)
	if err != nil {
		t.Fatalf("undecodable solve response: %v", err)
	}
	return out
}

// testPool builds distinct feasible instances that prep into several
// fragments, so coalesced batches exercise the fragment queue.
func testPool(n int) []sched.SolveRequest {
	rng := rand.New(rand.NewSource(5))
	reqs := make([]sched.SolveRequest, n)
	for i := range reqs {
		in := workload.FeasibleOneInterval(rng, 8, 2, 40, 4)
		obj := sched.WireGaps
		// Gaps requests carry varying alphas: the objective ignores
		// them, so they must all still coalesce into one group.
		alpha := float64(i % 3)
		if i%2 == 1 {
			obj, alpha = sched.WirePower, 2.5
		}
		reqs[i] = sched.SolveRequest{Objective: obj, Alpha: alpha, Procs: in.Procs, Jobs: in.Jobs}
	}
	return reqs
}

func directSolve(t *testing.T, req sched.SolveRequest) gapsched.Solution {
	t.Helper()
	s := gapsched.Solver{Alpha: req.Alpha}
	if req.Objective == sched.WirePower {
		s.Objective = gapsched.ObjectivePower
	}
	sol, err := s.Solve(req.Instance())
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	return sol
}

// End-to-end coalescing test: concurrent /v1/solve requests are forced
// into exactly one dispatch per solver configuration by a size trigger
// (window far longer than the test, MaxBatch = requests per
// configuration), and every response must be bit-identical to a direct
// Solve of the same instance.
func TestSolveCoalescedMatchesDirect(t *testing.T) {
	const perKey = 12
	pool := testPool(2 * perKey) // alternates gaps / power, perKey each
	srv := New(Config{Window: time.Hour, MaxBatch: perKey, SolveTimeout: time.Minute})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	responses := make([]sched.SolveResponse, len(pool))
	errs := make([]error, len(pool))
	for i, req := range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i], errs[i] = trySolve(ts.URL+"/v1/solve", req)
		}()
	}
	wg.Wait()

	for i, got := range responses {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got.Err != nil {
			t.Fatalf("request %d failed: %v", i, got.Err)
		}
		want := directSolve(t, pool[i])
		if got.Spans != want.Spans || got.Gaps != want.Gaps || got.Power != want.Power {
			t.Errorf("request %d: served (spans=%d gaps=%d power=%v) != direct (spans=%d gaps=%d power=%v)",
				i, got.Spans, got.Gaps, got.Power, want.Spans, want.Gaps, want.Power)
		}
		if got.Schedule == nil {
			t.Fatalf("request %d: no schedule", i)
		}
		if err := got.Schedule.Validate(pool[i].Instance()); err != nil {
			t.Errorf("request %d: served schedule invalid: %v", i, err)
		}
	}

	st := srv.Stats()
	if st.SolveRequests != int64(len(pool)) {
		t.Errorf("SolveRequests = %d, want %d", st.SolveRequests, len(pool))
	}
	// Every handler blocks until its window dispatches and the window
	// only dispatches at MaxBatch (the timer is an hour out), so the
	// coalescer must have folded the load into one dispatch per
	// configuration.
	if st.Dispatches != 2 {
		t.Errorf("Dispatches = %d, want 2 (one per solver configuration)", st.Dispatches)
	}
	if st.Coalesced != int64(len(pool)) {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, len(pool))
	}
	if st.Cache.Misses == 0 {
		t.Errorf("shared cache saw no misses: %+v", st.Cache)
	}
}

// Uncoalesced servers (zero window) must serve the same answers.
func TestSolveUncoalescedMatchesDirect(t *testing.T) {
	pool := testPool(6)
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i, req := range pool {
		got := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", req))
		if got.Err != nil {
			t.Fatalf("request %d failed: %v", i, got.Err)
		}
		want := directSolve(t, req)
		if got.Spans != want.Spans || got.Power != want.Power {
			t.Errorf("request %d: served != direct", i)
		}
	}
	if st := srv.Stats(); st.Coalesced != 0 {
		t.Errorf("uncoalesced server reported %d coalesced requests", st.Coalesced)
	}
}

func TestBatchEndpoint(t *testing.T) {
	pool := testPool(4)
	breq := sched.BatchRequest{Requests: []sched.SolveRequest{
		pool[0],
		{Jobs: []sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}}}, // infeasible
		{Objective: "speed", Jobs: []sched.Job{}},                                 // config error
		pool[1],
	}}
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	httpResp := postJSON(t, ts.URL+"/v1/batch", breq)
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", httpResp.StatusCode)
	}
	bresp, err := sched.DecodeBatchResponse(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp.Responses) != 4 {
		t.Fatalf("got %d responses, want 4", len(bresp.Responses))
	}
	for _, i := range []int{0, 3} {
		got, want := bresp.Responses[i], directSolve(t, breq.Requests[i])
		if got.Err != nil || got.Spans != want.Spans || got.Power != want.Power {
			t.Errorf("batch element %d: served %+v != direct %+v", i, got, want)
		}
	}
	if e := bresp.Responses[1].Err; e == nil || e.Code != sched.ErrCodeInfeasible {
		t.Errorf("element 1: got %+v, want infeasible", bresp.Responses[1])
	}
	if e := bresp.Responses[2].Err; e == nil || e.Code != sched.ErrCodeBadRequest {
		t.Errorf("element 2: got %+v, want bad_request", bresp.Responses[2])
	}
}

// TestBatchEnvelopeDeadline: SolveTimeout bounds a whole /v1/batch
// envelope, not each configuration group. Groups run in order of first
// appearance; once a slow first group has used up the deadline, every
// later group fails as canceled instead of starting a fresh timeout.
func TestBatchEnvelopeDeadline(t *testing.T) {
	srv := New(Config{SolveTimeout: 25 * time.Millisecond, Workers: 1, CacheCapacity: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 200 distinct 16-job clusters on 3 processors, far apart: prep
	// splits them into over a hundred fragments that together take far
	// longer than the deadline on one worker, and cancellation is
	// observed between fragments.
	rng := rand.New(rand.NewSource(9))
	slow := sched.SolveRequest{Procs: 3}
	for c := 0; c < 200; c++ {
		for _, j := range workload.FeasibleOneInterval(rng, 16, 3, 30, 10).Jobs {
			slow.Jobs = append(slow.Jobs, sched.Job{Release: j.Release + 100*c, Deadline: j.Deadline + 100*c})
		}
	}
	quick := []sched.Job{{Release: 0, Deadline: 2}}
	rest := []sched.SolveRequest{
		{Objective: sched.WirePower, Alpha: 1, Jobs: quick},
		{Objective: sched.WirePower, Alpha: 2, Jobs: quick},
		{Mode: sched.WireModeHeuristic, Jobs: quick},
	}
	batch := func(reqs []sched.SolveRequest) []sched.SolveResponse {
		t.Helper()
		httpResp := postJSON(t, ts.URL+"/v1/batch", sched.BatchRequest{Requests: reqs})
		defer httpResp.Body.Close()
		bresp, err := sched.DecodeBatchResponse(httpResp.Body)
		if err != nil || len(bresp.Responses) != len(reqs) {
			t.Fatalf("batch: %v %+v", err, bresp)
		}
		return bresp.Responses
	}

	// On their own, the three quick groups finish well inside the deadline.
	for i, r := range batch(rest) {
		if r.Err != nil {
			t.Fatalf("quick group %d alone: %+v", i, r.Err)
		}
	}
	for i, r := range batch(append([]sched.SolveRequest{slow}, rest...)) {
		if r.Err == nil || r.Err.Code != sched.ErrCodeCanceled {
			t.Errorf("group %d: got %+v, want canceled once the envelope deadline passed", i, r.Err)
		}
	}
}

// A malformed /v1/batch envelope must come back in the wire contract's
// own shape: a BatchResponse with an envelope-level error that the
// strict decoder accepts.
func TestBatchEnvelopeErrorIsDecodable(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"requests": nope`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	bresp, err := sched.DecodeBatchResponse(resp.Body)
	if err != nil {
		t.Fatalf("envelope error not decodable as BatchResponse: %v", err)
	}
	if bresp.Err == nil || bresp.Err.Code != sched.ErrCodeBadRequest || len(bresp.Responses) != 0 {
		t.Fatalf("unexpected envelope payload: %+v", bresp)
	}
}

func TestSolveErrorPayloads(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"jobs": not json`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if out := decodeSolve(t, resp); out.Err == nil || out.Err.Code != sched.ErrCodeBadRequest {
		t.Errorf("malformed body: payload %+v", out)
	}

	infeasible := sched.SolveRequest{Jobs: []sched.Job{{Release: 2, Deadline: 2}, {Release: 2, Deadline: 2}}}
	resp = postJSON(t, ts.URL+"/v1/solve", infeasible)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible: status %d, want 422", resp.StatusCode)
	}
	if out := decodeSolve(t, resp); out.Err == nil || out.Err.Code != sched.ErrCodeInfeasible {
		t.Errorf("infeasible: payload %+v", out)
	}

	st := srv.Stats()
	if st.Errors[sched.ErrCodeBadRequest] != 1 || st.Errors[sched.ErrCodeInfeasible] != 1 {
		t.Errorf("error counters: %+v", st.Errors)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", testPool(1)[0]))

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, series := range []string{
		`gapschedd_requests_total{endpoint="solve"} 1`,
		"gapschedd_dispatches_total 1",
		"gapschedd_inflight_requests",
		`gapschedd_fragcache_events_total{event="miss"}`,
		"gapschedd_fragcache_entries",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics output missing %q:\n%s", series, body)
		}
	}
}

// Graceful shutdown must answer requests already buffered in an open
// window and reject requests arriving afterwards.
func TestCloseFlushesPendingWindow(t *testing.T) {
	pool := testPool(2)
	srv := New(Config{Window: time.Hour, MaxBatch: 100})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type solveResult struct {
		resp sched.SolveResponse
		err  error
	}
	got := make(chan solveResult, 1)
	go func() {
		resp, err := trySolve(ts.URL+"/v1/solve", pool[0])
		got <- solveResult{resp, err}
	}()
	// Wait until the request is actually buffered in an open window —
	// the request counter bumps before enqueue, so polling it would
	// race Close against the handler's enqueue call.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Buffered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached a coalescing window")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()

	select {
	case out := <-got:
		if out.err != nil {
			t.Fatalf("buffered request errored on shutdown: %v", out.err)
		}
		if out.resp.Err != nil {
			t.Fatalf("buffered request failed on shutdown: %v", out.resp.Err)
		}
		if want := directSolve(t, pool[0]); out.resp.Spans != want.Spans {
			t.Errorf("flushed answer wrong: %d != %d", out.resp.Spans, want.Spans)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("buffered request never answered after Close")
	}

	resp := postJSON(t, ts.URL+"/v1/solve", pool[1])
	out := decodeSolve(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || out.Err == nil || out.Err.Code != sched.ErrCodeUnavailable {
		t.Errorf("solve after Close: status %d payload %+v, want 503 unavailable", resp.StatusCode, out)
	}

	// Client-built batches share the shutdown lifecycle: envelopes
	// arriving after Close are rejected, in the envelope's own shape.
	bresp := postJSON(t, ts.URL+"/v1/batch", sched.BatchRequest{Requests: []sched.SolveRequest{pool[1]}})
	defer bresp.Body.Close()
	benv, err := sched.DecodeBatchResponse(bresp.Body)
	if bresp.StatusCode != http.StatusServiceUnavailable || err != nil || benv.Err == nil || benv.Err.Code != sched.ErrCodeUnavailable {
		t.Errorf("batch after Close: status %d payload %+v err %v, want 503 unavailable", bresp.StatusCode, benv, err)
	}
}
