package service

// Tests for the observability layer: strict Prometheus exposition
// validity of /metrics, the /v1/debug/traces ring, per-stage timings
// on the wire, and the structured request/slow-solve log lines.

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// fetch GETs a URL and returns the body.
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// driveTraffic exercises every instrumented endpoint once: solves,
// a batch, and a full session lifecycle.
func driveTraffic(t *testing.T, url string) {
	t.Helper()
	pool := testPool(4)
	for _, req := range pool[:2] {
		if got := decodeSolve(t, postJSON(t, url+"/v1/solve", req)); got.Err != nil {
			t.Fatalf("solve failed: %+v", got.Err)
		}
	}
	resp := postJSON(t, url+"/v1/batch", sched.BatchRequest{Requests: pool[2:]})
	resp.Body.Close()

	code, out := sessionDo(t, "POST", url+"/v1/session", sched.SessionCreateRequest{
		Objective: sched.WireGaps, Procs: 1,
		Jobs: []sched.Job{{Release: 0, Deadline: 2}, {Release: 10, Deadline: 12}},
	})
	if code != http.StatusOK {
		t.Fatalf("session create: status %d %+v", code, out)
	}
	if code, sresp := sessionSolve(t, url, out.Session); code != http.StatusOK || sresp.Err != nil {
		t.Fatalf("session solve: status %d err %+v", code, sresp.Err)
	}
	sessionDo(t, "POST", url+"/v1/session/"+out.Session+"/delta", sched.SessionDeltaRequest{
		Add: []sched.Job{{Release: 20, Deadline: 22}},
	})
	sessionDo(t, "DELETE", url+"/v1/session/"+out.Session, nil)
}

// expoSeries is one histogram series' buckets in order of appearance.
type expoSeries struct {
	les  []float64
	cums []uint64
}

// exposition is the parsed form of one /metrics body.
type exposition struct {
	typeOf  map[string]string      // family → metric type
	buckets map[string]*expoSeries // family|labels (sans le) → buckets
	counts  map[string]uint64      // family|labels → _count value
	samples map[string]string      // metric|labels → value, non-histogram samples
}

// parseExposition is the strict Prometheus text-format validator: each
// family must have HELP and TYPE lines before its first sample, no
// family may be declared twice, no line may be blank, and every
// histogram series must have cumulative monotone buckets ending at
// le="+Inf" that agrees with _count. It fails the test on any
// violation and returns the parsed exposition for family-specific
// assertions.
func parseExposition(t *testing.T, body string) exposition {
	t.Helper()
	helpSeen := map[string]bool{}
	typeOf := map[string]string{}
	buckets := map[string]*expoSeries{} // family + label set (sans le)
	counts := map[string]uint64{}
	samples := map[string]string{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			if helpSeen[name] {
				t.Fatalf("line %d: duplicate HELP for family %q", ln+1, name)
			}
			helpSeen[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			if typeOf[name] != "" {
				t.Fatalf("line %d: duplicate TYPE for family %q", ln+1, name)
			}
			if !helpSeen[name] {
				t.Fatalf("line %d: TYPE for %q before its HELP", ln+1, name)
			}
			typeOf[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}

		// Sample line: <name>[{labels}] <value>
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		metric := line[:nameEnd]
		family := metric
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(metric, suffix); ok && typeOf[base] == "histogram" {
				family = base
				break
			}
		}
		if typeOf[family] == "" {
			t.Fatalf("line %d: sample %q has no preceding HELP/TYPE", ln+1, metric)
		}

		var labels, value string
		rest := line[nameEnd:]
		if rest[0] == '{' {
			end := strings.LastIndexByte(rest, '}')
			if end < 0 {
				t.Fatalf("line %d: unterminated label set %q", ln+1, line)
			}
			labels, value = rest[1:end], strings.TrimSpace(rest[end+1:])
		} else {
			value = strings.TrimSpace(rest)
		}
		if typeOf[family] != "histogram" {
			key := metric
			if labels != "" {
				key += "|" + labels
			}
			samples[key] = value
			continue
		}

		// Histogram bookkeeping: strip le, canonicalize the rest.
		var le string
		var rem []string
		for _, l := range strings.Split(labels, ",") {
			if l == "" {
				continue
			}
			if v, ok := strings.CutPrefix(l, "le="); ok {
				le = strings.Trim(v, `"`)
			} else {
				rem = append(rem, l)
			}
		}
		sort.Strings(rem)
		key := family + "|" + strings.Join(rem, ",")
		switch {
		case strings.HasSuffix(metric, "_bucket"):
			if le == "" {
				t.Fatalf("line %d: histogram bucket without le label: %q", ln+1, line)
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("line %d: unparsable le %q: %v", ln+1, le, err)
			}
			cum, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("line %d: unparsable bucket count %q: %v", ln+1, value, err)
			}
			s := buckets[key]
			if s == nil {
				s = &expoSeries{}
				buckets[key] = s
			}
			s.les = append(s.les, bound)
			s.cums = append(s.cums, cum)
		case strings.HasSuffix(metric, "_count"):
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("line %d: unparsable count %q: %v", ln+1, value, err)
			}
			counts[key] = n
		}
	}

	for key, s := range buckets {
		last := len(s.les) - 1
		for i := 1; i <= last; i++ {
			if s.les[i] <= s.les[i-1] {
				t.Errorf("series %s: le bounds not increasing at index %d (%g after %g)", key, i, s.les[i], s.les[i-1])
			}
			if s.cums[i] < s.cums[i-1] {
				t.Errorf("series %s: buckets not cumulative at index %d (%d after %d)", key, i, s.cums[i], s.cums[i-1])
			}
		}
		if !strings.Contains(strings.ToLower(strconv.FormatFloat(s.les[last], 'g', -1, 64)), "inf") {
			t.Errorf("series %s: last bucket le=%g, want +Inf", key, s.les[last])
		}
		if n, ok := counts[key]; !ok || n != s.cums[last] {
			t.Errorf("series %s: _count %d != +Inf bucket %d", key, n, s.cums[last])
		}
	}
	return exposition{typeOf: typeOf, buckets: buckets, counts: counts, samples: samples}
}

// requiredFamilies are the metric families every /metrics body must
// expose, with their types.
var requiredFamilies = map[string]string{
	"gapschedd_request_duration_seconds":        "histogram",
	"gapschedd_fragment_solve_duration_seconds": "histogram",
	"gapschedd_queue_wait_seconds":              "histogram",
	"gapschedd_slo_latency_seconds":             "gauge",
	"gapschedd_slo_error_budget_remaining":      "gauge",
	"gapschedd_slo_burn_rate":                   "gauge",
	"gapschedd_slo_degraded":                    "gauge",
	"gapschedd_build_info":                      "gauge",
	"gapschedd_start_time_seconds":              "gauge",
	"gapschedd_go_goroutines":                   "gauge",
	"gapschedd_go_heap_inuse_bytes":             "gauge",
	"gapschedd_go_heap_alloc_bytes":             "gauge",
}

// TestMetricsExpositionStrict drives traffic through every endpoint
// and runs the strict validator over /metrics, then pins the required
// families and per-endpoint series.
func TestMetricsExpositionStrict(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	driveTraffic(t, ts.URL)
	exp := parseExposition(t, fetch(t, ts.URL+"/metrics"))
	typeOf, counts, samples := exp.typeOf, exp.counts, exp.samples

	for family, typ := range requiredFamilies {
		if typeOf[family] != typ {
			t.Errorf("family %q missing or wrong type (TYPE %q, want %q)", family, typeOf[family], typ)
		}
	}
	if len(exp.buckets) == 0 {
		t.Fatal("no histogram series found in exposition")
	}
	// The six instrumented endpoints each report a duration series.
	for _, ep := range []string{"solve", "batch", "session_create", "session_delta", "session_solve", "session_delete"} {
		key := `gapschedd_request_duration_seconds|endpoint="` + ep + `"`
		if n := counts[key]; n == 0 {
			t.Errorf("endpoint %q: no request duration samples (count map %v)", ep, counts[key])
		}
	}
	if counts[`gapschedd_fragment_solve_duration_seconds|backend="dp"`] == 0 {
		t.Error("no dp fragment solve samples after exact-mode traffic")
	}
	// Every instrumented endpoint reports all three SLO quantile gauges.
	for _, ep := range sloEndpointNames {
		for _, q := range []string{"0.5", "0.9", "0.99"} {
			key := `gapschedd_slo_latency_seconds|endpoint="` + ep + `",quantile="` + q + `"`
			if _, ok := samples[key]; !ok {
				t.Errorf("missing SLO latency sample %s", key)
			}
		}
	}
	if v := samples["gapschedd_slo_error_budget_remaining"]; v != "1" {
		t.Errorf("error budget after clean traffic = %q, want 1", v)
	}
	if v := samples["gapschedd_slo_degraded"]; v != "0" {
		t.Errorf("slo_degraded after clean traffic = %q, want 0", v)
	}
	// Vitals: the build-info labels carry a Go version, and the start
	// time is a positive Unix timestamp.
	foundBuild := false
	for key := range samples {
		if strings.HasPrefix(key, "gapschedd_build_info|") && strings.Contains(key, `goversion="go`) {
			foundBuild = true
		}
	}
	if !foundBuild {
		t.Errorf("no build_info sample with a goversion label; samples: %v", samples)
	}
	if v, err := strconv.ParseFloat(samples["gapschedd_start_time_seconds"], 64); err != nil || v <= 0 {
		t.Errorf("start_time_seconds = %q, want positive float", samples["gapschedd_start_time_seconds"])
	}
}

// TestDebugTracesEndpoint checks that a served solve leaves a span
// tree in the debug ring: per-stage spans with backend attribution,
// dispatch attributes, and newest-first ordering.
func TestDebugTracesEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	pool := testPool(2)
	for _, req := range pool {
		if got := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", req)); got.Err != nil {
			t.Fatalf("solve failed: %+v", got.Err)
		}
	}

	var out struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal([]byte(fetch(t, ts.URL+"/v1/debug/traces")), &out); err != nil {
		t.Fatalf("undecodable traces payload: %v", err)
	}
	if len(out.Traces) < 2 {
		t.Fatalf("got %d traces, want >= 2", len(out.Traces))
	}
	for i := 1; i < len(out.Traces); i++ {
		if out.Traces[i].ID >= out.Traces[i-1].ID {
			t.Errorf("traces not newest-first: id %d before id %d", out.Traces[i-1].ID, out.Traces[i].ID)
		}
	}
	tr := out.Traces[0]
	if tr.Op != "solve" || tr.ID == 0 || tr.Dur <= 0 {
		t.Fatalf("head trace malformed: %+v", tr)
	}
	if tr.Attrs["mode"] == "" || tr.Attrs["requests"] != "1" || tr.Attrs["fragments"] == "" {
		t.Errorf("dispatch attrs missing: %v", tr.Attrs)
	}
	stages := map[string]bool{}
	for _, sp := range tr.Spans {
		stages[sp.Name] = true
		if sp.Name == obs.StageSolve && sp.Backend == "" {
			t.Errorf("solve span without backend: %+v", sp)
		}
		if sp.Dur < 0 || sp.Start < 0 {
			t.Errorf("span with negative timing: %+v", sp)
		}
	}
	for _, want := range []string{obs.StageQueueWait, obs.StagePrep, obs.StageSolve, obs.StageAssemble} {
		if !stages[want] {
			t.Errorf("trace missing %q span; spans: %+v", want, tr.Spans)
		}
	}
}

// TestDispatchTraceAttrs: a coalesced /v1/solve window and a /v1/batch
// group dispatch through one path, so both traces carry mode, requests
// and fragments (the fragments their answers were assembled from). The
// batch group serves one HTTP request and also carries its id; the
// shared window does not.
func TestDispatchTraceAttrs(t *testing.T) {
	srv := New(Config{Window: time.Hour, MaxBatch: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// pool[0] and pool[2] are gaps requests: they share one window,
	// which the second fills. pool[1] goes through /v1/batch.
	pool := testPool(3)
	var wg sync.WaitGroup
	solved := make([]sched.SolveResponse, 2)
	errs := make([]error, 2)
	for i, req := range []sched.SolveRequest{pool[0], pool[2]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solved[i], errs[i] = trySolve(ts.URL+"/v1/solve", req)
		}()
	}
	wg.Wait()
	for i := range solved {
		if errs[i] != nil || solved[i].Err != nil {
			t.Fatalf("solve %d: %v %+v", i, errs[i], solved[i].Err)
		}
	}
	httpResp := postJSON(t, ts.URL+"/v1/batch", sched.BatchRequest{Requests: pool[1:2]})
	batched, err := sched.DecodeBatchResponse(httpResp.Body)
	httpResp.Body.Close()
	if err != nil || len(batched.Responses) != 1 || batched.Responses[0].Err != nil {
		t.Fatalf("batch: %v %+v", err, batched)
	}

	var out struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal([]byte(fetch(t, ts.URL+"/v1/debug/traces")), &out); err != nil {
		t.Fatalf("undecodable traces payload: %v", err)
	}
	byOp := map[string]obs.TraceData{}
	for _, tr := range out.Traces {
		byOp[tr.Op] = tr
	}
	for op, want := range map[string]map[string]string{
		"solve": {"mode": "exact", "requests": "2",
			"fragments": strconv.Itoa(solved[0].Subinstances + solved[1].Subinstances)},
		"batch": {"mode": "exact", "requests": "1",
			"fragments": strconv.Itoa(batched.Responses[0].Subinstances)},
	} {
		tr, ok := byOp[op]
		if !ok {
			t.Fatalf("no %q trace among %d", op, len(out.Traces))
		}
		for k, v := range want {
			if tr.Attrs[k] != v {
				t.Errorf("%s trace: attr %s = %q, want %q (attrs %v)", op, k, tr.Attrs[k], v, tr.Attrs)
			}
		}
	}
	if byOp["batch"].Attrs["requestId"] == "" {
		t.Errorf("batch trace has no requestId: %v", byOp["batch"].Attrs)
	}
	if id, ok := byOp["solve"].Attrs["requestId"]; ok {
		t.Errorf("shared window trace carries requestId %s", id)
	}
}

// TestDebugTracesDisabled: a negative TraceRing turns retention off;
// the endpoint still answers with an empty (non-null) list.
func TestDebugTracesDisabled(t *testing.T) {
	srv := New(Config{TraceRing: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", testPool(1)[0]))

	body := fetch(t, ts.URL+"/v1/debug/traces")
	var out struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 0 {
		t.Fatalf("retention disabled but got %d traces", len(out.Traces))
	}
	if !strings.Contains(body, `"traces":[]`) {
		t.Errorf("want empty list, not null: %s", body)
	}
}

// TestSolveResponseCarriesTimings: both the stateless and the session
// solve paths report per-stage durations on the wire.
func TestSolveResponseCarriesTimings(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	got := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", testPool(1)[0]))
	if got.Err != nil {
		t.Fatalf("solve failed: %+v", got.Err)
	}
	if got.Timings == nil {
		t.Fatal("solve response has no timings")
	}
	if got.Timings.SolveDPNs <= 0 {
		t.Errorf("exact solve reported no dp time: %+v", got.Timings)
	}
	if got.Timings.AssembleNs <= 0 {
		t.Errorf("no assemble time: %+v", got.Timings)
	}

	_, out := sessionDo(t, "POST", ts.URL+"/v1/session", sched.SessionCreateRequest{
		Objective: sched.WireGaps, Procs: 1,
		Jobs: []sched.Job{{Release: 0, Deadline: 2}, {Release: 10, Deadline: 12}},
	})
	if _, sresp := sessionSolve(t, ts.URL, out.Session); sresp.Timings == nil || sresp.Timings.SolveDPNs <= 0 {
		t.Fatalf("session solve timings missing or empty: %+v", sresp.Timings)
	}
}

// syncBuffer is a goroutine-safe log sink for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowSolveWarningAndRequestLog: with a nanosecond threshold every
// dispatch logs a "slow solve" warning carrying the trace id and the
// aggregated stage breakdown, and each HTTP request logs an info line
// with endpoint and status.
func TestSlowSolveWarningAndRequestLog(t *testing.T) {
	var buf syncBuffer
	srv := New(Config{
		SlowSolve: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if got := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", testPool(1)[0])); got.Err != nil {
		t.Fatalf("solve failed: %+v", got.Err)
	}
	// The slow-solve warning is emitted before the outcome is
	// delivered, so it is already visible here.
	out := buf.String()
	for _, want := range []string{`"slow solve"`, "traceId=", "stages=", "op=solve"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, obs.StagePrep+"=") || !strings.Contains(out, obs.StageSolve+"[") {
		t.Errorf("stage summary missing prep/solve stages:\n%s", out)
	}
	// The request line lands after the handler returns; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out = buf.String()
		if strings.Contains(out, "msg=request") && strings.Contains(out, "endpoint=solve") && strings.Contains(out, "status=200") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no request log line:\n%s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
