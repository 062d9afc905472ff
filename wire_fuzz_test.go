package gapsched_test

// FuzzWireDecode lives in the external test package, like
// bench_slo_test.go, because it serves what it decodes through
// internal/service, which imports the root package.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	gapsched "repro"
	"repro/internal/sched"
	"repro/internal/service"
)

// fuzzWireMaxJobs bounds the solve requests FuzzWireDecode also
// serves, so every exact solve stays fast enough to fuzz.
const fuzzWireMaxJobs = 12

// FuzzWireDecode hardens the daemon's wire decoders against arbitrary
// request bodies: no sched.Decode* function may panic on any byte
// string, and every request a decoder accepts must survive a round
// trip — re-encoded and decoded again, it yields the same value (up to
// nil versus empty for omitempty lists, which JSON cannot tell apart).
// An accepted solve request of at most fuzzWireMaxJobs jobs is also
// served by the daemon's /v1/solve handler, which maps its
// configuration onto a Solver as for any client (checkServed). The
// last five seeds break the time-range rule or the alpha bound: an
// int-wide and a ±2⁶² window, which the daemon once answered with 500
// internal, windows ending at MaxInt and starting at MinInt, which
// broke the engine when prep was off, and alpha 1e308, once answered
// with 422 infeasible.
func FuzzWireDecode(f *testing.F) {
	srv := service.New(service.Config{})
	f.Cleanup(srv.Close)
	for _, seed := range []string{
		`{"jobs":[{"release":0,"deadline":2},{"release":1,"deadline":1}]}`,
		`{"objective":"power","alpha":2.5,"procs":2,"mode":"auto","stateBudget":-1,"jobs":[]}`,
		`{"requests":[{"jobs":[{"release":3,"deadline":4}]},{"objective":"nope","jobs":null}]}`,
		`{"mode":"heuristic","online":true,"jobs":[{"release":0,"deadline":0}]}`,
		`{"add":[{"release":5,"deadline":9}],"remove":[0,2]}`,
		`{"session":"s1","jobIds":[0,1],"jobs":2}`,
		`{"spans":1,"schedule":{"procs":1,"slots":[{"proc":0,"time":0}]},"timings":{"prepNs":5}}`,
		`{"responses":[{"error":{"code":"infeasible","message":"no"}}]}`,
		`{"jobs":[]} {}`,
		`{"jobs":[{"release":1e400}]}`,
		`{"jobs":[]} x`,
		`{"jobs":[{"release":-9223372036854775808,"deadline":9223372036854775807},{"release":0,"deadline":0}]}`,
		`{"jobs":[{"release":-4611686018427387904,"deadline":4611686018427387904},{"release":0,"deadline":0}]}`,
		`{"mode":"auto","jobs":[{"release":9223372036854775804,"deadline":9223372036854775806},{"release":9223372036854775805,"deadline":9223372036854775807}]}`,
		`{"jobs":[{"release":-9223372036854775808,"deadline":-9223372036854775806},{"release":-9223372036854775807,"deadline":-9223372036854775805}]}`,
		`{"objective":"power","alpha":1e308,"procs":2,"jobs":[{"release":0,"deadline":0},{"release":0,"deadline":0}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func() io.Reader { return bytes.NewReader(data) }
		// Responses are decoded only by clients; they need only not panic.
		_, _ = sched.DecodeSolveResponse(decode())
		_, _ = sched.DecodeBatchResponse(decode())
		_, _ = sched.DecodeSessionResponse(decode())
		if req, err := sched.DecodeSolveRequest(decode()); err == nil {
			checkWireRoundTrip(t, req, sched.DecodeSolveRequest)
			if len(req.Jobs) <= fuzzWireMaxJobs {
				checkServed(t, srv, data, req.Instance())
			}
		}
		if req, err := sched.DecodeBatchRequest(decode()); err == nil {
			checkWireRoundTrip(t, req, sched.DecodeBatchRequest)
		}
		if req, err := sched.DecodeSessionCreateRequest(decode()); err == nil {
			if len(req.Jobs) == 0 {
				req.Jobs = nil
			}
			checkWireRoundTrip(t, req, sched.DecodeSessionCreateRequest)
		}
		if req, err := sched.DecodeSessionDeltaRequest(decode()); err == nil {
			if len(req.Add) == 0 {
				req.Add = nil
			}
			if len(req.Remove) == 0 {
				req.Remove = nil
			}
			checkWireRoundTrip(t, req, sched.DecodeSessionDeltaRequest)
		}
	})
}

// checkWireRoundTrip encodes an accepted request and decodes it with
// the decoder that accepted it, failing unless the decoder accepts the
// encoding and returns a value equal to req.
func checkWireRoundTrip[T any](t *testing.T, req T, decode func(io.Reader) (T, error)) {
	t.Helper()
	enc, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("re-encoding accepted %T: %v", req, err)
	}
	got, err := decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decoder rejected its own re-encoding %s: %v", enc, err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip changed %T:\n got %#v\nwant %#v", req, got, req)
	}
}

// checkServed posts body, a solve request the decoder accepted for
// instance in, to the daemon's /v1/solve handler. The answer must be a
// schedule that validates against in, or infeasibility of an instance
// gapsched.Feasible rejects; any other status — a 500 above all — is a
// fault the daemon would report to a client.
func checkServed(t *testing.T, srv http.Handler, body []byte, in sched.Instance) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	resp, err := sched.DecodeSolveResponse(rec.Body)
	if err != nil {
		t.Fatalf("status %d with an undecodable answer to %s: %v", rec.Code, body, err)
	}
	switch rec.Code {
	case http.StatusOK:
		if err := resp.Schedule.Validate(in); err != nil {
			t.Fatalf("invalid schedule for %s: %v", body, err)
		}
	case http.StatusUnprocessableEntity:
		if gapsched.Feasible(in) {
			t.Fatalf("infeasible answer for the feasible %s: %v", body, resp.Err)
		}
	default:
		t.Fatalf("status %d for the accepted %s: %v", rec.Code, body, resp.Err)
	}
}
