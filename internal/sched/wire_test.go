package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func randWireRequest(rng *rand.Rand) SolveRequest {
	req := SolveRequest{
		Objective: [...]string{"", WireGaps, WirePower}[rng.Intn(3)],
		Mode:      [...]string{"", WireModeExact, WireModeHeuristic, WireModeAuto}[rng.Intn(4)],
		Procs:     rng.Intn(4), // 0 exercises the default
	}
	if req.Objective == WirePower {
		req.Alpha = float64(rng.Intn(12)) / 2
	}
	if req.Mode == WireModeAuto {
		req.StateBudget = rng.Intn(3) - 1 // negative, zero and positive budgets
	}
	n := rng.Intn(8)
	for i := 0; i < n; i++ {
		r := rng.Intn(30)
		req.Jobs = append(req.Jobs, Job{Release: r, Deadline: r + rng.Intn(6)})
	}
	return req
}

func randWireResponse(rng *rand.Rand) SolveResponse {
	switch rng.Intn(4) {
	case 0: // infeasible payload
		return SolveResponse{Err: &WireError{Code: ErrCodeInfeasible, Message: "no feasible schedule"}}
	case 1: // config-error payload
		return SolveResponse{Err: &WireError{Code: ErrCodeBadRequest, Message: "negative alpha -1"}}
	}
	n := rng.Intn(6)
	s := &Schedule{Procs: 1 + rng.Intn(3)}
	for i := 0; i < n; i++ {
		s.Slots = append(s.Slots, Assignment{Proc: rng.Intn(s.Procs), Time: rng.Intn(40)})
	}
	resp := SolveResponse{
		Spans:        rng.Intn(5),
		Schedule:     s,
		States:       rng.Intn(1000),
		Subinstances: rng.Intn(4),
		CacheHits:    rng.Intn(4),
	}
	resp.Gaps = max(resp.Spans-1, 0)
	if rng.Intn(2) == 1 {
		resp.Power = float64(rng.Intn(40)) / 4
	}
	if rng.Intn(2) == 1 {
		resp.Mode = [...]string{WireModeExact, WireModeHeuristic, WireModeAuto}[rng.Intn(3)]
		resp.LowerBound = float64(rng.Intn(resp.Spans + 1))
		resp.HeuristicFragments = rng.Intn(resp.Subinstances + 1)
	}
	return resp
}

// Round-trip property: encode → strict decode is the identity on every
// wire type, for requests of all shapes and for success, infeasible,
// and config-error response payloads.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		req := randWireRequest(rng)
		if err := req.Validate(); err != nil {
			t.Fatalf("generated request invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(req); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSolveRequest(&buf)
		if err != nil {
			t.Fatalf("trial %d: decode request: %v", trial, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("trial %d: request round trip:\n got %+v\nwant %+v", trial, got, req)
		}

		resp := randWireResponse(rng)
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		gotResp, err := DecodeSolveResponse(&buf)
		if err != nil {
			t.Fatalf("trial %d: decode response: %v", trial, err)
		}
		if !reflect.DeepEqual(gotResp, resp) {
			t.Fatalf("trial %d: response round trip:\n got %+v\nwant %+v", trial, gotResp, resp)
		}
	}
}

// Round-trip property at batch granularity: element order and payload
// variety (success / infeasible / config error) survive the envelope.
func TestWireBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var breq BatchRequest
		var bresp BatchResponse
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			breq.Requests = append(breq.Requests, randWireRequest(rng))
			bresp.Responses = append(bresp.Responses, randWireResponse(rng))
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(breq); err != nil {
			t.Fatal(err)
		}
		gotReq, err := DecodeBatchRequest(&buf)
		if err != nil {
			t.Fatalf("trial %d: decode batch request: %v", trial, err)
		}
		if !reflect.DeepEqual(gotReq, breq) {
			t.Fatalf("trial %d: batch request round trip:\n got %+v\nwant %+v", trial, gotReq, breq)
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(bresp); err != nil {
			t.Fatal(err)
		}
		gotResp, err := DecodeBatchResponse(&buf)
		if err != nil {
			t.Fatalf("trial %d: decode batch response: %v", trial, err)
		}
		if !reflect.DeepEqual(gotResp, bresp) {
			t.Fatalf("trial %d: batch response round trip:\n got %+v\nwant %+v", trial, gotResp, bresp)
		}
	}
}

func TestWireRequestRejects(t *testing.T) {
	cases := map[string]string{
		"unknown objective": `{"objective":"speed","jobs":[]}`,
		"unknown mode":      `{"mode":"sloppy","jobs":[]}`,
		"negative alpha":    `{"alpha":-2,"jobs":[]}`,
		"overflowing alpha": `{"alpha":1e400,"jobs":[]}`,
		"negative procs":    `{"procs":-1,"jobs":[]}`,
		"empty window":      `{"jobs":[{"release":3,"deadline":1}]}`,
		"unknown field":     `{"jobs":[],"priority":9}`,
		"trailing garbage":  `{"jobs":[]} {"jobs":[]}`,
		"not an object":     `[1,2,3]`,
	}
	for name, body := range cases {
		if _, err := DecodeSolveRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

// TestValidAlpha: the one transition-cost rule admits exactly the
// alphas in [0, MaxAlpha], and both request validators apply it. JSON
// cannot spell NaN or ±Inf, so only a request built in Go can carry
// one to Validate.
func TestValidAlpha(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 3.7, MaxAlpha} {
		if !ValidAlpha(alpha) {
			t.Errorf("ValidAlpha(%v) = false", alpha)
		}
		if err := (SolveRequest{Alpha: alpha}).Validate(); err != nil {
			t.Errorf("SolveRequest alpha %v: %v", alpha, err)
		}
	}
	for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64,
		math.Nextafter(MaxAlpha, math.Inf(1)), math.MaxFloat64} {
		if ValidAlpha(alpha) {
			t.Errorf("ValidAlpha(%v) = true", alpha)
		}
		if err := (SolveRequest{Alpha: alpha}).Validate(); err == nil {
			t.Errorf("SolveRequest.Validate accepted alpha %v", alpha)
		}
		if err := (SessionCreateRequest{Alpha: alpha}).Validate(); err == nil {
			t.Errorf("SessionCreateRequest.Validate accepted alpha %v", alpha)
		}
	}
}

func TestWireResponseRejects(t *testing.T) {
	cases := map[string]string{
		"schedule and error": `{"schedule":{"procs":1,"slots":[]},"error":{"code":"infeasible","message":"x"}}`,
		"error without code": `{"error":{"code":"","message":"x"}}`,
		"unknown field":      `{"spans":1,"bogus":true}`,
		"empty response":     `{}`,
		"neither on success": `{"spans":2,"gaps":1}`,
	}
	for name, body := range cases {
		if _, err := DecodeSolveResponse(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
	if _, err := DecodeBatchResponse(strings.NewReader(`{"responses":[{"error":{"code":"","message":"x"}}]}`)); err == nil {
		t.Error("batch response with codeless error accepted")
	}
}

// Session wire round trips: create and delta requests and the shared
// session-management response survive encode → strict decode for all
// payload shapes.
func TestWireSessionRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		sreq := randWireRequest(rng)
		creq := SessionCreateRequest{Objective: sreq.Objective, Alpha: sreq.Alpha, Procs: sreq.Procs,
			Mode: sreq.Mode, StateBudget: sreq.StateBudget, Jobs: sreq.Jobs}
		if err := creq.Validate(); err != nil {
			t.Fatalf("generated create request invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(creq); err != nil {
			t.Fatal(err)
		}
		gotC, err := DecodeSessionCreateRequest(&buf)
		if err != nil {
			t.Fatalf("trial %d: decode create: %v", trial, err)
		}
		if !reflect.DeepEqual(gotC, creq) {
			t.Fatalf("trial %d: create round trip:\n got %+v\nwant %+v", trial, gotC, creq)
		}

		dreq := SessionDeltaRequest{}
		for i := rng.Intn(4); i >= 0; i-- {
			r := rng.Intn(30)
			dreq.Add = append(dreq.Add, Job{Release: r, Deadline: r + rng.Intn(6)})
		}
		for _, id := range rng.Perm(20)[:rng.Intn(3)] {
			dreq.Remove = append(dreq.Remove, id)
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(dreq); err != nil {
			t.Fatal(err)
		}
		gotD, err := DecodeSessionDeltaRequest(&buf)
		if err != nil {
			t.Fatalf("trial %d: decode delta: %v", trial, err)
		}
		if !reflect.DeepEqual(gotD, dreq) {
			t.Fatalf("trial %d: delta round trip:\n got %+v\nwant %+v", trial, gotD, dreq)
		}

		resp := SessionResponse{Session: "s1", Jobs: rng.Intn(9)}
		for i := rng.Intn(4); i > 0; i-- {
			resp.JobIDs = append(resp.JobIDs, rng.Intn(20))
		}
		if rng.Intn(3) == 0 {
			resp = SessionResponse{Err: &WireError{Code: ErrCodeNotFound, Message: "no session s9"}}
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		gotR, err := DecodeSessionResponse(&buf)
		if err != nil {
			t.Fatalf("trial %d: decode session response: %v", trial, err)
		}
		if !reflect.DeepEqual(gotR, resp) {
			t.Fatalf("trial %d: session response round trip:\n got %+v\nwant %+v", trial, gotR, resp)
		}
	}
}

func TestWireSessionRejects(t *testing.T) {
	creates := map[string]string{
		"unknown objective": `{"objective":"speed"}`,
		"unknown mode":      `{"mode":"sloppy"}`,
		"negative alpha":    `{"alpha":-2}`,
		"negative procs":    `{"procs":-1}`,
		"empty window":      `{"jobs":[{"release":3,"deadline":1}]}`,
		"unknown field":     `{"ttl":30}`,
		"trailing garbage":  `{} {}`,
	}
	for name, body := range creates {
		if _, err := DecodeSessionCreateRequest(strings.NewReader(body)); err == nil {
			t.Errorf("create %s: accepted %s", name, body)
		}
	}
	deltas := map[string]string{
		"no operations":    `{}`,
		"empty window":     `{"add":[{"release":3,"deadline":1}]}`,
		"unknown field":    `{"add":[],"drop":[1]}`,
		"trailing garbage": `{"remove":[1]} {}`,
	}
	for name, body := range deltas {
		if _, err := DecodeSessionDeltaRequest(strings.NewReader(body)); err == nil {
			t.Errorf("delta %s: accepted %s", name, body)
		}
	}
	responses := map[string]string{
		"state and error":    `{"session":"s1","error":{"code":"not_found","message":"x"}}`,
		"error without code": `{"error":{"code":"","message":"x"}}`,
		"neither":            `{}`,
		"ids without id":     `{"jobIds":[1,2]}`,
	}
	for name, body := range responses {
		if _, err := DecodeSessionResponse(strings.NewReader(body)); err == nil {
			t.Errorf("response %s: accepted %s", name, body)
		}
	}
}

// The batch envelope error is itself part of the wire contract: it
// round-trips, and mixing it with element responses is rejected.
func TestWireBatchEnvelopeError(t *testing.T) {
	envelope := BatchResponse{Err: &WireError{Code: ErrCodeBadRequest, Message: "decoding batch request: bad JSON"}}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(envelope); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchResponse(&buf)
	if err != nil {
		t.Fatalf("envelope error round trip: %v", err)
	}
	if !reflect.DeepEqual(got, envelope) {
		t.Fatalf("envelope error mangled: %+v", got)
	}
	rejects := map[string]string{
		"elements and envelope error": `{"responses":[{"spans":1,"schedule":{"procs":1,"slots":[]}}],"error":{"code":"bad_request","message":"x"}}`,
		"codeless envelope error":     `{"error":{"code":"","message":"x"}}`,
	}
	for name, body := range rejects {
		if _, err := DecodeBatchResponse(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

// TestWireTrailingData: whatever follows a complete request — another
// value, a malformed one or the start of one — is reported as trailing
// data, while a read failure behind the value keeps its own error.
func TestWireTrailingData(t *testing.T) {
	for _, body := range []string{`{"jobs":[]} x`, `{"jobs":[]} {`, `{"jobs":[]} {}`, `{"jobs":[]} 1`} {
		_, err := DecodeSolveRequest(strings.NewReader(body))
		if err == nil || !strings.Contains(err.Error(), "trailing data after JSON value") {
			t.Errorf("%s: got %v, want trailing data", body, err)
		}
	}
	if _, err := DecodeSolveRequest(strings.NewReader(`{"jobs":[]}` + "\n")); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
	// The value fits the limit; the padding behind it does not.
	body := `{"jobs":[]}` + strings.Repeat(" ", 64)
	limited := http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 32)
	_, err := DecodeSolveRequest(limited)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) || strings.Contains(err.Error(), "trailing data") {
		t.Errorf("body past the limit: got %v, want http.MaxBytesError", err)
	}
}
