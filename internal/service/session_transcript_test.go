package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSessionRepliesTranscript pins the session endpoints' replies byte
// for byte: one server walks every session error path in order, with
// the successful replies around them, and each step's status and body
// must match exactly. A rejected online create must leave no session
// open or counted as created.
func TestSessionRepliesTranscript(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	steps := []struct {
		name, method, path, body string
		status                   int
		reply                    string
	}{
		{"online create out of order", "POST", "/v1/session",
			`{"online":true,"jobs":[{"release":8,"deadline":9},{"release":2,"deadline":9}]}`,
			400, `{"error":{"code":"bad_request","message":"online: arrival out of release order: job 1 [2,9] arrives after time 8"}}`},
		{"online create", "POST", "/v1/session",
			`{"online":true,"jobs":[{"release":4,"deadline":6}]}`,
			200, `{"session":"s1","jobIds":[0],"jobs":1}`},
		{"online removal", "POST", "/v1/session/s1/delta", `{"remove":[0]}`,
			400, `{"error":{"code":"bad_request","message":"gapsched: online session is commit-only"}}`},
		{"online removal with arrival", "POST", "/v1/session/s1/delta",
			`{"add":[{"release":9,"deadline":9}],"remove":[0]}`,
			400, `{"error":{"code":"bad_request","message":"gapsched: online session is commit-only"}}`},
		{"online delta out of order", "POST", "/v1/session/s1/delta",
			`{"add":[{"release":10,"deadline":12},{"release":1,"deadline":12}]}`,
			400, `{"error":{"code":"bad_request","message":"online: arrival out of release order: job 1 [1,12] arrives after time 10"}}`},
		{"online arrival before the watermark", "POST", "/v1/session/s1/delta",
			`{"add":[{"release":3,"deadline":12}]}`,
			400, `{"error":{"code":"bad_request","message":"online: arrival out of release order: job 0 [3,12] arrives after time 4"}}`},
		{"online arrival at the watermark", "POST", "/v1/session/s1/delta",
			`{"add":[{"release":4,"deadline":7},{"release":6,"deadline":9}]}`,
			200, `{"session":"s1","jobIds":[1,2],"jobs":3}`},
		{"offline create", "POST", "/v1/session",
			`{"jobs":[{"release":0,"deadline":3},{"release":5,"deadline":9}]}`,
			200, `{"session":"s2","jobIds":[0,1],"jobs":2}`},
		{"unknown removal id", "POST", "/v1/session/s2/delta",
			`{"add":[{"release":50,"deadline":51}],"remove":[0,99]}`,
			404, `{"error":{"code":"not_found","message":"session s2 has no job 99"}}`},
		{"repeated removal id", "POST", "/v1/session/s2/delta", `{"remove":[0,0]}`,
			400, `{"error":{"code":"bad_request","message":"sched: job 0 removed twice in one delta"}}`},
		{"empty window", "POST", "/v1/session/s2/delta", `{"add":[{"release":5,"deadline":4}]}`,
			400, `{"error":{"code":"bad_request","message":"sched: added job 0 has empty window [5,4]"}}`},
		{"empty delta", "POST", "/v1/session/s2/delta", `{}`,
			400, `{"error":{"code":"bad_request","message":"sched: session delta carries no operations"}}`},
		{"removal only", "POST", "/v1/session/s2/delta", `{"remove":[1]}`,
			200, `{"session":"s2","jobs":1}`},
		{"mixed delta", "POST", "/v1/session/s2/delta",
			`{"add":[{"release":20,"deadline":22}],"remove":[0]}`,
			200, `{"session":"s2","jobIds":[2],"jobs":1}`},
		{"removed id again", "POST", "/v1/session/s2/delta", `{"remove":[0]}`,
			404, `{"error":{"code":"not_found","message":"session s2 has no job 0"}}`},
		{"unknown session delta", "POST", "/v1/session/s9/delta", `{"add":[{"release":0,"deadline":1}]}`,
			404, `{"error":{"code":"not_found","message":"no session \"s9\" (deleted or expired)"}}`},
		{"unknown session solve", "POST", "/v1/session/s9/solve", ``,
			404, `{"error":{"code":"not_found","message":"no session \"s9\" (deleted or expired)"}}`},
		{"unknown session delete", "DELETE", "/v1/session/s9", ``,
			404, `{"error":{"code":"not_found","message":"no session \"s9\" (deleted or expired)"}}`},
		{"delete", "DELETE", "/v1/session/s2", ``,
			200, `{"session":"s2"}`},
		{"delta after delete", "POST", "/v1/session/s2/delta", `{"remove":[2]}`,
			404, `{"error":{"code":"not_found","message":"no session \"s2\" (deleted or expired)"}}`},
	}
	for i, st := range steps {
		req, err := http.NewRequest(st.method, ts.URL+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != st.status || string(body) != st.reply+"\n" {
			t.Errorf("%s: got %d %s, want %d %s", st.name, resp.StatusCode, body, st.status, st.reply)
		}
		if i == 0 {
			if s := srv.Stats(); s.SessionsOpen != 0 || s.SessionsCreated != 0 {
				t.Fatalf("rejected online create left %d sessions open, %d created", s.SessionsOpen, s.SessionsCreated)
			}
		}
	}
	if s := srv.Stats(); s.SessionsCreated != 2 || s.SessionsOpen != 1 || s.SessionDeltas != 3 {
		t.Fatalf("after the transcript: %d created, %d open, %d deltas; want 2, 1, 3",
			s.SessionsCreated, s.SessionsOpen, s.SessionDeltas)
	}
}
