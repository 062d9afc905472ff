package service

// Pins the /metrics exposition as a whole: every family, every label
// set and their order, against a golden kept in testdata. Sample
// values that depend on timing or the runtime are masked; the counters
// a fixed traffic script determines are kept, so the golden also pins
// how each request is counted.

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// pinnedFamilies are the counters whose values the traffic of
// TestMetricsExpositionSkeleton fixes (the request-duration counts
// included: one observation per request); every other sample is
// masked.
var pinnedFamilies = map[string]bool{
	"gapschedd_requests_total":                 true,
	"gapschedd_errors_total":                   true,
	"gapschedd_mode_solves_total":              true,
	"gapschedd_session_events_total":           true,
	"gapschedd_request_duration_seconds_count": true,
}

// buildLabels matches the build-info labels, which name the toolchain
// and checkout that built the test binary.
var buildLabels = regexp.MustCompile(`(goversion|revision)="[^"]*"`)

// metricsSkeleton masks a /metrics body: HELP and TYPE lines stay
// verbatim, samples keep their name and labels, and only the samples of
// pinnedFamilies keep their value.
func metricsSkeleton(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			b.WriteString(line + "\n")
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series, value := line[:i], line[i+1:]
		if !pinnedFamilies[strings.SplitN(series, "{", 2)[0]] {
			value = "_"
		}
		b.WriteString(buildLabels.ReplaceAllString(series, `$1="_"`) + " " + value + "\n")
	}
	return b.String()
}

// TestMetricsExpositionSkeleton drives a fixed request mix — one of
// each instrumented endpoint, a malformed solve and a delta to an
// unknown session — and compares the masked /metrics body with the
// golden. Stats must report the same mode and error counts as the
// exposition.
func TestMetricsExpositionSkeleton(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	driveTraffic(t, ts.URL)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"jobs":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed solve: status %d, want 400", resp.StatusCode)
	}
	if code, _ := sessionDo(t, "POST", ts.URL+"/v1/session/nope/delta", sched.SessionDeltaRequest{
		Add: []sched.Job{{Release: 0, Deadline: 2}},
	}); code != http.StatusNotFound {
		t.Fatalf("delta to an unknown session: status %d, want 404", code)
	}

	body := fetch(t, ts.URL+"/metrics")
	got := metricsSkeleton(body)
	golden := filepath.Join("testdata", "metrics_skeleton.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("/metrics skeleton differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("/metrics skeleton has %d lines, %s has %d", len(g), golden, len(w))
	}

	samples := parseExposition(t, body).samples
	st := srv.Stats()
	for _, c := range []struct {
		family, label string
		stats         map[string]int64
	}{
		{"gapschedd_mode_solves_total", "mode", st.ModeSolves},
		{"gapschedd_errors_total", "code", st.Errors},
	} {
		exposed := 0
		for key, v := range samples {
			name, labels, _ := strings.Cut(key, "|")
			if name != c.family {
				continue
			}
			exposed++
			var k string
			if _, err := fmt.Sscanf(labels, c.label+"=%q", &k); err != nil {
				t.Fatalf("%s: unparsable labels %q: %v", c.family, labels, err)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got, ok := c.stats[k]; !ok || got != n {
				t.Errorf("Stats %s[%q] = %d (present %v), /metrics says %d", c.label, k, got, ok, n)
			}
		}
		if exposed != len(c.stats) {
			t.Errorf("%s: %d samples on /metrics, %d Stats entries", c.family, exposed, len(c.stats))
		}
	}
}
