package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// Flag handling follows the repository CLI convention: unknown flags,
// stray positional arguments, and bad values fail with the usage text;
// -h asks for help.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		help    bool
	}{
		{name: "defaults", args: nil},
		{name: "tuned", args: []string{"-addr", "127.0.0.1:0", "-window", "5ms", "-max-batch", "8"}},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: true},
		{name: "positional argument", args: []string{"extra"}, wantErr: true},
		{name: "bad duration", args: []string{"-window", "fast"}, wantErr: true},
		{name: "help", args: []string{"-h"}, wantErr: true, help: true},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		o, err := parseArgs(c.args, &stderr)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
			continue
		}
		if c.help != errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s: ErrHelp mismatch: %v", c.name, err)
		}
		if err != nil && !c.help && !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "-addr") {
			t.Errorf("%s: no usage text on stderr:\n%s", c.name, stderr.String())
		}
		if err == nil && o.addr == "" {
			t.Errorf("%s: empty addr", c.name)
		}
	}
}

// Startup/shutdown smoke test: the daemon answers /healthz and a solve
// request, then exits cleanly when its context is canceled.
func TestServeSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs([]string{"-window", "1ms", "-grace", "2s"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, nil, o, slog.New(slog.DiscardHandler)) }()

	base := "http://" + ln.Addr().String()
	awaitHealthy(t, base)

	body := `{"objective":"power","alpha":2,"jobs":[{"release":0,"deadline":2},{"release":6,"deadline":8}]}`
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// awaitHealthy polls /healthz until the daemon answers.
func awaitHealthy(t *testing.T, base string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Profiling smoke test: with -pprof the debug endpoints serve on their
// own listener only — the solve listener stays clean — and without it
// no pprof surface exists anywhere.
func TestServePprof(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs([]string{"-window", "1ms", "-grace", "2s", "-pprof", "127.0.0.1:0"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, pprofLn, o, slog.New(slog.DiscardHandler)) }()

	base := "http://" + ln.Addr().String()
	awaitHealthy(t, base)

	resp, err := http.Get("http://" + pprofLn.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof listener: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d, want 200", resp.StatusCode)
	}

	// The solve listener must not have grown the debug routes.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve listener serves /debug/pprof/ with status %d, want 404", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// Disabled: the pprof listener is closed with the daemon, so the
	// endpoint is gone.
	if _, err := http.Get("http://" + pprofLn.Addr().String() + "/debug/pprof/"); err == nil {
		t.Fatal("pprof endpoint still serving after shutdown")
	}
}

// TestHTTPServerTimeouts pins the connection timeouts both listeners
// get: headers and idle keep-alives are bounded, so a client that never
// finishes its headers cannot hold a connection forever, while reads of
// the body and writes of the response are not, so long solves still
// answer.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; want both unset", srv.WriteTimeout, srv.ReadTimeout)
	}
	if srv.Handler == nil {
		t.Error("server has no handler")
	}
}
