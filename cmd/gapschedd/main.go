// Command gapschedd is the batched scheduling daemon: an HTTP/JSON
// front end to the exact solving pipeline with request coalescing
// (internal/service). Concurrent solve requests are buffered into
// short time/size windows and dispatched as one fragment-level batch
// over a persistent shared fragment cache, so independent clients with
// similar workloads hit cached canonical fragments instead of
// re-solving.
//
// Usage:
//
//	gapschedd -addr :8080 -window 2ms -max-batch 64 -cache 65536
//
// Endpoints:
//
//	POST   /v1/solve   {"objective":"gaps","procs":2,"jobs":[{"release":0,"deadline":3}]}
//	POST   /v1/batch   {"requests":[...]}
//	POST   /v1/session {"objective":"power","alpha":2,"jobs":[...]}   → {"session":"s1",...}
//	POST   /v1/session/{id}/delta   {"add":[...],"remove":[3]}
//	POST   /v1/session/{id}/solve   incremental resolve of the live instance
//	DELETE /v1/session/{id}
//	GET    /healthz
//	GET    /metrics
//	GET    /v1/debug/traces   recent solve traces, newest first
//	GET    /v1/debug/slo      trailing-window SLO report
//
// Sessions hold a live job set whose exact solution is maintained
// incrementally: a delta re-solves only the schedule fragments it
// touched. Idle sessions expire after -session-ttl.
//
// -pprof serves net/http/pprof on a separate (ideally loopback-only)
// listener, e.g. -pprof 127.0.0.1:6060; the solve listener never
// exposes /debug/pprof.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener
// stops, open coalescing windows are flushed so buffered clients still
// get answers, and in-flight solves complete. It then logs one "served"
// line at info level with the request, dispatch and cache totals.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/service"
)

// options is the parsed command line.
type options struct {
	addr      string
	pprofAddr string
	cfg       service.Config
	grace     time.Duration
	logLevel  string
	logFormat string
}

// parseArgs parses the command line with the shared CLI conventions
// (internal/cli): unknown flags and stray positional arguments are
// reported with the usage text and flag.ErrHelp is passed through. It
// never calls os.Exit; main maps the error to a status.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("gapschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (empty disables; keep it loopback-only)")
	fs.DurationVar(&o.cfg.Window, "window", 2*time.Millisecond, "coalescing window (0 disables coalescing)")
	fs.IntVar(&o.cfg.MaxBatch, "max-batch", service.DefaultMaxBatch, "dispatch a window early at this many requests")
	fs.IntVar(&o.cfg.CacheCapacity, "cache", service.DefaultCacheCapacity, "fragment cache capacity (negative disables)")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "solver workers per dispatch of several requests; a lone /v1/solve runs on one (0 = GOMAXPROCS)")
	fs.DurationVar(&o.cfg.SolveTimeout, "timeout", 30*time.Second, "per-dispatch solve deadline (0 = none)")
	fs.DurationVar(&o.cfg.SessionTTL, "session-ttl", service.DefaultSessionTTL, "idle incremental sessions expire after this (negative = never)")
	fs.IntVar(&o.cfg.MaxSessions, "max-sessions", service.DefaultMaxSessions, "bound on open incremental sessions (negative = unlimited)")
	fs.DurationVar(&o.grace, "grace", 10*time.Second, "graceful shutdown budget before the listener is torn down")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text or json")
	fs.DurationVar(&o.cfg.SlowSolve, "slow-solve", 0, "warn with the per-stage trace for solves at least this slow (0 disables)")
	fs.IntVar(&o.cfg.TraceRing, "trace-ring", 0, "solve traces retained for /v1/debug/traces (0 = default, negative disables)")
	fs.DurationVar(&o.cfg.SLOLatencyP99, "slo-p99", service.DefaultSLOLatencyP99, "sliding-p99 latency objective per endpoint (negative disables)")
	fs.Float64Var(&o.cfg.SLOErrorRate, "slo-error-rate", service.DefaultSLOErrorRate, "windowed 5xx error-rate objective (negative disables)")
	fs.DurationVar(&o.cfg.SLOWindow, "slo-window", service.DefaultSLOWindow, "trailing window SLO verdicts cover")
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	return o, nil
}

// buildLogger constructs the daemon's structured logger from the
// -log-level and -log-format flags.
func buildLogger(level, format string, w io.Writer) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(cli.Status(err))
	}
	logger, err := buildLogger(o.logLevel, o.logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapschedd: %v\n", err)
		os.Exit(2)
	}
	o.cfg.Logger = logger
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	}
	var pprofLn net.Listener
	if o.pprofAddr != "" {
		if pprofLn, err = net.Listen("tcp", o.pprofAddr); err != nil {
			logger.Error("pprof listen failed", "err", err)
			os.Exit(1)
		}
	}
	if err := serve(ctx, ln, pprofLn, o, logger); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// pprofHandler is the profiling mux served on the -pprof listener. The
// handlers are mounted on a dedicated mux (not http.DefaultServeMux)
// so the solve endpoints never gain /debug/pprof/* routes: profiling
// stays on its own, typically loopback-only, address.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Connection timeouts of both listeners. readHeaderTimeout bounds how
// long a client may take to send its request headers, so a connection
// that never finishes them is closed instead of held forever;
// idleTimeout closes keep-alive connections left idle between
// requests. No WriteTimeout is set: it would cut off responses to
// long exact solves, which -timeout bounds instead.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in an http.Server with the daemon's connection
// timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve runs the daemon on ln until ctx is canceled, then shuts down
// gracefully: the listener drains within the grace budget and the
// service flushes its open coalescing windows. A non-nil pprofLn gets
// the profiling mux; it is torn down with the daemon (profiling
// requests are diagnostics, not client traffic, so no grace is owed).
func serve(ctx context.Context, ln, pprofLn net.Listener, o options, logger *slog.Logger) error {
	srv := service.New(o.cfg)
	httpSrv := newHTTPServer(srv)
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"window", o.cfg.Window,
		"maxBatch", o.cfg.MaxBatch,
		"cache", o.cfg.CacheCapacity)
	if pprofLn != nil {
		pprofSrv := newHTTPServer(pprofHandler())
		logger.Info("pprof listening", "addr", pprofLn.Addr().String())
		go func() {
			if err := pprofSrv.Serve(pprofLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
		defer pprofSrv.Close()
	}

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	// Flush the coalescing windows concurrently with the listener
	// drain: buffered handlers are blocked on their window's dispatch,
	// so the flush is what lets their connections go idle inside the
	// grace budget — flushing only after Shutdown returned would burn
	// the whole budget first and reset the very clients the flush is
	// meant to answer.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("listener shutdown incomplete", "err", err)
	}
	<-closed
	st := srv.Stats()
	logger.Info("served",
		"solveRequests", st.SolveRequests,
		"batchRequests", st.BatchRequests,
		"dispatches", st.Dispatches,
		"coalesced", st.Coalesced,
		"cacheHits", st.Cache.Hits,
		"cacheMisses", st.Cache.Misses)
	return <-errc
}
