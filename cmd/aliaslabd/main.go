// Command aliaslabd serves the alias analyses over HTTP.
//
// Usage:
//
//	aliaslabd [-addr :7465] [flags]
//
// Endpoints:
//
//	POST /v1/analyze   {"source"|"corpus", "backend"}
//	POST /v1/vet       {"source"|"corpus", "backend", "checkers"}
//	POST /v1/query     {"source"|"corpus", "queries"}
//	GET  /v1/corpus    list the embedded benchmark programs
//	GET  /healthz      liveness
//	GET  /readyz       readiness (503 once draining)
//	GET  /metrics      server + analysis metrics as JSON
//
// Per-request budgets come from the X-Aliaslab-Max-Steps,
// X-Aliaslab-Max-Pairs, and X-Aliaslab-Timeout-Ms headers, clamped by
// the server-side -max-steps / -max-pairs / -max-timeout ceilings.
// Responses map the degradation ladder onto HTTP status codes: 200
// full answer, 206 sound degraded answer (machine-readable envelope in
// the body), 429 over capacity (with Retry-After), 500 isolated
// internal error, 503 budget blown mid-flight.
//
// SIGTERM or SIGINT drains: /readyz flips to 503, in-flight requests
// finish (up to -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aliaslab/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("aliaslabd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":7465", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 0, "analyses in flight before 429 (0 = 2×GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", 256, "result cache capacity (negative disables)")
	maxSource := fs.Int64("max-source-bytes", 1<<20, "request body size limit")
	maxSteps := fs.Int("max-steps", 50_000_000, "ceiling on the per-request step budget (0 = server default)")
	maxPairs := fs.Int("max-pairs", 0, "ceiling on the per-request pair budget (0 = unlimited)")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "ceiling on the per-request wall-clock budget")
	defaultTimeout := fs.Duration("default-timeout", 10*time.Second, "wall-clock budget when the request sends none")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "aliaslabd: unexpected arguments:", fs.Args())
		return 2
	}

	srv := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		CacheEntries:   *cacheEntries,
		MaxSourceBytes: *maxSource,
		MaxSteps:       *maxSteps,
		MaxPairs:       *maxPairs,
		MaxTimeout:     *maxTimeout,
		DefaultTimeout: *defaultTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "aliaslabd:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "aliaslabd: listening on %s\n", ln.Addr())

	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "aliaslabd:", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: stop admitting work, let in-flight analyses finish, then
	// close. Shutdown waits for active connections up to the grace
	// period; a second signal is not needed for a clean exit.
	fmt.Fprintln(stderr, "aliaslabd: draining")
	srv.StartDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "aliaslabd: shutdown:", err)
		return 1
	}
	fmt.Fprintln(stderr, "aliaslabd: drained, exiting")
	return 0
}
