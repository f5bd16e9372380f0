// Package server is the analysis daemon behind cmd/aliaslabd: an
// HTTP/JSON service answering points-to, alias, mod/ref, and vet
// queries over submitted mini-C sources or embedded corpus programs,
// with per-request backend selection across the four-way frontier
// (cs, ci, andersen, steensgaard). /v1/query answers individual
// mayalias/pointsto questions demand-driven: only the slice of the
// program that can influence the queried expressions is solved, under
// the same budget, admission, and caching discipline as the
// whole-program endpoints.
//
// The design center is robustness under untrusted input and load, built
// from the governance layers the CLIs already use:
//
//   - Admission control. Every request runs under a limits.Budget
//     assembled from request headers clamped by server-side caps, and a
//     global concurrency semaphore (internal/sched) bounds in-flight
//     analyses. Over-capacity requests are rejected up front with 429
//     and Retry-After rather than queued into a collapse.
//
//   - Honest degradation. The core degradation ladder maps onto HTTP:
//     200 is the full answer, 206 a sound degraded answer carrying a
//     machine-readable report.Envelope, 503 a budget blown mid-flight
//     whose partial result would be unsound to serve.
//
//   - Isolation. Each request's pipeline runs inside limits.Guard: a
//     panic becomes that request's 500, never the process's crash.
//     SIGTERM drains — /readyz flips, in-flight requests finish.
//
//   - Caching. Completed full results enter a bounded LRU keyed by the
//     SHA-256 of the request's analysis identity, and a single-flight
//     group collapses concurrent identical requests into one solve.
//
// Fault injection (internal/faults) hooks the load/solve/render stages
// so the chaos suite can prove all of the above; it is nil and free in
// production.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"aliaslab/internal/corpus"
	"aliaslab/internal/faults"
	"aliaslab/internal/obs"
	"aliaslab/internal/sched"
)

// Config tunes a Server. The zero value is production-usable: every
// field has a safe default applied by New.
type Config struct {
	// MaxConcurrent bounds analyses in flight; excess requests get 429.
	// Default: 2×GOMAXPROCS.
	MaxConcurrent int

	// CacheEntries bounds the result LRU (default 256; negative
	// disables caching).
	CacheEntries int

	// MaxSourceBytes bounds the request body (default 1 MiB); larger
	// submissions get 413.
	MaxSourceBytes int64

	// MaxSteps / MaxPairs are the server-side ceilings on the per-request
	// budget headers, and the defaults when a request sends none.
	// MaxSteps defaults to 50M (the CLI default); MaxPairs to 0
	// (unlimited unless the request asks for less).
	MaxSteps int
	MaxPairs int

	// MaxTimeout caps the per-request wall-clock budget (default 30s);
	// DefaultTimeout applies when the request sends no timeout header
	// (default 10s).
	MaxTimeout     time.Duration
	DefaultTimeout time.Duration

	// Registry receives the server metrics (auto-created when nil).
	Registry *obs.Registry

	// Faults, when non-nil, arms the chaos probes in the request
	// pipeline. Nil in production: every probe is a single nil check.
	Faults *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DefaultTimeout <= 0 || c.DefaultTimeout > c.MaxTimeout {
		c.DefaultTimeout = min(10*time.Second, c.MaxTimeout)
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the daemon: an http.Handler plus the shared state behind
// it. Construct with New; the zero value is not usable.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sem     *sched.Semaphore
	cache   *lruCache
	flights *flightGroup
	reg     *obs.Registry
	faults  *faults.Injector

	draining atomic.Bool

	requests *obs.Counter
	panics   *obs.Counter
	degraded *obs.Counter
}

// New builds a Server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		sem:     sched.NewSemaphore(cfg.MaxConcurrent),
		cache:   newLRUCache(cfg.CacheEntries),
		flights: newFlightGroup(),
		reg:     cfg.Registry,
		faults:  cfg.Faults,
	}
	// Server metrics are Volatile by definition: they count wall-clock
	// traffic, not analysis facts.
	s.requests = s.reg.Counter("server.requests", obs.Volatile)
	s.panics = s.reg.Counter("server.panics", obs.Volatile)
	s.degraded = s.reg.Counter("server.degraded", obs.Volatile)

	s.mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		s.serve(w, r, modeAnalyze)
	})
	s.mux.HandleFunc("POST /v1/vet", func(w http.ResponseWriter, r *http.Request) {
		s.serve(w, r, modeVet)
	})
	s.mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		s.serve(w, r, modeQuery)
	})
	s.mux.HandleFunc("GET /v1/corpus", s.handleCorpus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP makes the Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// StartDrain flips the server into draining: /readyz starts answering
// 503 so load balancers stop sending traffic, and new analysis
// requests are turned away while in-flight ones complete. Called on
// SIGTERM by aliaslabd before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports the number of analyses currently holding admission
// slots (for tests and the drain loop).
func (s *Server) InFlight() int { return s.sem.InFlight() }

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting work, 503 once
// draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the registry as JSON. The traffic-dependent
// gauges (cache, dedup, admission, faults) are sampled here rather
// than written on every request, keeping the hot path to the counters
// it already pays for.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, evictions := s.cache.Stats()
	s.reg.Gauge("server.cache.hits", obs.Volatile).Set(hits)
	s.reg.Gauge("server.cache.misses", obs.Volatile).Set(misses)
	s.reg.Gauge("server.cache.evictions", obs.Volatile).Set(evictions)
	s.reg.Gauge("server.cache.entries", obs.Volatile).Set(int64(s.cache.Len()))
	s.reg.Gauge("server.flight.dedup", obs.Volatile).Set(s.flights.Dedups())
	s.reg.Gauge("server.admission.rejected", obs.Volatile).Set(int64(s.sem.Rejected()))
	s.reg.Gauge("server.inflight", obs.Volatile).Set(int64(s.sem.InFlight()))
	s.reg.Gauge("server.faults.injected", obs.Volatile).Set(int64(s.faults.Injected()))
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(obs.MetricsJSON(s.reg.Snapshot()))
}

// handleCorpus lists the embedded benchmark programs.
func (s *Server) handleCorpus(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out []entry
	for _, p := range corpus.All() {
		out = append(out, entry{Name: p.Name, Description: p.Description})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
