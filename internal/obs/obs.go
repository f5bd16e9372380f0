// Package obs is the observability layer of the analysis pipeline: a
// hierarchical phase tracer, a lock-free metrics registry, and profile
// capture hooks. Ruf's study is empirical — its results are tables of
// per-benchmark counts, times, and memory — so the pipeline that
// reproduces it must be able to attribute cost to its phases
// (lex → parse → sema → vdg → solve → checkers → report) rather than
// report only end-of-run totals.
//
// The package depends on the standard library alone, so every other
// package in the repository can import it without cycles.
//
// Two disciplines keep observability from disturbing what it measures:
//
//   - Everything is nil-safe. A nil *Tracer, *Span, *Registry, or
//     metric handle no-ops on every method, so instrumented code calls
//     them unconditionally and a run with tracing disabled stays on the
//     exact pre-instrumentation hot path (golden outputs are
//     byte-identical, and the only residual cost is a nil check at
//     phase — not per-iteration — granularity).
//
//   - Every metric declares a Stability class. Deterministic metrics
//     are pure functions of the analysis results — identical at any
//     worker-pool width for a batch that completes without budget
//     cancellation — and are the only
//     ones rendered into the machine-readable JSON block, which is
//     therefore byte-identical run to run. Wall-clock durations,
//     allocation deltas, and counters of the solver's visit order are
//     Volatile: they appear in the human-readable text tree and the
//     Chrome trace, never in the deterministic JSON.
package obs

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// Config configures a Tracer.
type Config struct {
	// MemStats samples runtime.MemStats at span boundaries and records
	// TotalAlloc/Mallocs deltas per span. ReadMemStats is too expensive
	// for inner loops but fine at phase granularity; the deltas are
	// process-wide, so under a parallel batch they attribute concurrent
	// allocation to whichever spans were open (volatile by nature).
	MemStats bool

	// Labels sets pprof goroutine labels ("phase", and "unit" when the
	// span carries a unit attribute) for the duration of each span, so
	// `go tool pprof -tagfocus`/-tagshow can slice a captured profile by
	// pipeline phase and corpus unit.
	Labels bool

	// now is the clock, injectable for tests; nil means time.Now.
	now func() time.Time
}

// Tracer collects span trees for one run. The zero value of *Tracer
// (nil) is a valid disabled tracer: every method no-ops and every
// derived span is nil.
type Tracer struct {
	cfg Config

	mu    sync.Mutex
	roots []*Span
}

// New builds an enabled tracer.
func New(cfg Config) *Tracer {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Tracer{cfg: cfg}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Attr is one ordered key/value annotation on a span. Values are
// strings so rendering is trivially deterministic.
type Attr struct {
	Key string
	Val string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Val: strconv.Itoa(v)} }

// Span is one timed phase of the pipeline. Spans form a tree; a span
// is built and ended on a single goroutine (required for the pprof
// label discipline), but distinct subtrees may be built concurrently
// by different workers and attached to a parent afterwards (Attach).
type Span struct {
	tracer *Tracer

	Name  string
	attrs []Attr

	start time.Time
	dur   time.Duration
	ended bool

	// MemStats deltas (Config.MemStats): bytes allocated and mallocs
	// performed process-wide while the span was open.
	allocBytes int64
	mallocs    int64

	children []*Span

	// labelCtx carries the pprof label set active during the span;
	// prevCtx is restored on End.
	labelCtx context.Context
	prevCtx  context.Context
}

// StartSpan opens a root span recorded in the tracer's trace.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := t.newSpan(nil, name, attrs)
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Detached opens a span that belongs to no tree yet. Batch workers
// build one detached span per work unit and the batch engine attaches
// them to the batch span in canonical input order — never completion
// order — so the rendered tree is deterministic at any pool width.
func (t *Tracer) Detached(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(nil, name, attrs)
}

func (t *Tracer) newSpan(parent *Span, name string, attrs []Attr) *Span {
	s := &Span{tracer: t, Name: name, attrs: attrs, start: t.cfg.now()}
	if t.cfg.MemStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.allocBytes = -int64(ms.TotalAlloc)
		s.mallocs = -int64(ms.Mallocs)
	}
	if t.cfg.Labels {
		base := context.Background()
		if parent != nil && parent.labelCtx != nil {
			base = parent.labelCtx
		}
		kv := []string{"phase", name}
		for _, a := range attrs {
			if a.Key == "unit" {
				kv = append(kv, "unit", a.Val)
			}
		}
		s.prevCtx = base
		s.labelCtx = pprof.WithLabels(base, pprof.Labels(kv...))
		pprof.SetGoroutineLabels(s.labelCtx)
	}
	return s
}

// Child opens a sub-span. A nil receiver returns a nil span.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := s.tracer.newSpan(s, name, attrs)
	s.tracer.mu.Lock()
	s.children = append(s.children, c)
	s.tracer.mu.Unlock()
	return c
}

// End closes the span: duration, MemStats deltas, and pprof label
// restoration. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = s.tracer.cfg.now().Sub(s.start)
	if s.tracer.cfg.MemStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.allocBytes += int64(ms.TotalAlloc)
		s.mallocs += int64(ms.Mallocs)
	}
	if s.tracer.cfg.Labels {
		pprof.SetGoroutineLabels(s.prevCtx)
	}
}

// SetAttr appends an annotation (typically result counters recorded
// after the phase ran).
func (s *Span) SetAttr(a Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, a)
}

// Attach adopts a detached span (and its subtree) as a child. The
// caller sequences Attach calls — the batch engine does so in input
// order after its merge barrier.
func (s *Span) Attach(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.tracer.mu.Lock()
	s.children = append(s.children, child)
	s.tracer.mu.Unlock()
}

// Dur returns the span's measured duration (0 until End).
func (s *Span) Dur() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Attrs returns the span's annotations in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Children returns the sub-spans in attach order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Roots returns the recorded root spans in start order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// LabelCtx exposes the pprof label context active during the span, for
// tests asserting the label set and for clients that propagate labels
// onto goroutines they spawn themselves.
func (s *Span) LabelCtx() context.Context {
	if s == nil || s.labelCtx == nil {
		return context.Background()
	}
	return s.labelCtx
}

// ---------------------------------------------------------------------------
// Worker identity

// workerKey tags a context with the worker-pool lane that executes an
// item, so per-unit spans can record which lane ran them (and the
// Chrome trace can draw one row per worker).
type workerKey struct{}

// WithWorker returns ctx tagged with a worker-pool lane id.
func WithWorker(ctx context.Context, id int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, workerKey{}, id)
}

// Worker extracts the worker lane id from a context tagged by
// WithWorker; ok is false on an untagged context.
func Worker(ctx context.Context) (int, bool) {
	if ctx == nil {
		return 0, false
	}
	id, ok := ctx.Value(workerKey{}).(int)
	return id, ok
}
