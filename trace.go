package aliaslab

import (
	"io"
	"strings"

	"aliaslab/internal/driver"
	"aliaslab/internal/obs"
)

// Trace records the pipeline's phases — lex, parse, sema, VDG build,
// the solver attempts, checkers — as a tree of timed spans with
// allocation deltas. It is the public face of the internal
// observability layer: create one with NewTrace, thread it through
// ParseProgramTraced, then render with Text or WriteChromeTrace.
//
// A nil *Trace is valid everywhere one is accepted and records
// nothing; the untraced pipeline runs exactly the code it ran before
// tracing existed.
type Trace struct {
	tr *obs.Tracer
}

// NewTrace creates an empty trace. Spans it records carry wall time,
// allocation deltas (runtime.MemStats sampled at span boundaries), and
// pprof goroutine labels, so a CPU profile captured around a traced
// run attributes samples to pipeline phases.
func NewTrace() *Trace {
	return &Trace{tr: obs.New(obs.Config{MemStats: true, Labels: true})}
}

// internal unwraps the tracer; nil-safe so a nil *Trace threads
// through as the internal layer's nil tracer (the no-op hot path).
func (t *Trace) internal() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// Text renders the recorded spans as an indented tree, one line per
// span with its duration, allocation delta, and attributes. Durations
// and allocation figures vary run to run; everything else is stable.
func (t *Trace) Text() string {
	var sb strings.Builder
	obs.WriteTree(&sb, t.internal())
	return sb.String()
}

// WriteChromeTrace writes the recorded spans in the Chrome trace_event
// JSON format (load via chrome://tracing or https://ui.perfetto.dev).
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, t.internal())
}

// ParseProgramTraced is ParseProgram with phase tracing: the front-end
// stages record spans under a per-unit root in t, and analysis calls
// on the returned Program add their solve spans to the same trace. A
// nil t traces nothing and behaves exactly like ParseProgram.
func ParseProgramTraced(name, src string, opts Options, t *Trace) (*Program, error) {
	sp := t.internal().StartSpan("unit", obs.Str("unit", name))
	defer sp.End()
	u, err := driver.LoadStringSpan(name, src, opts.internal(), sp)
	if err != nil {
		return nil, err
	}
	return &Program{unit: u, opts: opts.internal(), trace: t}, nil
}

// span opens a root solve span for one analysis call on p, tagged with
// the unit name. Returns nil (a no-op span) on untraced programs.
func (p *Program) span(name string) *obs.Span {
	return p.trace.internal().StartSpan(name, obs.Str("unit", p.unit.Name))
}
