// Package solve is the one dispatch from a backend kind to its solver.
// Every surface — the aliaslab CLI, the daemon, the library facade,
// the experiment harness and the oracle — runs its analyses through
// Solve, which picks the solver, runs the CI→CS degradation ladder,
// opens one solve-<kind> span per attempt with the engine counters
// attached, and names the outcome: its label, tier, notes and
// soundness. The surfaces only map an Outcome onto their own contract
// (exit code, HTTP status, Degraded flag or error).
//
// The per-solver functions in internal/core and internal/backend stay
// exported for the reference checks and benchmarks that must call one
// solver in isolation.
package solve

import (
	"fmt"
	"time"

	"aliaslab/internal/backend"
	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// Tier records how far an outcome falls short of the requested
// analysis. Higher tiers are coarser answers.
type Tier int

const (
	// Full: the requested analysis converged within budget.
	Full Tier = iota
	// CIFallback: the context-sensitive attempt blew its budget; the
	// converged context-insensitive result answers instead. Sound (CI
	// over-approximates CS) but coarser.
	CIFallback
	// PartialCI: the context-insensitive attempt itself hit the budget.
	// Its sets are a partial fixpoint — an under-approximation — and
	// are NOT a sound may-alias answer; they are returned only so
	// clients can report progress.
	PartialCI
	// Partial: a constraint backend (Andersen, Steensgaard) hit the
	// budget. It has no ladder to fall back on, so its partial sets
	// answer, and they are not sound either.
	Partial
)

func (t Tier) String() string {
	switch t {
	case Full:
		return "full"
	case CIFallback:
		return "ci-fallback"
	case PartialCI:
		return "partial-ci"
	case Partial:
		return "partial"
	}
	return fmt.Sprintf("solve.Tier(%d)", int(t))
}

// Rung names the rung of the CI→CS ladder that answered in place of
// the requested analysis: "ci-fallback" or "partial-ci". It is the
// `(degraded: <rung>)` label suffix and the degradation envelope's
// tier. It is empty at Full, and at Partial too: a constraint backend
// has no ladder, so its stop shows only through Sound and Stopped.
func (t Tier) Rung() string {
	if t == CIFallback || t == PartialCI {
		return t.String()
	}
	return ""
}

// kinds names each backend: noun in "<noun> analysis stopped early",
// label on every rendering of its solution.
var kinds = [...]struct{ noun, label string }{
	backend.CI:          {"context-insensitive", "context-insensitive"},
	backend.CS:          {"context-sensitive", "context-sensitive"},
	backend.Andersen:    {"andersen", "andersen (inclusion-based)"},
	backend.Steensgaard: {"steensgaard", "steensgaard (unification-based)"},
}

// VetKind resolves the backend a vet run names. The checkers interpret
// a CI-shaped solution with a call graph: ci, andersen and steensgaard
// produce one, cs does not (and neither does any name that is not a
// backend, the empty one included).
func VetKind(name string) (backend.Kind, error) {
	k, err := backend.ParseKind(name)
	if err != nil || name == "" || k == backend.CS {
		return k, fmt.Errorf("vet runs on the ci, andersen, or steensgaard backend, not %s", name)
	}
	return k, nil
}

// Attempt is one solver run of an outcome.
type Attempt struct {
	Kind  backend.Kind
	Stats solver.Stats
	Wall  time.Duration
}

// Outcome is everything a surface needs from one Solve call.
type Outcome struct {
	// Kind is the requested backend.
	Kind backend.Kind

	// Sets is the final answer: CS stripped pairs when CS converged,
	// the CI-shaped result's sets otherwise.
	Sets map[*vdg.Output]*core.PairSet

	// CI is the CI-shaped result the call-graph and mod/ref clients and
	// the checkers read: the context-insensitive attempt for ci and cs
	// (possibly partial at PartialCI), the backend's own result for
	// andersen and steensgaard.
	CI *core.Result

	// CS is the context-sensitive result that produced Sets, nil when
	// CS was not requested or did not converge.
	CS *core.SensitiveResult

	// Tier tells how degraded the answer is; Stopped is the limit that
	// forced the final degradation, nil at Full. Sound is false when
	// the sets are a partial fixpoint that under-approximates.
	Tier    Tier
	Stopped *limits.Violation
	Sound   bool

	// Notes is a human-readable trace of the ladder's decisions, in
	// order, for reports and logs.
	Notes []string

	// Label names the analysis for renderings, with a
	// `(degraded: <rung>)` suffix when a ladder rung answered.
	Label string

	// Attempts records each solver run in order.
	Attempts []Attempt
}

// Degraded reports whether the answer is anything other than the
// analysis that was asked for.
func (o *Outcome) Degraded() bool { return o.Tier != Full }

// Err is the stop as an error naming the analysis that stopped, nil
// when the requested analysis converged.
func (o *Outcome) Err() error {
	if o.Stopped == nil {
		return nil
	}
	last := o.Attempts[len(o.Attempts)-1].Kind
	return fmt.Errorf("%s analysis stopped early: %w", kinds[last].noun, o.Stopped)
}

// Solve runs the kind's analysis over g under budget, whose step and
// pair caps apply to each attempt separately while the deadline in
// budget.Ctx spans them all. Each attempt records a solve-<kind> child
// of span (nil traces nothing) with its engine counters attached.
//
// Andersen and Steensgaard run once. CI and CS share one ladder:
//
//	rung 0  the context-insensitive analysis (it also feeds the §4.2
//	        CS optimizations); if it stops, its partial state answers
//	        at PartialCI rather than hanging
//	rung 1  for cs, the exact context-sensitive analysis; if it stops,
//	        the CI result answers at CIFallback
func Solve(kind backend.Kind, g *vdg.Graph, budget limits.Budget, span *obs.Span) *Outcome {
	o := &Outcome{Kind: kind, Sound: true}
	switch kind {
	case backend.CI, backend.CS:
		o.ladder(g, budget, span)
	case backend.Andersen, backend.Steensgaard:
		analyze := andersen.AnalyzeBudgeted
		if kind == backend.Steensgaard {
			analyze = steensgaard.AnalyzeBudgeted
		}
		o.attempt(kind, span, func() solver.Stats {
			o.CI = analyze(g, budget)
			return o.CI.Engine
		})
		o.Sets = o.CI.Sets
		if o.CI.Stopped != nil {
			o.Tier, o.Stopped, o.Sound = Partial, o.CI.Stopped, false
		}
	default:
		panic(fmt.Sprintf("solve: unknown %v", kind))
	}
	o.Label = kinds[kind].label
	if rung := o.Tier.Rung(); rung != "" {
		o.Label += " (degraded: " + rung + ")"
	}
	return o
}

func (o *Outcome) ladder(g *vdg.Graph, budget limits.Budget, span *obs.Span) {
	o.attempt(backend.CI, span, func() solver.Stats {
		o.CI = core.AnalyzeInsensitiveBudgeted(g, budget)
		return o.CI.Engine
	})
	o.Sets = o.CI.Sets
	if o.CI.Stopped != nil {
		o.Tier, o.Stopped, o.Sound = PartialCI, o.CI.Stopped, false
		o.note("context-insensitive analysis stopped early: %v", o.Stopped)
		return
	}
	if o.Kind == backend.CI {
		return
	}

	var cs *core.SensitiveResult
	o.attempt(backend.CS, span, func() solver.Stats {
		cs = core.AnalyzeSensitive(g, core.SensitiveOptions{CI: o.CI, Budget: budget})
		return cs.Engine
	})
	if cs.Stopped == nil {
		o.CS, o.Sets = cs, cs.Strip()
		return
	}
	o.Tier, o.Stopped = CIFallback, cs.Stopped
	o.note("exact context-sensitive analysis stopped early: %v", cs.Stopped)
	o.note("fell back to the context-insensitive result")
}

// attempt times one solver run under its own span and records it.
func (o *Outcome) attempt(kind backend.Kind, span *obs.Span, run func() solver.Stats) {
	sp := span.Child("solve-" + kind.String())
	t0 := time.Now()
	st := run()
	o.Attempts = append(o.Attempts, Attempt{Kind: kind, Stats: st, Wall: time.Since(t0)})
	attachEngine(sp, st)
}

func (o *Outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// attachEngine annotates a solve span with a run's engine counters and
// ends it, so a trace attributes fixpoint cost (steps, meets, queue
// depth) to the exact attempt that paid it. Nil-safe.
func attachEngine(sp *obs.Span, st solver.Stats) {
	if sp == nil {
		return
	}
	sp.SetAttr(obs.Int("steps", st.Steps))
	sp.SetAttr(obs.Int("meets", st.Meets))
	sp.SetAttr(obs.Int("pairInserts", st.PairInserts))
	sp.SetAttr(obs.Int("enqueued", st.Enqueued))
	sp.SetAttr(obs.Int("peakDepth", st.PeakDepth))
	sp.End()
}
