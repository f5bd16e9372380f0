package core

import (
	"fmt"

	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// AttachEngine annotates a solve span with a run's engine counters and
// ends it. The counters are the same record EngineStats renders; on the
// span they let a trace attribute fixpoint cost (steps, meets, queue
// depth) to the exact attempt that paid it. Nil-safe.
func AttachEngine(sp *obs.Span, st solver.Stats) {
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

// Tier records how much an analysis had to degrade to fit its budget.
// The ordering is meaningful: higher tiers are coarser answers.
type Tier int

const (
	// TierFull: the requested analysis converged within budget.
	TierFull Tier = iota
	// TierWidened: the exact context-sensitive analysis blew its
	// budget; the widened variant (assumption sets collapsed beyond a
	// bound) converged. Sound over-approximation of the exact CS
	// fixpoint.
	TierWidened
	// TierCIFallback: even the widened context-sensitive analysis blew
	// its budget; the context-insensitive result is returned instead.
	// Sound (CI over-approximates CS) but coarsest.
	TierCIFallback
	// TierPartialCI: the context-insensitive analysis itself hit the
	// budget. The returned sets are a partial fixpoint — an
	// under-approximation — and are NOT a sound may-alias answer; they
	// are returned only so clients can report progress.
	TierPartialCI
)

func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierWidened:
		return "widened"
	case TierCIFallback:
		return "ci-fallback"
	case TierPartialCI:
		return "partial-ci"
	}
	return fmt.Sprintf("core.Tier(%d)", int(t))
}

// Degraded reports whether the answer is anything other than the
// analysis that was asked for.
func (t Tier) Degraded() bool { return t != TierFull }

// Sound reports whether the tier's sets over-approximate the exact
// answer (everything except a partial CI fixpoint).
func (t Tier) Sound() bool { return t != TierPartialCI }

// DefaultWidenAssumptions is the tier-2 assumption-set bound used when
// the caller does not pick one. Small by design: widening exists to
// tame combinatorial blowup, and the assumption sets observed on the
// paper's corpus rarely exceed a handful of elements.
const DefaultWidenAssumptions = 4

// GovernedOptions configures AnalyzeGoverned.
type GovernedOptions struct {
	// Budget bounds each attempt. Step and pair caps are per attempt;
	// the wall-clock deadline in Budget.Ctx spans all attempts.
	Budget limits.Budget

	// Sensitive requests the context-sensitive analysis; false runs
	// (budgeted) CI only.
	Sensitive bool

	// WidenAssumptions is the tier-2 assumption-set bound
	// (DefaultWidenAssumptions when 0).
	WidenAssumptions int

	// MaxSteps is the legacy context-sensitive step bound, kept
	// distinct from Budget.MaxSteps for callers that want the paper's
	// "the unoptimized algorithm is exponential" safety valve without
	// any other governance (0 = unlimited).
	MaxSteps int

	// Span, when non-nil, records one child span per solve attempt
	// (solve-ci, solve-cs, solve-cs-widened) with the attempt's engine
	// counters attached. Nil traces nothing.
	Span *obs.Span
}

// GovernedResult is the outcome of the degradation pipeline.
type GovernedResult struct {
	// CI is always populated (possibly partial at TierPartialCI).
	CI *Result
	// CS is the context-sensitive result that produced Sets, nil when
	// CS was not requested or the pipeline fell back to CI.
	CS *SensitiveResult

	// Sets is the final answer: CS stripped pairs at TierFull/
	// TierWidened, the CI sets otherwise.
	Sets map[*vdg.Output]*PairSet

	// Tier tells how degraded the answer is; Stopped is the limit that
	// forced the (final) degradation, nil at TierFull.
	Tier    Tier
	Stopped *limits.Violation

	// Notes is a human-readable trace of the degradation decisions, in
	// order, for reports and logs.
	Notes []string
}

// Degraded reports whether any degradation occurred.
func (r *GovernedResult) Degraded() bool { return r.Tier.Degraded() }

// AnalyzeGoverned runs the analysis pipeline under a resource budget
// with three-tier graceful degradation:
//
//	tier 0  exact context-sensitive analysis (when requested)
//	tier 1  context-sensitive with assumption-set widening
//	tier 2  fall back to the context-insensitive result
//
// Every tier transition is forced by a tripped budget and recorded in
// Notes. The context-insensitive analysis runs first (it also feeds
// the §4.2 CS optimizations); if it cannot finish within budget the
// pipeline returns its partial state marked TierPartialCI rather than
// hanging — the one case where the answer is not sound.
func AnalyzeGoverned(g *vdg.Graph, opts GovernedOptions) *GovernedResult {
	r := &GovernedResult{}

	sp := opts.Span.Child("solve-ci")
	r.CI = AnalyzeInsensitiveBudgeted(g, opts.Budget)
	AttachEngine(sp, r.CI.Engine)
	if r.CI.Stopped != nil {
		r.Tier = TierPartialCI
		r.Stopped = r.CI.Stopped
		r.Sets = r.CI.Sets
		r.note("context-insensitive analysis stopped early: %v", r.CI.Stopped)
		return r
	}

	if !opts.Sensitive {
		r.Tier = TierFull
		r.Sets = r.CI.Sets
		return r
	}

	sp = opts.Span.Child("solve-cs")
	cs := AnalyzeSensitive(g, SensitiveOptions{
		CI: r.CI, MaxSteps: opts.MaxSteps, Budget: opts.Budget,
	})
	AttachEngine(sp, cs.Engine)
	if !cs.Aborted {
		r.Tier = TierFull
		r.CS = cs
		r.Sets = cs.Strip()
		return r
	}
	r.note("exact context-sensitive analysis stopped early: %v", csStopReason(cs, opts))

	widen := opts.WidenAssumptions
	if widen <= 0 {
		widen = DefaultWidenAssumptions
	}
	sp = opts.Span.Child("solve-cs-widened")
	wcs := AnalyzeSensitive(g, SensitiveOptions{
		CI: r.CI, MaxSteps: opts.MaxSteps, MaxAssumptions: widen, Budget: opts.Budget,
	})
	AttachEngine(sp, wcs.Engine)
	if !wcs.Aborted {
		r.Tier = TierWidened
		r.CS = wcs
		r.Sets = wcs.Strip()
		r.Stopped = cs.Stopped
		r.note("recovered with assumption-set widening (bound %d)", widen)
		return r
	}
	r.note("widened context-sensitive analysis stopped early: %v", csStopReason(wcs, opts))

	r.Tier = TierCIFallback
	r.Stopped = wcs.Stopped
	if r.Stopped == nil {
		r.Stopped = cs.Stopped
	}
	r.Sets = r.CI.Sets
	r.note("fell back to the context-insensitive result")
	return r
}

func (r *GovernedResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// csStopReason renders why a CS attempt aborted (budget violation, or
// the legacy MaxSteps bound which carries no Violation).
func csStopReason(cs *SensitiveResult, opts GovernedOptions) string {
	if cs.Stopped != nil {
		return cs.Stopped.Error()
	}
	return fmt.Sprintf("step bound %d exhausted", opts.MaxSteps)
}
