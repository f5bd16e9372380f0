// Package aliaslab reproduces the empirical study of Erik Ruf's
// "Context-Insensitive Alias Analysis Reconsidered" (PLDI 1995): a
// flow-sensitive, context-insensitive points-to analysis for a C subset,
// a maximally context-sensitive variant of the same analysis, and the
// instrumentation needed to compare their precision.
//
// This package is the public facade. It exposes the pipeline
// (parse → typecheck → VDG → analyze) and result views that do not leak
// internal representations. The programs under examples/ are its
// clients; the cmd/ tools and the experiment harness sit on the
// internals underneath it.
//
// Basic use:
//
//	prog, err := aliaslab.ParseProgram("demo.c", source, aliaslab.Options{})
//	res, err := prog.Analyze()                    // context-insensitive
//	for _, pt := range res.StoreAtExit() { ... }  // location -> referent
//	cs, err := prog.AnalyzeContextSensitive(0)    // the paper's comparator
package aliaslab

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aliaslab/internal/backend"
	"aliaslab/internal/checkers"
	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/modref"
	"aliaslab/internal/obs"
	"aliaslab/internal/query"
	"aliaslab/internal/report"
	"aliaslab/internal/solve"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// Options configures program construction.
type Options struct {
	// KeepScalarsInStore disables the SSA-like store removal of
	// non-addressed scalars (ablation; the paper's representation
	// removes them).
	KeepScalarsInStore bool

	// SingleHeapBase names all heap storage with one base location
	// instead of one per allocation site (ablation).
	SingleHeapBase bool

	// RecursiveLocalsSingle treats address-taken locals of recursive
	// procedures as single-instance locations instead of summary
	// locations (the top-instance half of Cooper's scheme; see paper
	// footnote 4).
	RecursiveLocalsSingle bool
}

func (o Options) internal() vdg.Options {
	return vdg.Options{
		NoSSA:                 o.KeepScalarsInStore,
		SingleHeapBase:        o.SingleHeapBase,
		RecursiveLocalsSingle: o.RecursiveLocalsSingle,
	}
}

// Program is a parsed, checked, VDG-built translation unit.
type Program struct {
	unit *driver.Unit
	opts vdg.Options // the options unit was built with

	// trace, when the program was built with ParseProgramTraced,
	// receives the solve spans of analysis calls; nil otherwise.
	trace *Trace

	// queryOnce guards the lazily built demand-driven query engine;
	// its memo table lives for the Program's lifetime, so repeated
	// queries share slices.
	queryOnce sync.Once
	queryEng  *query.Engine

	// vetOnce guards the diagnostics-instrumented graph every Vet call
	// reads, and vetSolveOnce its unbudgeted CI solve, which Vet calls
	// without a budget share. The two are apart so that a budgeted
	// VetLimited never starts the unbudgeted solve, which need not end
	// in practical time (DESIGN §7).
	vetOnce      sync.Once
	vetGraph     *vdg.Graph
	vetErr       error
	vetSolveOnce sync.Once
	vetSolve     *solve.Outcome
}

// ParseProgram builds a Program from source text.
func ParseProgram(name, src string, opts Options) (*Program, error) {
	return ParseProgramTraced(name, src, opts, nil)
}

// Sizes reports the program's Figure 2 statistics.
func (p *Program) Sizes() (lines, vdgNodes, aliasRelatedOutputs int) {
	s := stats.Sizes(p.unit.Name, p.unit.SourceLines, p.unit.Graph)
	return s.Lines, s.Nodes, s.AliasOutputs
}

// PointsTo is one points-to pair rendered as interned-path strings:
// Path is the pointer-holding location (or ε for values), Referent the
// location pointed to. Its JSON encoding is the CLI's -print json
// storeAtExit entry.
type PointsTo = report.PointsTo

// IndirectOp describes one indirect memory operation and the locations
// it may touch under an analysis: Kind is "read" or "write", Pos the
// source position, and Referents the sorted location names.
type IndirectOp = stats.IndirectOp

// Result is an analysis outcome.
type Result struct {
	prog  *Program
	ci    *core.Result // non-nil for CI results (call graph, mod/ref)
	sets  map[*vdg.Output]*core.PairSet
	label string

	// Degraded is true when a resource budget forced the analysis to
	// return something coarser (or, for a stopped context-insensitive
	// run, something partial) instead of the exact requested answer.
	// Notes() explains what happened.
	Degraded bool
	notes    []string

	// TransferFns and MeetOps count analysis work in the paper's terms
	// (applications of flow-in and flow-out).
	TransferFns int
	MeetOps     int
}

// Notes returns the degradation trace for budget-governed runs: one
// line per tier transition, empty when the analysis ran to completion.
func (r *Result) Notes() []string { return r.notes }

// Limits bounds a governed analysis run. Zero values mean unlimited.
type Limits struct {
	// Timeout is the wall-clock budget for the whole run (all
	// degradation rungs together).
	Timeout time.Duration

	// MaxSteps caps transfer-function applications (flow-ins) per
	// analysis attempt; MaxPairs caps the points-to pair census.
	MaxSteps int
	MaxPairs int
}

func (l Limits) budget(ctx context.Context) (limits.Budget, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if l.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, l.Timeout)
	}
	return limits.Budget{Ctx: ctx, MaxSteps: l.MaxSteps, MaxPairs: l.MaxPairs}, cancel
}

// Analyze runs the context-insensitive analysis (paper Figure 1).
func (p *Program) Analyze() (*Result, error) {
	return p.result(p.analyze(p.unit.Graph, backend.CI, limits.Budget{})), nil
}

// Backends lists the names AnalyzeWithBackend accepts, in precision
// order, most precise first: "cs", "ci", "andersen", "baseline",
// "steensgaard". Each answer is a sound pointwise over-approximation of
// the one before it (cs ⊆ ci ⊆ andersen = baseline ⊆ steensgaard,
// asserted by the oracle), so picking a backend trades precision for
// cost, never soundness.
func Backends() []string { return []string{"cs", "ci", "andersen", "baseline", "steensgaard"} }

// AnalyzeWithBackend runs the named analysis: "ci" (or "") for the
// paper's context-insensitive analysis, "cs" for the maximally
// context-sensitive one (unbounded; use AnalyzeContextSensitive to cap
// its steps), "andersen" for the inclusion-constraint solver,
// "steensgaard" for the unification solver, and "baseline" for the
// Weihl-style program-wide, flow-insensitive baseline the pre-1990
// literature used (one store for the whole program, no kills). The
// constraint backends produce full CI-shaped results, so ModRef works
// on them. The baseline's per-output sets are exactly Andersen's, so
// the Andersen solver computes them and the counters are Andersen's;
// the result carries no call graph, so ModRef reports an error.
func (p *Program) AnalyzeWithBackend(name string) (*Result, error) {
	if name == "baseline" {
		res := p.result(p.analyze(p.unit.Graph, backend.Andersen, limits.Budget{}))
		res.ci, res.label = nil, "program-wide (Weihl baseline)"
		return res, nil
	}
	kind, err := backend.ParseKind(name)
	if err != nil {
		return nil, fmt.Errorf("aliaslab: unknown backend %q (want one of %s)", name, strings.Join(Backends(), ", "))
	}
	if kind == backend.CS {
		return p.AnalyzeContextSensitive(0)
	}
	return p.result(p.analyze(p.unit.Graph, kind, limits.Budget{})), nil
}

// AnalyzeContextSensitive runs the maximally context-sensitive analysis
// (paper Figure 5) with the §4.2 optimizations, then strips assumption
// sets. maxSteps bounds the work of each attempt, the
// context-insensitive pre-pass and the context-sensitive solve (0 =
// unlimited); the analysis is exponential in the worst case.
func (p *Program) AnalyzeContextSensitive(maxSteps int) (*Result, error) {
	o := p.analyze(p.unit.Graph, backend.CS, limits.Budget{MaxSteps: maxSteps})
	if o.Degraded() {
		return nil, fmt.Errorf("aliaslab: context-sensitive analysis exceeded %d steps", maxSteps)
	}
	return p.result(o), nil
}

// AnalyzeLimited runs the context-insensitive analysis under a
// resource budget. If the budget trips mid-fixpoint the partial result
// comes back with Degraded set AND a non-nil error: a stopped
// context-insensitive solution under-approximates and must not be
// used as a may-alias answer.
func (p *Program) AnalyzeLimited(ctx context.Context, lim Limits) (*Result, error) {
	budget, cancel := lim.budget(ctx)
	defer cancel()
	o := p.analyze(p.unit.Graph, backend.CI, budget)
	if !o.Sound {
		return p.result(o), fmt.Errorf("aliaslab: context-insensitive analysis stopped early (%v); partial result is not sound", o.Stopped)
	}
	return p.result(o), nil
}

// AnalyzeContextSensitiveLimited runs the context-sensitive analysis
// under a resource budget with graceful degradation: exact CS first,
// then the context-insensitive result. Both rungs are sound
// over-approximations; Degraded and Notes on the Result say which one
// answered. The error is non-nil only when even the context-insensitive
// fallback could not finish (its partial, unsound state is still
// returned for inspection).
func (p *Program) AnalyzeContextSensitiveLimited(ctx context.Context, lim Limits) (*Result, error) {
	budget, cancel := lim.budget(ctx)
	defer cancel()
	o := p.analyze(p.unit.Graph, backend.CS, budget)
	if !o.Sound {
		return p.result(o), fmt.Errorf("aliaslab: analysis stopped early (%v); partial result is not sound", o.Stopped)
	}
	return p.result(o), nil
}

// analyze runs one analysis of g under a "solve" span that holds the
// attempts' spans.
func (p *Program) analyze(g *vdg.Graph, kind backend.Kind, budget limits.Budget) *solve.Outcome {
	sp := p.span("solve")
	defer sp.End()
	return solve.Solve(kind, g, budget, sp)
}

// result adapts an outcome to the public Result shape. The counters
// are the context-sensitive attempt's when CS answered and the
// CI-shaped result's otherwise.
func (p *Program) result(o *solve.Outcome) *Result {
	eng := o.CI.Engine
	if o.CS != nil {
		eng = o.CS.Engine
	}
	return &Result{
		prog: p, ci: o.CI, sets: o.Sets, label: o.Label,
		Degraded: o.Degraded(), notes: o.Notes,
		TransferFns: eng.Steps, MeetOps: eng.Meets,
	}
}

// Label names the analysis that produced this result.
func (r *Result) Label() string { return r.label }

// TotalPairs counts points-to pairs over all node outputs (the Figure
// 3/6 "total" column).
func (r *Result) TotalPairs() int {
	return stats.Census(r.prog.unit.Graph, r.sets).Total
}

// StoreAtExit returns the points-to pairs holding in the store when
// main returns, sorted by path then referent.
func (r *Result) StoreAtExit() []PointsTo {
	return report.StoreAtExit(r.prog.unit.Graph, r.sets)
}

// IndirectOps lists every indirect memory operation with the locations
// it may reference under this result (the paper's Figure 4 subjects).
func (r *Result) IndirectOps() []IndirectOp {
	return stats.ListIndirect(r.prog.unit.Graph, r.prog.unit.Name, r.sets)
}

// ModRef reports, per function, the locations it (transitively) may
// modify and reference, each list sorted by location name. Available
// on results that ran the context-insensitive pre-pass (Analyze and
// AnalyzeContextSensitive) and on the constraint backends, not on the
// baseline. The name sort makes the lists a pure function of the
// analysis answer, independent of the solver's path-interning order.
func (r *Result) ModRef() (mod, ref map[string][]string, err error) {
	if r.ci == nil {
		return nil, nil, fmt.Errorf("aliaslab: ModRef requires a context-insensitive result")
	}
	info := modref.Compute(r.ci)
	mod = make(map[string][]string)
	ref = make(map[string][]string)
	for _, fg := range r.prog.unit.Graph.Funcs {
		if fg.Fn.Body == nil {
			continue
		}
		for _, p := range info.Mod[fg].Sorted() {
			mod[fg.Fn.Name] = append(mod[fg.Fn.Name], p.String())
		}
		for _, p := range info.Ref[fg].Sorted() {
			ref[fg.Fn.Name] = append(ref[fg.Fn.Name], p.String())
		}
		sort.Strings(mod[fg.Fn.Name])
		sort.Strings(ref[fg.Fn.Name])
	}
	return mod, ref, nil
}

// Diagnostic is one finding of the pointer-bug checker suite.
type Diagnostic struct {
	Pos      string // file:line:col
	Severity string // "warning" or "error"
	Checker  string // checker ID, e.g. "uaf"
	Message  string
	Related  []RelatedPos
}

// RelatedPos is a secondary position attached to a Diagnostic (e.g.
// the free site of a use-after-free).
type RelatedPos struct {
	Pos     string
	Message string
}

// Vet runs the pointer-bug checker suite: the VDG is built again from
// the checked program with diagnostics instrumentation (marker
// locations for null/uninitialized pointers, explicit deallocation
// events), analyzed context-insensitively, and the selected checkers
// interpret the points-to solution. The instrumented graph and its
// solve are built once per Program and shared by every later Vet call.
// With no arguments every checker runs. Diagnostics come back in a
// deterministic order: by position, then checker, then message.
func (p *Program) Vet(checkerIDs ...string) ([]Diagnostic, error) {
	diags, _, err := p.vet(limits.Budget{}, checkerIDs)
	return diags, err
}

// VetLimited is Vet under a resource budget. The boolean reports
// degradation: when the underlying points-to analysis hit the budget,
// the diagnostics come from a partial (unsound) solution and are
// best-effort only — findings may be missing. A zero Limits with a
// context that cannot be cancelled is no budget, and shares Vet's
// solve; any other budget solves the shared graph again under it.
func (p *Program) VetLimited(ctx context.Context, lim Limits, checkerIDs ...string) ([]Diagnostic, bool, error) {
	if lim == (Limits{}) && (ctx == nil || ctx.Done() == nil) {
		return p.vet(limits.Budget{}, checkerIDs)
	}
	budget, cancel := lim.budget(ctx)
	defer cancel()
	return p.vet(budget, checkerIDs)
}

func (p *Program) vet(budget limits.Budget, checkerIDs []string) ([]Diagnostic, bool, error) {
	sel, err := checkers.Select(checkerIDs)
	if err != nil {
		return nil, false, err
	}
	p.vetOnce.Do(func() {
		opts := p.opts
		opts.Diagnostics = true
		sp := p.span("vet")
		p.vetGraph, p.vetErr = driver.BuildGraphSpan(p.unit.Name, p.unit.Prog, opts, sp)
		sp.End()
	})
	if p.vetErr != nil {
		return nil, false, fmt.Errorf("aliaslab: rebuilding for vet: %w", p.vetErr)
	}
	g := p.vetGraph
	var o *solve.Outcome
	if budget.Unlimited() {
		p.vetSolveOnce.Do(func() { p.vetSolve = p.analyze(g, backend.CI, budget) })
		o = p.vetSolve
	} else {
		o = p.analyze(g, backend.CI, budget)
	}
	sp := p.span("checkers")
	diags := checkers.Run(checkers.NewContext(g, o.CI), sel)
	sp.SetAttr(obs.Int("diags", len(diags)))
	sp.End()
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		pub := Diagnostic{
			Pos:      d.Pos.In(d.File),
			Severity: d.Severity.String(),
			Checker:  d.Checker,
			Message:  d.Message,
		}
		for _, r := range d.Related {
			pub.Related = append(pub.Related, RelatedPos{Pos: r.Pos.In(d.File), Message: r.Message})
		}
		out = append(out, pub)
	}
	return out, o.Stopped != nil, nil
}

// Compare reports how two results differ: the number of pairs in a but
// not b (a must over-approximate b for meaningful spurious counts), and
// the number of indirect operations whose referent sets differ.
func Compare(a, b *Result) (spuriousPairs, indirectDiffs int) {
	g := a.prog.unit.Graph
	spuriousPairs = len(stats.SpuriousPairs(g, a.sets, b.sets))
	indirectDiffs = len(stats.IndirectDiff(g, a.sets, b.sets))
	return
}

// QueryAnswer is the rendered answer of one demand-driven query. Its
// JSON encoding is byte-identical across the facade, the CLI's
// -query flag, and the server's /v1/query endpoint.
type QueryAnswer = query.Answer

func (p *Program) queryEngine() *query.Engine {
	p.queryOnce.Do(func() {
		p.queryEng = query.New(p.unit.Graph, query.Options{})
	})
	return p.queryEng
}

// MayAlias answers whether the two expressions (variable paths like
// "p", "main.q", "s.next", "*pp") may refer to the same location,
// solving only the demand slice that can influence them instead of the
// whole-program fixpoint. Verdicts are "yes" (with a witness
// location), "no", or "unknown" (an expression with no live occurrence
// in the program). The engine memoizes slices, so repeated queries on
// the same Program get cheaper.
func (p *Program) MayAlias(e1, e2 string) (QueryAnswer, error) {
	return p.queryEngine().MayAlias(e1, e2)
}

// PointsTo answers what the expression may point to, as the sorted
// referent names of the demand-solved points-to sets at every live
// occurrence of the expression.
func (p *Program) PointsTo(expr string) (QueryAnswer, error) {
	return p.queryEngine().PointsTo(expr)
}

// Query evaluates one or more ';'-separated textual queries, e.g.
// "mayalias(p, q); pointsto(s.next)".
func (p *Program) Query(src string) ([]QueryAnswer, error) {
	qs, err := query.ParseAll(src)
	if err != nil {
		return nil, err
	}
	out := make([]QueryAnswer, 0, len(qs))
	for _, q := range qs {
		ans, err := p.queryEngine().Query(q)
		if err != nil {
			return nil, err
		}
		out = append(out, ans)
	}
	return out, nil
}
