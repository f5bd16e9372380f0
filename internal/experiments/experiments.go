// Package experiments runs the paper's evaluation over the corpus and
// renders each figure. It is shared by cmd/experiments and the
// bench_test harness.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"aliaslab/internal/backend"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/report"
	"aliaslab/internal/sched"
	"aliaslab/internal/solve"
	"aliaslab/internal/solver"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// MaxCSSteps bounds each solve attempt on any one unit when the caller
// set no step cap. It was sized for the context-sensitive analysis; the
// corpus converges well below it, and the context-insensitive and
// constraint-backend solves far below that.
const MaxCSSteps = 100_000_000

// capSteps is b with MaxCSSteps as its per-attempt step cap when b sets
// none.
func capSteps(b limits.Budget) limits.Budget {
	if b.MaxSteps <= 0 {
		b.MaxSteps = MaxCSSteps
	}
	return b
}

// ProgramResult bundles everything measured for one corpus program.
type ProgramResult struct {
	Name string
	Unit *driver.Unit

	CI     *core.Result
	CITime time.Duration

	// CS is the converged context-sensitive result, nil when the unit
	// did not run CS or CS did not converge (see Capped).
	CS     *core.SensitiveResult
	CSTime time.Duration

	CISets map[*vdg.Output]*core.PairSet
	CSSets map[*vdg.Output]*core.PairSet

	// BE is the constraint-backend result (Andersen or Steensgaard),
	// present only when BatchOptions.Backend requested one; BEKind
	// records which. The backend solves the same VDG the CI analysis
	// used, so its sets are directly comparable.
	BE     *core.Result
	BEKind backend.Kind
	BETime time.Duration

	// Queries records the demand-query sweep when BatchOptions.Queries
	// is set: per-query slice sizes, solve steps, and cold/warm times,
	// every answer cross-checked against the exhaustive CI reference
	// in-line (a divergence fails the unit).
	Queries *QueryBench

	// WallTime is the unit's total load+analyze wall time, used by the
	// batch report to compare aggregate work against batch wall clock
	// (the parallel speedup).
	WallTime time.Duration

	// Capped is set when the context-sensitive analysis stopped at the
	// MaxCSSteps bound (or a budget limit) before converging. A capped
	// unit also carries Err: its CS numbers are an under-approximation
	// and must never be presented as a converged result.
	Capped bool

	// Stopped is the budget violation that halted this unit's solve;
	// nil when every solve converged.
	Stopped *limits.Violation

	// Err records a per-unit failure — front-end diagnostics, a panic
	// recovered at the driver boundary, an aborted fixpoint, or a batch
	// cancellation that skipped the unit. A failed unit still occupies
	// its slot in batch results so the remaining corpus keeps
	// analyzing; figures skip it.
	Err error
}

// Failed reports whether this unit produced no usable analysis.
func (r *ProgramResult) Failed() bool { return r.Err != nil }

// BatchOptions configures a corpus batch run.
type BatchOptions struct {
	// WithCS additionally runs the context-sensitive analysis (with the
	// §4.2 optimizations) on every unit.
	WithCS bool

	// Opts is the VDG construction configuration (ablations,
	// diagnostics instrumentation).
	Opts vdg.Options

	// Jobs is the worker-pool width: how many units analyze
	// concurrently. <= 0 means GOMAXPROCS; 1 reproduces the sequential
	// engine exactly. Results are merged in input order regardless, so
	// rendered output is identical at every width.
	Jobs int

	// Budget bounds every solve of every unit separately: its step and
	// pair caps apply per attempt, so whether a unit trips them does
	// not depend on the schedule. A deadline in Budget.Ctx spans the
	// whole batch; units not started when it expires are skipped.
	Budget limits.Budget

	// Backend additionally runs a constraint backend (Andersen or
	// Steensgaard) on every unit, recording its result in
	// ProgramResult.BE. The zero value (CI) runs nothing extra — the
	// context-insensitive analysis always runs, it is the reference the
	// figures render.
	Backend backend.Kind

	// Queries additionally sweeps each unit's variables through the
	// demand-driven query engine — pointsto per variable, cold (fresh
	// engine) and warm (shared memo) — recording slice sizes and times
	// in ProgramResult.Queries and tripping the unit's Err if any
	// demand answer diverges from the exhaustive CI reference.
	Queries bool

	// Trace, when non-nil, records the batch as a span tree: one root
	// batch span, one detached span per unit (attached in input order
	// after the merge barrier, so the tree shape is deterministic even
	// though spans finish in any order) with load and solve phases as
	// children. Nil stays on the unobserved hot path.
	Trace *obs.Tracer

	// Metrics, when non-nil, collects batch metrics: unit counts, VDG
	// sizes, engine counters, pairs-per-procedure and worklist-depth
	// distributions. Workers write it lock-free;
	// only Deterministic-stability metrics appear in the byte-stable
	// JSON rendering.
	Metrics *obs.Registry
}

// Validate checks the option combination before any unit runs, so a
// misconfigured batch is rejected loudly up front instead of silently
// doing something other than what was asked. The errors are typed
// (internal/backend) so embedders — the CLIs, the analysis server —
// can map them to their own surfaces (exit 2, HTTP 400).
func (bo BatchOptions) Validate() error {
	switch bo.Backend {
	case backend.CI, backend.Andersen, backend.Steensgaard:
		return nil
	case backend.CS:
		return &backend.KindError{Kind: bo.Backend, Why: "the context-sensitive analysis is BatchOptions.WithCS, not a constraint backend"}
	default:
		return &backend.KindError{Kind: bo.Backend, Why: "unknown backend"}
	}
}

// Run loads and analyzes one corpus program. withCS additionally runs
// the context-sensitive analysis (with the §4.2 optimizations). The
// whole unit runs behind a panic guard: any failure is recorded in
// ProgramResult.Err (and mirrored in the returned error), never
// propagated as a crash.
func Run(name string, withCS bool, opts vdg.Options) (*ProgramResult, error) {
	r, _ := runUnit(context.Background(), name, BatchOptions{WithCS: withCS, Opts: opts})
	return r, r.Err
}

// runUnit analyzes one unit under the batch configuration. It is the
// worker body of RunBatch: everything it touches — universe, VDG,
// solver state, budget gates — is created here and owned by this unit
// alone; the one shared object is the lock-free metric registry. The
// returned span is detached (nil when untraced): it is built entirely
// on this goroutine and handed to the caller to attach in canonical
// order.
func runUnit(ctx context.Context, name string, bo BatchOptions) (*ProgramResult, *obs.Span) {
	r := &ProgramResult{Name: name}
	sp := bo.Trace.Detached("unit", obs.Str("unit", name))
	if w, ok := obs.Worker(ctx); ok {
		sp.SetAttr(obs.Int("worker", w))
	}
	t0 := time.Now()
	r.Err = limits.Guard("analyze "+name, func() error {
		u, err := corpus.LoadSpan(name, bo.Opts, sp)
		if err != nil {
			return err
		}
		r.Unit = u

		// One solve runs CI and, with WithCS, CS. A CS stop is reported
		// last, after the queries and the constraint backend, so a
		// capped unit still carries them.
		budget := capSteps(bo.Budget)
		kind := backend.CI
		if bo.WithCS {
			kind = backend.CS
		}
		o := solve.Solve(kind, u.Graph, budget, sp)
		r.CI, r.CISets, r.CITime = o.CI, o.CI.Sets, o.Attempts[0].Wall
		if o.Tier == solve.PartialCI {
			r.Stopped = o.Stopped
			return fmt.Errorf("%s: %w", name, o.Err())
		}

		if bo.Queries {
			if err := runQueries(r, u, bo, sp); err != nil {
				return err
			}
		}

		if bo.Backend != backend.CI {
			be := solve.Solve(bo.Backend, u.Graph, budget, sp)
			r.BE, r.BEKind, r.BETime = be.CI, bo.Backend, be.Attempts[0].Wall
			if be.Stopped != nil {
				r.Stopped = be.Stopped
				return fmt.Errorf("%s: %w", name, be.Err())
			}
		}

		if bo.WithCS {
			r.CSTime = o.Attempts[1].Wall
			if o.CS == nil {
				r.Capped = true
				r.Stopped = o.Stopped
				return fmt.Errorf("%s: %w", name, o.Err())
			}
			r.CS, r.CSSets = o.CS, o.Sets
		}
		return nil
	})
	r.WallTime = time.Since(t0)
	recordUnit(bo.Metrics, r)
	sp.End()
	return r, sp
}

// RunBatch analyzes the named corpus programs on a bounded worker pool
// and returns one result per name, in input order. The merge order —
// not the completion order — determines every figure, golden, and JSON
// rendering, so the output is byte-identical at any Jobs width,
// including the sequential Jobs=1 run.
//
// A failing unit does not stop the batch: its ProgramResult carries the
// error and the remaining programs still run. A unit that trips the
// budget records the violation like any other failure; only an expired
// Budget.Ctx skips the units that have not started (their results carry
// the skip). The returned error is non-nil only when every unit failed.
func RunBatch(names []string, bo BatchOptions) ([]*ProgramResult, error) {
	if err := bo.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	ctx := bo.Budget.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	batch := bo.Trace.StartSpan("batch", obs.Int("units", len(names)))
	rs := make([]*ProgramResult, len(names))
	spans := make([]*obs.Span, len(names))
	errs := sched.Pool{Jobs: bo.Jobs, Obs: bo.Metrics}.Map(ctx, len(names), func(ctx context.Context, i int) error {
		r, sp := runUnit(ctx, names[i], bo)
		rs[i] = r
		spans[i] = sp
		return r.Err
	})
	// The merge barrier has passed: adopt the unit spans in input order,
	// the same canonical order the results render in, so the trace tree
	// is identical at every Jobs width even though spans finished in
	// completion order.
	for _, sp := range spans {
		batch.Attach(sp)
	}
	batch.End()

	failures := 0
	for i, name := range names {
		if rs[i] == nil {
			// The pool skipped (expired deadline) or guarded a panic that
			// escaped runUnit's own guard; keep the slot with the error.
			rs[i] = &ProgramResult{Name: name, Err: errs[i]}
		}
		if rs[i].Failed() {
			failures++
		}
	}
	if failures == len(rs) && failures > 0 {
		return rs, fmt.Errorf("experiments: all %d corpus programs failed", failures)
	}
	return rs, nil
}

// RunAll analyzes the whole corpus sequentially (the reference
// execution: RunBatch at Jobs=1 over the canonical corpus order). A
// failing unit does not stop the batch: its ProgramResult carries the
// error and the remaining programs still run. The returned error is
// non-nil only when every unit failed.
func RunAll(withCS bool, opts vdg.Options) ([]*ProgramResult, error) {
	return RunBatch(corpus.Names(), BatchOptions{WithCS: withCS, Opts: opts, Jobs: 1})
}

// TotalWork sums the per-unit wall times of a batch: the time a
// sequential run would have spent analyzing. Dividing by the batch's
// actual wall clock gives the parallel speedup.
func TotalWork(rs []*ProgramResult) time.Duration {
	var total time.Duration
	for _, r := range rs {
		total += r.WallTime
	}
	return total
}

// Timing renders the per-unit wall times and the aggregate parallel
// speedup of a batch that took wall to run at the given worker count.
// Capped units are marked so a bounded CS run cannot read as converged.
func Timing(w io.Writer, rs []*ProgramResult, wall time.Duration, jobs int) {
	headers := []string{"name", "wall time", "status"}
	var rows [][]string
	for _, r := range rs {
		status := "ok"
		switch {
		case r.Capped:
			status = "capped (CS did not converge)"
		case r.Failed():
			status = "failed"
		}
		rows = append(rows, []string{r.Name, r.WallTime.Round(time.Microsecond).String(), status})
	}
	report.Table(w, fmt.Sprintf("Per-unit wall time (-jobs=%d)", jobs), headers, rows)
	work := TotalWork(rs)
	speedup := 1.0
	if wall > 0 {
		speedup = float64(work) / float64(wall)
	}
	fmt.Fprintf(w, "\nbatch: %d units in %s wall, %s aggregate work, %.2fx speedup at -jobs=%d\n",
		len(rs), wall.Round(time.Microsecond), work.Round(time.Microsecond), speedup, jobs)
}

// Failures lists the failed units of a batch.
func Failures(rs []*ProgramResult) []*ProgramResult {
	var out []*ProgramResult
	for _, r := range rs {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// Names extracts the program names of a result list.
func Names(rs []*ProgramResult) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Name)
	}
	return out
}

// ok filters a batch down to the units that produced results (figures
// render what succeeded; Failures reports the rest).
func ok(rs []*ProgramResult) []*ProgramResult {
	out := make([]*ProgramResult, 0, len(rs))
	for _, r := range rs {
		if !r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// Figure2 renders benchmark sizes.
func Figure2(w io.Writer, rs []*ProgramResult) {
	var rows []stats.SizeStats
	for _, r := range ok(rs) {
		rows = append(rows, stats.Sizes(r.Name, r.Unit.SourceLines, r.Unit.Graph))
	}
	report.Figure2(w, rows)
}

// Figure3 renders the CI pair census.
func Figure3(w io.Writer, rs []*ProgramResult) {
	rs = ok(rs)
	var rows []stats.PairCensus
	for _, r := range rs {
		rows = append(rows, stats.Census(r.Unit.Graph, r.CISets))
	}
	report.Figure3(w, Names(rs), rows)
}

// Figure4 renders the indirect read/write statistics under CI.
func Figure4(w io.Writer, rs []*ProgramResult) {
	rs = ok(rs)
	var rows []stats.IndirectOps
	for _, r := range rs {
		rows = append(rows, stats.CountIndirect(r.Unit.Graph, r.CISets))
	}
	report.Figure4(w, Names(rs), rows)
}

// Figure6 renders the CS census with spurious percentages, plus the
// headline check that indirect-operation results are identical.
func Figure6(w io.Writer, rs []*ProgramResult) {
	rs = ok(rs)
	var rows []stats.PairCensus
	var ciTotals []int
	for _, r := range rs {
		rows = append(rows, stats.Census(r.Unit.Graph, r.CSSets))
		ciTotals = append(ciTotals, stats.Census(r.Unit.Graph, r.CISets).Total)
	}
	report.Figure6(w, Names(rs), rows, ciTotals)

	fmt.Fprintln(w)
	clean := true
	for _, r := range rs {
		diff := stats.IndirectDiff(r.Unit.Graph, r.CISets, r.CSSets)
		if len(diff) > 0 {
			clean = false
			fmt.Fprintf(w, "  %s: %d indirect operations differ between CI and CS\n", r.Name, len(diff))
		}
	}
	if clean {
		fmt.Fprintln(w, "Headline check: CI and CS referent sets are IDENTICAL at every")
		fmt.Fprintln(w, "indirect memory operation on every benchmark (paper §4.3).")
	}
}

// Figure7 renders the pooled path × referent breakdowns for all CI
// pairs and for spurious pairs only.
func Figure7(w io.Writer, rs []*ProgramResult) {
	all := stats.NewTypeMatrix()
	spur := stats.NewTypeMatrix()
	for _, r := range ok(rs) {
		all.Merge(stats.BreakdownAll(r.Unit.Graph, r.CISets))
		spur.Merge(stats.BreakdownSpurious(stats.SpuriousPairs(r.Unit.Graph, r.CISets, r.CSSets)))
	}
	report.Figure7(w, all, spur)
}

// Costs renders the CI vs CS work comparison (§3.2 / §4.2: CS runs
// ~1.1x the flow-ins but up to ~100x the flow-outs and is orders of
// magnitude slower on the larger programs).
func Costs(w io.Writer, rs []*ProgramResult) {
	headers := []string{"name", "CI flow-ins", "CS flow-ins", "ratio", "CI flow-outs", "CS flow-outs", "ratio", "CI time", "CS time", "slowdown"}
	var rows [][]string
	for _, r := range ok(rs) {
		if r.CS == nil {
			continue
		}
		rows = append(rows, []string{
			r.Name,
			report.Itoa(r.CI.Metrics.FlowIns), report.Itoa(r.CS.Metrics.FlowIns),
			report.F2(ratio(r.CS.Metrics.FlowIns, r.CI.Metrics.FlowIns)),
			report.Itoa(r.CI.Metrics.FlowOuts), report.Itoa(r.CS.Metrics.FlowOuts),
			report.F2(ratio(r.CS.Metrics.FlowOuts, r.CI.Metrics.FlowOuts)),
			r.CITime.Round(time.Microsecond).String(),
			r.CSTime.Round(time.Microsecond).String(),
			report.F2(float64(r.CSTime) / float64(maxDuration(r.CITime, time.Microsecond))),
		})
	}
	report.Table(w, "Analysis cost: context-insensitive vs context-sensitive (paper §3.2/§4.2)", headers, rows)
}

// EngineStats renders the solver engine counters of a batch, one row
// per analysis run. Meets, the subsumption counters, and peak worklist
// depth measure the solver's schedule rather than its answer, so a
// change to the engine may move them with every set unchanged; that is
// why this table (and the matching JSON block) is opt-in rather than
// part of the golden output.
func EngineStats(w io.Writer, rs []*ProgramResult) {
	headers := []string{"name", "analysis", "steps", "meets", "pair inserts", "subsume hits", "subsume drops", "enqueued", "peak depth"}
	var rows [][]string
	row := func(name, analysis string, st solver.Stats) []string {
		return []string{
			name, analysis,
			report.Itoa(st.Steps), report.Itoa(st.Meets), report.Itoa(st.PairInserts),
			report.Itoa(st.SubsumeHits), report.Itoa(st.SubsumeDrops),
			report.Itoa(st.Enqueued), report.Itoa(st.PeakDepth),
		}
	}
	for _, r := range ok(rs) {
		if r.CI != nil {
			rows = append(rows, row(r.Name, "CI", r.CI.Engine))
		}
		if r.CS != nil {
			rows = append(rows, row(r.Name, "CS", r.CS.Engine))
		}
		if r.BE != nil {
			rows = append(rows, row(r.Name, r.BEKind.String(), r.BE.Engine))
		}
	}
	report.Table(w, "Solver engine counters", headers, rows)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// WriteAll renders every figure and the cost table.
func WriteAll(w io.Writer, rs []*ProgramResult) {
	Figure2(w, rs)
	fmt.Fprintln(w)
	Figure3(w, rs)
	fmt.Fprintln(w)
	Figure4(w, rs)
	fmt.Fprintln(w)
	Figure6(w, rs)
	fmt.Fprintln(w)
	Figure7(w, rs)
	fmt.Fprintln(w)
	Costs(w, rs)
}
