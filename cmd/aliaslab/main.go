// Command aliaslab analyzes mini-C source files with the points-to
// analyses of the study and prints the results.
//
// Usage:
//
//	aliaslab [flags] file.c
//	aliaslab [flags] a.c b.c c.c     # multi-file batch, parallel via -jobs
//	aliaslab -corpus part            # analyze an embedded benchmark
//	aliaslab -vet file.c             # run the pointer-bug checkers
//	aliaslab -query 'mayalias(p,q)' file.c   # demand-driven queries
//
// The same analyses are a library in package aliaslab; the programs
// under examples/ use it and nothing else.
//
// Flags select the analysis (-backend
// ci|cs|andersen|steensgaard|baseline: a point on the precision/cost
// frontier, or the program-wide baseline), what to print (-print
// pointsto|indirect|modref|callgraph|sizes|json), ablations, and the
// checker mode (-vet, filtered with -checkers and rendered per
// -format). -query answers ';'-separated mayalias/pointsto queries by
// solving only the demand slice that can influence the queried
// expressions instead of the whole-program fixpoint (same -format
// text|json switch; answers are byte-identical to the exhaustive
// solve's). -stats prints the solver engine's work counters on stderr.
//
// With several files, each is an independent translation unit: units
// analyze concurrently on a bounded worker pool (-jobs, default
// GOMAXPROCS) and render in argument order under a "== file ==" header,
// so the output is identical at any -jobs value. The exit status is the
// highest per-file status.
//
// Resource governance: -timeout, -max-steps, and -max-pairs bound the
// run. The step and pair caps apply to each solve attempt separately,
// in multi-file mode to each file's attempts too, so a file's output
// does not depend on the other files or on -jobs; the -timeout
// deadline spans the whole run. A context-sensitive analysis that
// blows its budget degrades gracefully to the context-insensitive
// answer instead of failing; degraded output is labeled and explained
// on stderr.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"aliaslab/internal/backend"
	"aliaslab/internal/checkers"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/modref"
	"aliaslab/internal/obs"
	"aliaslab/internal/query"
	"aliaslab/internal/report"
	"aliaslab/internal/sched"
	"aliaslab/internal/solve"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the per-unit part of the CLI configuration: everything
// analyzeUnit needs once a unit is loaded.
type config struct {
	backend  string
	print    string
	fn       string
	vet      bool
	checkers string
	format   string
	query    string
	budget   limits.Budget
	stats    bool

	// span is the unit's trace span (nil when untraced); analyzeUnit
	// records its solve/checkers/report phases as children.
	span *obs.Span
}

// run is the whole CLI behind a testable seam: it parses args, executes
// one command, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aliaslab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	backendFlag := fs.String("backend", "ci", "points-to analysis: ci, cs, andersen, steensgaard, or baseline")
	print_ := fs.String("print", "indirect", "what to print: pointsto, indirect, modref, callgraph, sizes, json, dot")
	fn := fs.String("fn", "main", "function to render with -print dot")
	corpusName := fs.String("corpus", "", "analyze an embedded corpus program instead of a file")
	jobs := fs.Int("jobs", 0, "files analyzed concurrently in multi-file mode (0 = GOMAXPROCS)")
	noSSA := fs.Bool("nossa", false, "ablation: keep non-addressed scalars in the store")
	singleHeap := fs.Bool("singleheap", false, "ablation: one heap base location for all allocation sites")
	recursiveSingle := fs.Bool("recursivesingle", false, "ablation: single-instance locations for address-taken locals of recursive procedures")
	maxSteps := fs.Int("max-steps", 50_000_000, "per-attempt cap on transfer-function applications (0 = unlimited)")
	maxPairs := fs.Int("max-pairs", 0, "cap on materialized points-to pairs per attempt (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole analysis, e.g. 30s (0 = none)")
	statsFlag := fs.Bool("stats", false, "print solver engine counters to stderr after each analysis")
	vet := fs.Bool("vet", false, "run the pointer-bug checkers instead of printing analysis results")
	checkersFlag := fs.String("checkers", "", "comma-separated checker IDs for -vet (default: all; see -vet -checkers help)")
	queryFlag := fs.String("query", "", "answer ';'-separated demand queries, e.g. 'mayalias(p,q); pointsto(s.next)', instead of printing analysis results")
	format := fs.String("format", "text", "-vet/-query output format: text or json")
	traceOn := fs.Bool("trace", false, "record phase spans and print the span tree to stderr")
	traceOut := fs.String("trace-out", "", "write the phase spans as a Chrome trace_event file (implies -trace)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile (with per-phase pprof labels) to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// -backend names a solver backend or the baseline; an empty value
	// is the ci default.
	if *backendFlag != "baseline" {
		kind, err := backend.ParseKind(*backendFlag)
		if err != nil {
			fmt.Fprintf(stderr, "aliaslab: unknown backend %q (want ci, cs, andersen, steensgaard, or baseline)\n", *backendFlag)
			fmt.Fprintln(stderr, "usage: aliaslab [flags] file.c ...  (or -corpus <name>)")
			return 2
		}
		*backendFlag = kind.String()
	}

	// Demand queries solve the ci analysis on a slice; mixing them with
	// another backend or the checkers would promise a result the query
	// engine does not compute.
	if *queryFlag != "" {
		if *backendFlag != "ci" {
			fmt.Fprintf(stderr, "aliaslab: -query answers on the ci analysis, not %s\n", *backendFlag)
			return 2
		}
		if *vet {
			fmt.Fprintln(stderr, "aliaslab: -query does not combine with -vet")
			return 2
		}
		if _, err := query.ParseAll(*queryFlag); err != nil {
			fmt.Fprintln(stderr, "aliaslab:", err)
			return 2
		}
	}

	if *vet && *checkersFlag == "help" {
		for _, c := range checkers.All {
			fmt.Fprintf(stdout, "%-10s %s\n", c.ID, c.Doc)
		}
		return 0
	}

	obsRun, err := obs.Start(obs.RunFlags{Trace: *traceOn, TraceOut: *traceOut,
		CPUProfile: *cpuprofile, MemProfile: *memprofile})
	if err != nil {
		fmt.Fprintln(stderr, "aliaslab:", err)
		return 1
	}
	tr := obsRun.Tracer

	opts := vdg.Options{
		NoSSA:                 *noSSA,
		SingleHeapBase:        *singleHeap,
		RecursiveLocalsSingle: *recursiveSingle,
		Diagnostics:           *vet,
	}

	// Assemble the resource budget of all analysis modes. The deadline
	// spans the whole run; step/pair caps apply per attempt.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	budget := limits.Budget{Ctx: ctx, MaxSteps: *maxSteps, MaxPairs: *maxPairs}

	cfg := config{
		backend:  *backendFlag,
		print:    *print_,
		fn:       *fn,
		vet:      *vet,
		checkers: *checkersFlag,
		format:   *format,
		query:    *queryFlag,
		budget:   budget,
		stats:    *statsFlag,
	}

	code := func() int {
		if *corpusName != "" || fs.NArg() == 1 {
			// Single-unit mode: exactly the classic CLI, straight to the
			// real streams.
			unitName := *corpusName
			if unitName == "" {
				unitName = fs.Arg(0)
			}
			sp := tr.StartSpan("unit", obs.Str("unit", unitName))
			defer sp.End()
			cfg.span = sp
			var u *driver.Unit
			var err error
			if *corpusName != "" {
				u, err = corpus.LoadSpan(*corpusName, opts, sp)
			} else {
				u, err = driver.LoadFileSpan(fs.Arg(0), opts, sp)
			}
			if err != nil {
				fmt.Fprintln(stderr, "aliaslab:", err)
				return 1
			}
			return analyzeUnit(u, cfg, stdout, stderr)
		}
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "usage: aliaslab [flags] file.c ...  (or -corpus <name>)")
			return 2
		}
		return runMulti(fs.Args(), opts, cfg, *jobs, tr, stdout, stderr)
	}()

	if err := obsRun.Finish(stderr); err != nil {
		fmt.Fprintln(stderr, "aliaslab:", err)
		return 1
	}
	return code
}

// runMulti analyzes several files as independent units on the worker
// pool and renders them in argument order. Every unit buffers its own
// output, so interleaved completion cannot scramble the rendering: the
// bytes are identical at any -jobs value.
func runMulti(files []string, opts vdg.Options, cfg config, jobs int, tr *obs.Tracer, stdout, stderr io.Writer) int {
	type result struct {
		out, errOut bytes.Buffer
		code        int
	}
	batch := tr.StartSpan("batch", obs.Int("units", len(files)))
	results := make([]result, len(files))
	spans := make([]*obs.Span, len(files))
	errs := sched.Pool{Jobs: jobs}.Map(cfg.budget.Ctx, len(files), func(_ context.Context, i int) error {
		r := &results[i]
		// Detached per-unit span, built entirely on this worker and
		// adopted by the batch root in argument order after the pool
		// drains — the same discipline that keeps the buffered output
		// deterministic.
		sp := tr.Detached("unit", obs.Str("unit", files[i]))
		spans[i] = sp
		ucfg := cfg
		ucfg.span = sp
		defer sp.End()
		u, err := driver.LoadFileSpan(files[i], opts, sp)
		if err != nil {
			fmt.Fprintln(&r.errOut, "aliaslab:", err)
			r.code = 1
			return nil
		}
		r.code = analyzeUnit(u, ucfg, &r.out, &r.errOut)
		return nil
	})
	for _, sp := range spans {
		batch.Attach(sp)
	}
	batch.End()

	worst := 0
	for i := range results {
		r := &results[i]
		if errs[i] != nil && r.code == 0 {
			// A panic the unit guard missed, or a skipped slot after
			// cancellation.
			fmt.Fprintln(&r.errOut, "aliaslab:", errs[i])
			r.code = 1
		}
		fmt.Fprintf(stdout, "== %s ==\n", files[i])
		io.Copy(stdout, &r.out)
		if r.errOut.Len() > 0 {
			fmt.Fprintf(stderr, "== %s ==\n", files[i])
			io.Copy(stderr, &r.errOut)
		}
		if r.code > worst {
			worst = r.code
		}
	}
	return worst
}

// analyzeUnit executes the configured command on one loaded unit.
func analyzeUnit(u *driver.Unit, cfg config, stdout, stderr io.Writer) int {
	if cfg.vet {
		return runVet(u, cfg, stdout, stderr)
	}
	if cfg.query != "" {
		return runQuery(u, cfg, stdout, stderr)
	}

	// Run the selected analysis under the budget, always materializing a
	// per-output pair map plus a CI result for clients that need the
	// call graph. Blowing the budget degrades (CS falls back to CI)
	// rather than failing; the label carries the tier so the output
	// cannot be mistaken for the exact answer.
	var o *solve.Outcome
	var sets map[*vdg.Output]*core.PairSet
	var label string
	unsound := false
	if cfg.backend == "baseline" {
		// The CI solve feeds -print modref|callgraph. The Weihl baseline
		// (one program-wide store, no kills) computes exactly Andersen's
		// per-output sets (DESIGN §12), so Andersen serves it under the
		// historical label. Neither has a ladder rung to fall back on.
		o = solve.Solve(backend.CI, u.Graph, cfg.budget, cfg.span)
		printAttempts(stderr, cfg, o)
		sp := cfg.span.Child("solve-baseline")
		base := solve.Solve(backend.Andersen, u.Graph, cfg.budget, sp)
		sp.End()
		sets, label = base.Sets, "program-wide (Weihl baseline)"
		for _, b := range []*solve.Outcome{o, base} {
			if b.Stopped != nil {
				unsound = true
				warnStopped(stderr, b)
			}
		}
	} else {
		kind, _ := backend.ParseKind(cfg.backend) // run rejected unknown names
		o = solve.Solve(kind, u.Graph, cfg.budget, cfg.span)
		printAttempts(stderr, cfg, o)
		for _, n := range o.Notes {
			fmt.Fprintln(stderr, "aliaslab:", n)
		}
		sets, label, unsound = o.Sets, o.Label, !o.Sound
		if o.Tier == solve.PartialCI {
			fmt.Fprintln(stderr, "aliaslab: warning: partial context-insensitive fixpoint; the result under-approximates and is NOT a sound may-alias answer")
		} else if unsound {
			warnStopped(stderr, o)
		}
	}

	rsp := cfg.span.Child("report", obs.Str("print", cfg.print))
	defer rsp.End()
	switch cfg.print {
	case "sizes":
		s := stats.Sizes(u.Name, u.SourceLines, u.Graph)
		fmt.Fprintf(stdout, "%s: %d lines, %d VDG nodes, %d alias-related outputs\n",
			s.Name, s.Lines, s.Nodes, s.AliasOutputs)
	case "pointsto":
		printPointsTo(stdout, u, sets, label)
	case "indirect":
		printIndirect(stdout, u, sets, label)
	case "json":
		if err := report.EncodeJSON(stdout, report.NewAnalysis(u.Name, u.Graph, sets, label)); err != nil {
			fmt.Fprintln(stderr, "aliaslab:", err)
			return 1
		}
	case "modref":
		printModRef(stdout, u, o.CI)
	case "callgraph":
		printCallGraph(stdout, u, o.CI)
	case "dot":
		fg := u.Graph.FuncOf[u.Prog.FuncMap[cfg.fn]]
		if fg == nil {
			fmt.Fprintf(stderr, "aliaslab: no function %q\n", cfg.fn)
			return 1
		}
		vdg.WriteDot(stdout, fg)
	default:
		fmt.Fprintln(stderr, "aliaslab: unknown -print mode", cfg.print)
		return 2
	}
	if unsound {
		return 1
	}
	return 0
}

// runVet executes the checker suite over an instrumented unit and
// renders the diagnostics. Exit status 1 signals findings, 0 a clean
// program (mirroring `go vet`), and 3 a degraded run: the points-to
// analysis hit its budget, so the findings are best-effort and a clean
// report does not certify the program.
func runVet(u *driver.Unit, cfg config, stdout, stderr io.Writer) int {
	var ids []string
	if cfg.checkers != "" {
		for _, id := range strings.Split(cfg.checkers, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	sel, err := checkers.Select(ids)
	if err != nil {
		fmt.Fprintln(stderr, "aliaslab:", err)
		return 2
	}
	// The checkers interpret any CI-shaped points-to solution, so the
	// flow-insensitive backends plug straight in (coarser referent sets
	// mean more may-findings, never fewer).
	kind, err := solve.VetKind(cfg.backend)
	if err != nil {
		fmt.Fprintln(stderr, "aliaslab: -"+err.Error())
		return 2
	}
	o := solve.Solve(kind, u.Graph, cfg.budget, cfg.span)
	printAttempts(stderr, cfg, o)
	sp := cfg.span.Child("checkers")
	diags := checkers.Run(checkers.NewContext(u.Graph, o.CI), sel)
	sp.SetAttr(obs.Int("diags", len(diags)))
	sp.End()
	degradedReason := ""
	if o.Stopped != nil {
		degradedReason = o.Stopped.Error()
		fmt.Fprintf(stderr, "aliaslab: warning: vet ran on a partial points-to solution (%s); findings may be missing\n", degradedReason)
	}
	rsp := cfg.span.Child("report", obs.Str("format", cfg.format))
	defer rsp.End()
	switch cfg.format {
	case "text":
		report.WriteDiags(stdout, diags)
	case "json":
		// The JSON shape only changes when degraded, so existing
		// consumers of the plain array are unaffected by healthy runs.
		var env *report.Envelope
		if degradedReason != "" {
			e := report.DegradedEnvelope(degradedReason, "")
			env = &e
		}
		if err := report.WriteDiagsEnvelope(stdout, diags, env); err != nil {
			fmt.Fprintln(stderr, "aliaslab:", err)
			return 1
		}
	default:
		fmt.Fprintln(stderr, "aliaslab: unknown -format", cfg.format)
		return 2
	}
	if degradedReason != "" {
		return 3
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// runQuery answers the configured demand queries on one unit. Exit
// status 0 means every query answered, 1 an unresolvable expression,
// and 3 a degraded run: the demand solve hit its budget, so an
// "unknown" verdict stands in for an answer the slice could not
// finish. The span records one child per query so traces show slice
// reuse (memo hits have no solve child work).
func runQuery(u *driver.Unit, cfg config, stdout, stderr io.Writer) int {
	qs, err := query.ParseAll(cfg.query)
	if err != nil {
		fmt.Fprintln(stderr, "aliaslab:", err)
		return 2
	}
	e := query.New(u.Graph, query.Options{Budget: cfg.budget})
	answers := make([]query.Answer, 0, len(qs))
	degraded := false
	for _, q := range qs {
		sp := cfg.span.Child("query", obs.Str("query", q.String()))
		ans, err := e.Query(q)
		sp.End()
		if err != nil {
			fmt.Fprintln(stderr, "aliaslab:", err)
			return 1
		}
		if ans.Degraded() {
			degraded = true
		}
		if cfg.stats {
			fmt.Fprintf(stderr, "aliaslab: query %s: slice %d/%d outputs, %d/%d procedures, %d steps, memo hit %v\n",
				ans.Query, ans.Slice.Outputs, ans.Slice.TotalOutputs,
				ans.Slice.Procedures, ans.Slice.TotalProcedures, ans.Slice.Steps, ans.Slice.MemoHit)
		}
		answers = append(answers, ans)
	}
	switch cfg.format {
	case "text":
		for _, a := range answers {
			fmt.Fprintln(stdout, renderAnswer(a))
		}
	case "json":
		if err := report.EncodeJSON(stdout, answers); err != nil {
			fmt.Fprintln(stderr, "aliaslab:", err)
			return 1
		}
	default:
		fmt.Fprintln(stderr, "aliaslab: unknown -format", cfg.format)
		return 2
	}
	if degraded {
		fmt.Fprintln(stderr, "aliaslab: warning: a demand solve stopped on its budget; unknown verdicts are degraded answers, not proofs")
		return 3
	}
	return 0
}

// renderAnswer is the one-line text form of a query answer.
func renderAnswer(a query.Answer) string {
	switch a.Verdict {
	case "yes":
		return fmt.Sprintf("%s: yes (witness %s)", a.Query, a.Witness)
	case "no":
		return fmt.Sprintf("%s: no", a.Query)
	case "ok":
		if len(a.PointsTo) == 0 {
			return fmt.Sprintf("%s: (empty)", a.Query)
		}
		return fmt.Sprintf("%s: %s", a.Query, strings.Join(a.PointsTo, ", "))
	default:
		return fmt.Sprintf("%s: unknown (%s)", a.Query, a.Reason)
	}
}

// printAttempts renders, under -stats, each solve attempt's solver
// counters on stderr (it is diagnostics, not part of the result
// rendering).
func printAttempts(w io.Writer, cfg config, o *solve.Outcome) {
	if !cfg.stats {
		return
	}
	for _, a := range o.Attempts {
		st := a.Stats
		fmt.Fprintf(w, "aliaslab: %s engine: steps %d, meets %d, pair inserts %d, subsume hits %d, subsume drops %d, enqueued %d, peak depth %d",
			a.Kind, st.Steps, st.Meets, st.PairInserts, st.SubsumeHits, st.SubsumeDrops, st.Enqueued, st.PeakDepth)
		if st.Constraints > 0 {
			// Constraint-backend runs carry their own counters; CI/CS lines
			// stay byte-identical to the pre-backend output.
			fmt.Fprintf(w, ", constraints %d, edges %d, sccs collapsed %d, unions %d",
				st.Constraints, st.EdgesAdded, st.SCCsCollapsed, st.Unions)
		}
		fmt.Fprintln(w)
	}
}

// warnStopped reports a solve that stopped on its budget with no
// ladder rung to answer for it.
func warnStopped(w io.Writer, o *solve.Outcome) {
	fmt.Fprintf(w, "aliaslab: warning: %s solve stopped early (%v); the partial result under-approximates and is NOT a sound may-alias answer\n", o.Kind, o.Stopped)
}

// printPointsTo dumps the final store at main's return: the pairs a
// human usually wants to see.
func printPointsTo(w io.Writer, u *driver.Unit, sets map[*vdg.Output]*core.PairSet, label string) {
	fmt.Fprintf(w, "%s points-to pairs in the store at main's return:\n", label)
	if u.Graph.Entry == nil || u.Graph.Entry.ReturnStore() == nil {
		fmt.Fprintln(w, "  (no main return store)")
		return
	}
	store := report.StoreAtExit(u.Graph, sets)
	if len(store) == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	for _, p := range store {
		fmt.Fprintf(w, "  %s -> %s\n", p.Path, p.Referent)
	}
	census := stats.Census(u.Graph, sets)
	fmt.Fprintf(w, "total pairs over all outputs: %d (pointer %d, function %d, aggregate %d, store %d)\n",
		census.Total, census.Pointer, census.Function, census.Aggregate, census.Store)
}

// printIndirect lists every indirect memory operation with its referents.
func printIndirect(w io.Writer, u *driver.Unit, sets map[*vdg.Output]*core.PairSet, label string) {
	fmt.Fprintf(w, "%s referents of indirect memory operations:\n", label)
	for _, op := range stats.ListIndirect(u.Graph, u.Name, sets) {
		fmt.Fprintf(w, "  %-5s %-18s in %-12s -> %v\n", op.Kind, op.Pos, op.Function, op.Referents)
	}
	ops := stats.CountIndirect(u.Graph, sets)
	fmt.Fprintf(w, "reads: %d ops avg %.2f max %d; writes: %d ops avg %.2f max %d\n",
		ops.Reads.Total, ops.Reads.Avg(), ops.Reads.Max,
		ops.Writes.Total, ops.Writes.Avg(), ops.Writes.Max)
}

// printModRef renders the transitive mod/ref sets per function, each
// list in the solver's path-intern order (pinned by golden files).
func printModRef(w io.Writer, u *driver.Unit, ci *core.Result) {
	info := modref.Compute(ci)
	for _, fg := range u.Graph.Funcs {
		if fg.Fn.Body == nil {
			continue
		}
		fmt.Fprintf(w, "%s:\n", fg.Fn.Name)
		var mods, refs []string
		for _, p := range info.Mod[fg].Sorted() {
			mods = append(mods, p.String())
		}
		for _, p := range info.Ref[fg].Sorted() {
			refs = append(refs, p.String())
		}
		fmt.Fprintf(w, "  mod: %v\n", mods)
		fmt.Fprintf(w, "  ref: %v\n", refs)
	}
}

// printCallGraph renders discovered call edges and the §5.1.2 stats.
func printCallGraph(w io.Writer, u *driver.Unit, ci *core.Result) {
	for _, fg := range u.Graph.Funcs {
		for _, call := range fg.Calls {
			var names []string
			for _, callee := range ci.Callees[call] {
				names = append(names, callee.Fn.Name)
			}
			fmt.Fprintf(w, "  %s at %s -> %v\n", fg.Fn.Name, call.Pos.In(u.Name), names)
		}
	}
	cg := stats.CallGraph(ci)
	fmt.Fprintf(w, "%d called procedures, %.1f avg callers, %d single-caller (%s)\n",
		cg.Procedures, cg.AvgCallers, cg.SingleCaller, report.Pct(100*float64(cg.SingleCaller)/float64(max(cg.Procedures, 1)))+"%")
}
