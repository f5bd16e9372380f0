// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Run with: go test -bench=. -benchmem
//
// Each BenchmarkFigureN measures the work needed to reproduce that
// figure over the whole 13-program corpus; the -v companion tests in
// internal/experiments render the actual tables. Custom metrics report
// the figure's headline quantities so a bench run doubles as a
// regression check on the result *shape*.
package aliaslab_test

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"aliaslab/internal/ast"
	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/checkers"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/driver"
	"aliaslab/internal/experiments"
	"aliaslab/internal/lexer"
	"aliaslab/internal/modref"
	"aliaslab/internal/parser"
	"aliaslab/internal/sema"
	"aliaslab/internal/stats"
	"aliaslab/internal/token"
	"aliaslab/internal/vdg"
)

// loadAll builds the corpus once per bench invocation.
func loadAll(b *testing.B, opts vdg.Options) []*driver.Unit {
	b.Helper()
	var units []*driver.Unit
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, u)
	}
	return units
}

// BenchmarkFigure2 measures front-end cost (parse, check, VDG build)
// and reports the corpus-wide size statistics of Figure 2.
func BenchmarkFigure2(b *testing.B) {
	var nodes, aliasOuts int
	for i := 0; i < b.N; i++ {
		nodes, aliasOuts = 0, 0
		for _, name := range corpus.Names() {
			u, err := corpus.Load(name, vdg.Options{})
			if err != nil {
				b.Fatal(err)
			}
			s := stats.Sizes(name, u.SourceLines, u.Graph)
			nodes += s.Nodes
			aliasOuts += s.AliasOutputs
		}
	}
	b.ReportMetric(float64(nodes), "vdg-nodes")
	b.ReportMetric(float64(aliasOuts), "alias-outputs")
}

// BenchmarkFigure3 measures the context-insensitive analysis over the
// corpus and reports the total pair census.
func BenchmarkFigure3(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	b.ResetTimer()
	var total stats.PairCensus
	for i := 0; i < b.N; i++ {
		total = stats.PairCensus{}
		for _, u := range units {
			res := core.AnalyzeInsensitive(u.Graph)
			total.Add(stats.Census(u.Graph, res.Sets))
		}
	}
	b.ReportMetric(float64(total.Total), "ci-pairs")
	b.ReportMetric(float64(total.Store), "store-pairs")
}

// BenchmarkFigure4 measures CI analysis plus the indirect-operation
// statistics and reports the corpus-wide averages.
func BenchmarkFigure4(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	b.ResetTimer()
	var reads, writes stats.OpHistogram
	for i := 0; i < b.N; i++ {
		reads, writes = stats.OpHistogram{}, stats.OpHistogram{}
		for _, u := range units {
			res := core.AnalyzeInsensitive(u.Graph)
			io := stats.CountIndirect(u.Graph, res.Sets)
			reads.Total += io.Reads.Total
			reads.SumRefs += io.Reads.SumRefs
			writes.Total += io.Writes.Total
			writes.SumRefs += io.Writes.SumRefs
		}
	}
	b.ReportMetric(reads.Avg(), "avg-read-locs")
	b.ReportMetric(writes.Avg(), "avg-write-locs")
}

// BenchmarkFigure6 measures the full CI-vs-CS comparison (both analyses
// plus the spurious computation) and reports the headline quantities:
// percent spurious pairs and the number of indirect operations whose
// referents differ (the paper found zero).
func BenchmarkFigure6(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	b.ResetTimer()
	var ciTotal, csTotal, diffs int
	for i := 0; i < b.N; i++ {
		ciTotal, csTotal, diffs = 0, 0, 0
		for _, u := range units {
			ci := core.AnalyzeInsensitive(u.Graph)
			cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
			if cs.Aborted {
				b.Fatal("CS aborted")
			}
			csSets := cs.Strip()
			ciTotal += stats.Census(u.Graph, ci.Sets).Total
			csTotal += stats.Census(u.Graph, csSets).Total
			diffs += len(stats.IndirectDiff(u.Graph, ci.Sets, csSets))
		}
	}
	b.ReportMetric(100*float64(ciTotal-csTotal)/float64(ciTotal), "pct-spurious")
	b.ReportMetric(float64(diffs), "indirect-diffs")
}

// BenchmarkFigure7 measures the pooled type-breakdown computation and
// reports the share of spurious pairs that point at heap storage (the
// paper's dominant cell).
func BenchmarkFigure7(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	b.ResetTimer()
	var heapShare float64
	for i := 0; i < b.N; i++ {
		spur := stats.NewTypeMatrix()
		for _, u := range units {
			ci := core.AnalyzeInsensitive(u.Graph)
			cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
			spur.Merge(stats.BreakdownSpurious(stats.SpuriousPairs(u.Graph, ci.Sets, cs.Strip())))
		}
		heapShare = 0
		for _, pc := range stats.PathClasses {
			heapShare += spur.Percent(pc, stats.RefClasses[3])
		}
	}
	b.ReportMetric(heapShare, "pct-spurious-to-heap")
}

// BenchmarkCIvsCS reports the paper's §4.2 cost comparison as bench
// metrics: flow-in and flow-out ratios pooled over the corpus.
func BenchmarkCIvsCS(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	b.ResetTimer()
	var ciIns, csIns, ciOuts, csOuts int
	for i := 0; i < b.N; i++ {
		ciIns, csIns, ciOuts, csOuts = 0, 0, 0, 0
		for _, u := range units {
			ci := core.AnalyzeInsensitive(u.Graph)
			cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
			ciIns += ci.Engine.Steps
			csIns += cs.Engine.Steps
			ciOuts += ci.Engine.Meets
			csOuts += cs.Engine.Meets
		}
	}
	b.ReportMetric(float64(csIns)/float64(ciIns), "flowin-ratio")
	b.ReportMetric(float64(csOuts)/float64(ciOuts), "flowout-ratio")
}

// BenchmarkInsensitivePerProgram times the CI analysis alone on each
// benchmark (the paper's §3.2 "1 to 35 seconds" measurement).
func BenchmarkInsensitivePerProgram(b *testing.B) {
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.AnalyzeInsensitive(u.Graph)
			}
		})
	}
}

// BenchmarkSensitivePerProgram times the CS analysis (with the §4.2
// optimizations) on each benchmark.
func BenchmarkSensitivePerProgram(b *testing.B) {
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ci := core.AnalyzeInsensitive(u.Graph)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
				if cs.Aborted {
					b.Fatal("aborted")
				}
			}
		})
	}
}

// BenchmarkSolveCI and BenchmarkSolveCS are the solve microbenchmarks
// bench-compare tracks: the fixpoint loops alone (VDG construction held
// outside the timer) over the whole corpus.
func BenchmarkSolveCI(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = 0
		for _, u := range units {
			pairs += core.AnalyzeInsensitive(u.Graph).Engine.PairInserts
		}
	}
	b.ReportMetric(float64(pairs), "pair-inserts")
}

// BenchmarkSolveCIStoreHeavy times the CI solve on the units where the
// paper's Figure 1 copies the most store pairs along store chains: the
// 5 units with the most CI pair inserts among the first 200 of the
// seed-42 corpusgen sweep. Units are chosen by that count, so the
// benchmark follows the population rather than fixed names.
func BenchmarkSolveCIStoreHeavy(b *testing.B) {
	const population, keep = 200, 5
	type unit struct {
		g       *vdg.Graph
		inserts int
	}
	var units []unit
	for _, p := range corpusgen.Sweep(42, population) {
		u, err := p.Load(vdg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, unit{u.Graph, core.AnalyzeInsensitive(u.Graph).Engine.PairInserts})
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].inserts > units[j].inserts })
	units = append([]unit(nil), units[:keep]...) // let the other graphs go
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = 0
		for _, u := range units {
			pairs += core.AnalyzeInsensitive(u.g).Engine.PairInserts
		}
	}
	b.ReportMetric(float64(pairs), "pair-inserts")
}

func BenchmarkSolveCS(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	var cis []*core.Result
	for _, u := range units {
		cis = append(cis, core.AnalyzeInsensitive(u.Graph))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, u := range units {
			cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: cis[j], MaxSteps: experiments.MaxCSSteps})
			if cs.Aborted {
				b.Fatal("aborted")
			}
		}
	}
}

// copyStressSrc generates a program with n address-taken globals whose
// pointers flow into one variable through a chain of n conditional
// merges. Andersen's directed propagation inserts O(n²) pairs along the
// gamma chain; Steensgaard unifies the whole chain into one cell and
// inserts O(n). The corpus' small programs never reach the sizes where
// this separation dominates, so the solve benchmarks add this unit to
// measure the frontier's cost axis at scale.
func copyStressSrc(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "int g%d;\n", i)
	}
	sb.WriteString("int main(void) {\n\tint *q;\n\tint t;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tint *p%d;\n", i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tp%d = &g%d;\n", i, i)
	}
	sb.WriteString("\tt = 1;\n\tq = p0;\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "\tif (t) {\n\t\tq = p%d;\n\t}\n", i)
	}
	sb.WriteString("\treturn *q;\n}\n")
	return sb.String()
}

// loadSolveUnits builds the constraint-backend workload: the whole
// corpus plus the copy-dense stress unit.
func loadSolveUnits(b *testing.B) []*driver.Unit {
	b.Helper()
	units := loadAll(b, vdg.Options{})
	u, err := driver.LoadString("copystress.c", copyStressSrc(600), vdg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return append(units, u)
}

// BenchmarkSolveAndersen and BenchmarkSolveSteensgaard time the
// constraint backends' solve loops (VDG construction held outside the
// timer) over the corpus plus the copy-dense unit. bench-compare tracks
// their ratio. On copy-dense input like this unit unification must stay
// several times faster than directed inclusion, or the frontier's cost
// story is gone. That holds for copy-dense input only: on the
// population's store-heavy tail, where the collapsed store sends every
// store pair past every load, Steensgaard is the slower of the two
// (BenchmarkSolvePopulationTail reports that ratio).
func BenchmarkSolveAndersen(b *testing.B) {
	units := loadSolveUnits(b)
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = 0
		for _, u := range units {
			res := andersen.Analyze(u.Graph)
			pairs += res.Engine.PairInserts
		}
	}
	b.ReportMetric(float64(pairs), "pair-inserts")
}

func BenchmarkSolveSteensgaard(b *testing.B) {
	units := loadSolveUnits(b)
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = 0
		for _, u := range units {
			res := steensgaard.Analyze(u.Graph)
			pairs += res.Engine.PairInserts
		}
	}
	b.ReportMetric(float64(pairs), "pair-inserts")
}

// BenchmarkSolvePopulationTail times the three solvers only the
// population workload runs (CS with its CI input precomputed, Andersen,
// Steensgaard) on its costliest units for unification: the 5 units
// with the most Steensgaard meets among the first 200 of the seed-42
// corpusgen sweep. Units are chosen by that count, as
// BenchmarkSolveCIStoreHeavy chooses by CI pair inserts. It reports
// each solver's time per op and the Steensgaard/Andersen time ratio,
// which is above 1 on these units (see BenchmarkSolveAndersen).
func BenchmarkSolvePopulationTail(b *testing.B) {
	const population, keep = 200, 5
	type unit struct {
		g     *vdg.Graph
		ci    *core.Result
		meets int
	}
	var units []unit
	for _, p := range corpusgen.Sweep(42, population) {
		u, err := p.Load(vdg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, unit{u.Graph, nil, steensgaard.Analyze(u.Graph).Engine.Meets})
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].meets > units[j].meets })
	units = append([]unit(nil), units[:keep]...) // let the other graphs go
	for i := range units {
		units[i].ci = core.AnalyzeInsensitive(units[i].g)
	}
	b.ResetTimer()
	var cs, and, st time.Duration
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			t0 := time.Now()
			res := core.AnalyzeSensitive(u.g, core.SensitiveOptions{CI: u.ci, MaxSteps: experiments.MaxCSSteps})
			res.Strip()
			t1 := time.Now()
			andersen.Analyze(u.g)
			t2 := time.Now()
			steensgaard.Analyze(u.g)
			t3 := time.Now()
			cs, and, st = cs+t1.Sub(t0), and+t2.Sub(t1), st+t3.Sub(t2)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(cs.Nanoseconds())/n, "cs-ns/op")
	b.ReportMetric(float64(and.Nanoseconds())/n, "andersen-ns/op")
	b.ReportMetric(float64(st.Nanoseconds())/n, "steensgaard-ns/op")
	b.ReportMetric(float64(st)/float64(and), "steensgaard/andersen")
}

// BenchmarkBaseline times the Weihl-style program-wide analysis (served
// by Andersen, whose per-output sets it equals) and reports how many
// extra pairs it finds relative to CI (the precision gap the paper's
// generation of analyses closed).
func BenchmarkBaseline(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	b.ResetTimer()
	var blTotal, ciTotal int
	for i := 0; i < b.N; i++ {
		blTotal, ciTotal = 0, 0
		for _, u := range units {
			bl := andersen.Analyze(u.Graph)
			ci := core.AnalyzeInsensitive(u.Graph)
			blTotal += stats.Census(u.Graph, bl.Sets).Total
			ciTotal += stats.Census(u.Graph, ci.Sets).Total
		}
	}
	b.ReportMetric(float64(blTotal)/float64(ciTotal), "baseline-blowup")
}

// BenchmarkModRef times the mod/ref client over the corpus.
func BenchmarkModRef(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	var results []*core.Result
	for _, u := range units {
		results = append(results, core.AnalyzeInsensitive(u.Graph))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range results {
			modref.Compute(res)
		}
	}
}

// --- ablation benches (design choices from §5.1.1) -------------------

// BenchmarkAblationNoSSA runs CI with every scalar kept in the store
// (disabling the paper's sparse representation) and reports the pair
// blowup relative to the default build.
func BenchmarkAblationNoSSA(b *testing.B) {
	dflt := loadAll(b, vdg.Options{})
	nossa := loadAll(b, vdg.Options{NoSSA: true})
	b.ResetTimer()
	var dfltPairs, nossaPairs int
	for i := 0; i < b.N; i++ {
		dfltPairs, nossaPairs = 0, 0
		for j := range dflt {
			dfltPairs += stats.Census(dflt[j].Graph, core.AnalyzeInsensitive(dflt[j].Graph).Sets).Total
			nossaPairs += stats.Census(nossa[j].Graph, core.AnalyzeInsensitive(nossa[j].Graph).Sets).Total
		}
	}
	b.ReportMetric(float64(nossaPairs)/float64(dfltPairs), "pair-blowup")
}

// BenchmarkAblationSingleHeap runs CI with one heap base location for
// every allocation site (coarse heap naming, §5.1.1) and reports the
// effect on the average locations referenced by indirect reads.
func BenchmarkAblationSingleHeap(b *testing.B) {
	dflt := loadAll(b, vdg.Options{})
	single := loadAll(b, vdg.Options{SingleHeapBase: true})
	b.ResetTimer()
	var dfltAvg, singleAvg float64
	for i := 0; i < b.N; i++ {
		var d, s stats.OpHistogram
		for j := range dflt {
			rd := core.AnalyzeInsensitive(dflt[j].Graph)
			rs := core.AnalyzeInsensitive(single[j].Graph)
			iod := stats.CountIndirect(dflt[j].Graph, rd.Sets)
			ios := stats.CountIndirect(single[j].Graph, rs.Sets)
			d.Total += iod.Reads.Total
			d.SumRefs += iod.Reads.SumRefs
			s.Total += ios.Reads.Total
			s.SumRefs += ios.Reads.SumRefs
		}
		dfltAvg, singleAvg = d.Avg(), s.Avg()
	}
	b.ReportMetric(dfltAvg, "avg-read-locs")
	b.ReportMetric(singleAvg, "avg-read-locs-singleheap")
}

// BenchmarkAblationNoOptimizations runs the CS analysis without the
// §4.2 CI-driven pruning on the programs where that is feasible, and
// reports the extra meet operations the optimizations avoid.
func BenchmarkAblationNoOptimizations(b *testing.B) {
	// The unoptimized analysis is exponential; restrict to the smaller
	// benchmarks, as the paper did ("could only be applied to very
	// small examples").
	names := []string{"allroots", "lex315", "span", "yacr2", "compress"}
	var units []*driver.Unit
	for _, name := range names {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, u)
	}
	b.ResetTimer()
	var optOuts, unoptOuts int
	for i := 0; i < b.N; i++ {
		optOuts, unoptOuts = 0, 0
		for _, u := range units {
			ci := core.AnalyzeInsensitive(u.Graph)
			opt := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
			unopt := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{MaxSteps: experiments.MaxCSSteps})
			optOuts += opt.Engine.Meets
			unoptOuts += unopt.Engine.Meets
		}
	}
	b.ReportMetric(float64(unoptOuts)/float64(optOuts), "meets-saved-ratio")
}

// BenchmarkFullReport measures rendering every figure end to end (what
// cmd/experiments does).
func BenchmarkFullReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunAll(true, vdg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		experiments.WriteAll(io.Discard, rs)
	}
}

// BenchmarkBatchSequential and BenchmarkBatchParallel time the full
// CI+CS corpus batch at worker-pool widths 1 and GOMAXPROCS. Their
// ratio is the parallel speedup of the corpus engine; the reported
// units metric pins the batch shape. Output is merge-order
// deterministic, so the two configurations produce identical results —
// only the wall clock moves.
func BenchmarkBatchSequential(b *testing.B) {
	benchmarkBatch(b, 1)
}

func BenchmarkBatchParallel(b *testing.B) {
	benchmarkBatch(b, 0) // 0 = GOMAXPROCS workers
}

func benchmarkBatch(b *testing.B, jobs int) {
	b.Helper()
	var units int
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{WithCS: true, Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		units = len(rs)
	}
	b.ReportMetric(float64(units), "units")
}

// BenchmarkAblationBoundedAssumptions runs the CS analysis with
// [LR92]-style bounded assumption sets (paper §4.2) and reports how much
// of the unbounded analysis' precision the k=1 bound gives up.
func BenchmarkAblationBoundedAssumptions(b *testing.B) {
	units := loadAll(b, vdg.Options{})
	b.ResetTimer()
	var fullPairs, boundedPairs, ciPairs int
	for i := 0; i < b.N; i++ {
		fullPairs, boundedPairs, ciPairs = 0, 0, 0
		for _, u := range units {
			ci := core.AnalyzeInsensitive(u.Graph)
			full := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
			bounded := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps, MaxAssumptions: 1})
			ciPairs += stats.Census(u.Graph, ci.Sets).Total
			fullPairs += stats.Census(u.Graph, full.Strip()).Total
			boundedPairs += stats.Census(u.Graph, bounded.Strip()).Total
		}
	}
	b.ReportMetric(100*float64(ciPairs-fullPairs)/float64(ciPairs), "pct-spurious-unbounded")
	b.ReportMetric(100*float64(ciPairs-boundedPairs)/float64(ciPairs), "pct-spurious-k1")
}

// BenchmarkCheckers measures the pointer-bug checker suite over the
// whole corpus (diagnostics-instrumented build + CI analysis held
// constant; the timer covers only the checkers themselves) and reports
// the total number of diagnostics as a shape regression check.
func BenchmarkCheckers(b *testing.B) {
	units := loadAll(b, vdg.Options{Diagnostics: true})
	var ctxs []*checkers.Context
	for _, u := range units {
		ctxs = append(ctxs, checkers.NewContext(u.Graph, core.AnalyzeInsensitive(u.Graph)))
	}
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for _, ctx := range ctxs {
			total += len(checkers.Run(ctx, checkers.All))
		}
	}
	b.ReportMetric(float64(total), "diagnostics")
}

// BenchmarkFrontEnd times each front-end stage alone over the 13
// corpus programs: lex, parse (from tokens), sema (from the parsed
// files) and the VDG build, plain and diagnostics-instrumented (from
// the checked programs). Each stage's input is built outside the
// timer, so with -benchmem the allocations reported are that stage's
// own. The nodes metric is the corpus-wide count of kept VDG nodes, a
// shape check that must not move when the build gets faster.
func BenchmarkFrontEnd(b *testing.B) {
	progs := corpus.All()
	toks := make([]token.Stream, len(progs))
	files := make([]*ast.File, len(progs))
	checked := make([]*sema.Program, len(progs))
	for i, p := range progs {
		toks[i] = lexer.New(p.Name, p.Source).All()
		f, perrs := parser.ParseTokens(p.Name, toks[i], nil)
		if len(perrs) > 0 {
			b.Fatalf("%s: %v", p.Name, perrs[0])
		}
		prog, serrs := sema.Check(f)
		if len(serrs) > 0 {
			b.Fatalf("%s: %v", p.Name, serrs[0])
		}
		files[i], checked[i] = f, prog
	}
	b.Run("lex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				lexer.New(p.Name, p.Source).All()
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, p := range progs {
				parser.ParseTokens(p.Name, toks[j], nil)
			}
		}
	})
	b.Run("sema", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				sema.Check(f)
			}
		}
	})
	for _, c := range []struct {
		name string
		opts vdg.Options
	}{{"vdg", vdg.Options{}}, {"vdg-diag", vdg.Options{Diagnostics: true}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				nodes = 0
				for _, prog := range checked {
					g, _ := vdg.Build(prog, c.opts)
					nodes += g.NodeCount()
				}
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}
