package experiments_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/experiments"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// runAll executes the full study once per test binary.
var cached []*experiments.ProgramResult

func runAll(t *testing.T) []*experiments.ProgramResult {
	t.Helper()
	if cached == nil {
		rs, err := experiments.RunAll(true, vdg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cached = rs
	}
	return cached
}

// TestHeadlineIdenticalIndirectOps is the paper's central claim: on
// every benchmark, context sensitivity changes nothing at the location
// inputs of indirect memory operations.
func TestHeadlineIdenticalIndirectOps(t *testing.T) {
	for _, r := range runAll(t) {
		diff := stats.IndirectDiff(r.Unit.Graph, r.CISets, r.CSSets)
		if len(diff) != 0 {
			t.Errorf("%s: %d indirect operations differ between CI and CS", r.Name, len(diff))
		}
	}
}

// TestCSRefinesCIAcrossCorpus: the context-sensitive solution is a
// subset of the context-insensitive one on every output of every
// benchmark (soundness of the comparison).
func TestCSRefinesCIAcrossCorpus(t *testing.T) {
	for _, r := range runAll(t) {
		r := r
		r.Unit.Graph.Outputs(func(o *vdg.Output) {
			cs := r.CSSets[o]
			if cs == nil {
				return
			}
			ci := r.CISets[o]
			for _, p := range cs.List() {
				if ci == nil || !ci.Has(p) {
					t.Errorf("%s: CS-only pair %v on %v", r.Name, p, o)
				}
			}
		})
	}
}

// TestSpuriousFractionSmall: total spurious stays well under the
// program-killing levels earlier literature feared; several programs
// must come out exactly clean (paper Figure 6).
func TestSpuriousFractionSmall(t *testing.T) {
	ciTotal, csTotal, clean := 0, 0, 0
	for _, r := range runAll(t) {
		ci := stats.Census(r.Unit.Graph, r.CISets).Total
		cs := stats.Census(r.Unit.Graph, r.CSSets).Total
		if ci == cs {
			clean++
		}
		if cs > ci {
			t.Errorf("%s: CS has more pairs (%d) than CI (%d)", r.Name, cs, ci)
		}
		ciTotal += ci
		csTotal += cs
	}
	pct := 100 * float64(ciTotal-csTotal) / float64(ciTotal)
	if pct > 15 {
		t.Errorf("pooled spurious fraction %.1f%% exceeds the expected band", pct)
	}
	if clean < 3 {
		t.Errorf("only %d programs are spurious-free; the paper has several", clean)
	}
}

// TestSingleLocationPrograms: backprop, compiler, and span are built so
// no indirect operation references more than one location (paper §3.2
// names exactly these three).
func TestSingleLocationPrograms(t *testing.T) {
	for _, r := range runAll(t) {
		switch r.Name {
		case "backprop", "compiler", "span":
		default:
			continue
		}
		io := stats.CountIndirect(r.Unit.Graph, r.CISets)
		if io.Reads.Max > 1 || io.Writes.Max > 1 {
			t.Errorf("%s: max read locs %d, max write locs %d; want <=1",
				r.Name, io.Reads.Max, io.Writes.Max)
		}
	}
}

// TestMultiLocationPrograms: assembler and bc carry the multi-location
// tail (paper Figure 4), including operations at >=4 locations.
func TestMultiLocationPrograms(t *testing.T) {
	for _, r := range runAll(t) {
		switch r.Name {
		case "assembler", "bc":
		default:
			continue
		}
		io := stats.CountIndirect(r.Unit.Graph, r.CISets)
		if io.Reads.N[3] == 0 {
			t.Errorf("%s: no reads at >=4 locations", r.Name)
		}
		if io.Reads.Avg() < 1.3 {
			t.Errorf("%s: avg read locations %.2f; expected the multi-location champion band", r.Name, io.Reads.Avg())
		}
	}
}

// TestMostOpsSingleLocation: corpus-wide, the overwhelming majority of
// indirect operations reference one location (paper: 87%).
func TestMostOpsSingleLocation(t *testing.T) {
	var single, total int
	for _, r := range runAll(t) {
		io := stats.CountIndirect(r.Unit.Graph, r.CISets)
		single += io.Reads.N[0] + io.Writes.N[0]
		total += io.Reads.Total + io.Writes.Total
	}
	frac := float64(single) / float64(total)
	if frac < 0.70 {
		t.Errorf("single-location fraction %.2f below the paper's band", frac)
	}
}

// TestSparseCallGraphs: the corpus keeps the paper's §5.1.2 structural
// precondition — procedures average few callers and many have exactly
// one.
func TestSparseCallGraphs(t *testing.T) {
	for _, r := range runAll(t) {
		cg := stats.CallGraph(r.CI)
		if cg.Procedures == 0 {
			t.Errorf("%s: empty call graph", r.Name)
			continue
		}
		if cg.AvgCallers > 6 {
			t.Errorf("%s: %.1f average callers; corpus must stay sparse", r.Name, cg.AvgCallers)
		}
	}
}

// TestCostShape: CS does roughly the same flow-in work but more meet
// work, and some program shows a pronounced meet blowup (paper §4.2).
func TestCostShape(t *testing.T) {
	var ciIns, csIns int
	worstMeets := 0.0
	for _, r := range runAll(t) {
		ciIns += r.CI.Engine.Steps
		csIns += r.CS.Engine.Steps
		ratio := float64(r.CS.Engine.Meets) / float64(r.CI.Engine.Meets)
		if ratio > worstMeets {
			worstMeets = ratio
		}
	}
	inRatio := float64(csIns) / float64(ciIns)
	if inRatio > 2.0 {
		t.Errorf("pooled flow-in ratio %.2f; the paper's is ~1.1", inRatio)
	}
	if worstMeets < 5 {
		t.Errorf("worst meet ratio %.1f; expected a pronounced blowup somewhere", worstMeets)
	}
}

// TestRecursiveLocalSchemes: the two treatments of address-taken locals
// in recursive procedures (summary vs single-instance) give identical
// results on the corpus, as the paper's footnote 4 asserts for its
// benchmarks.
func TestRecursiveLocalSchemes(t *testing.T) {
	for _, name := range corpus.Names() {
		weak, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		single, err := corpus.Load(name, vdg.Options{RecursiveLocalsSingle: true})
		if err != nil {
			t.Fatal(err)
		}
		rw := core.AnalyzeInsensitive(weak.Graph)
		rs := core.AnalyzeInsensitive(single.Graph)
		cw := stats.Census(weak.Graph, rw.Sets)
		cs := stats.Census(single.Graph, rs.Sets)
		if cw != cs {
			t.Errorf("%s: recursive-local schemes disagree: %+v vs %+v", name, cw, cs)
		}
	}
}

// TestFunctionPointerContextInsensitivityHarmless verifies, as the
// paper did by hand, that leaving function values context-insensitive
// does not affect the empirical results: every call's callee set is the
// same under CI and CS.
func TestFunctionPointerContextInsensitivityHarmless(t *testing.T) {
	for _, r := range runAll(t) {
		for _, fg := range r.Unit.Graph.Funcs {
			for _, call := range fg.Calls {
				if len(r.CI.Callees[call]) != len(r.CS.Callees[call]) {
					t.Errorf("%s: callee sets differ at %s", r.Name, call.Pos)
				}
			}
		}
	}
}

// TestRenderAllFigures exercises the full report path end to end.
func TestRenderAllFigures(t *testing.T) {
	var buf bytes.Buffer
	experiments.WriteAll(&buf, runAll(t))
	out := buf.String()
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Figure 6", "Figure 7a", "Figure 7b",
		"Headline check", "Analysis cost",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, name := range corpus.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("report missing program %q", name)
		}
	}
}

// TestAnalysesAreDeterministic: two full runs produce identical pair
// counts on every output (the FIFO worklist plus insertion-ordered sets
// make the whole fixpoint order-independent in practice, not just in
// the limit).
func TestAnalysesAreDeterministic(t *testing.T) {
	for _, name := range []string{"assembler", "part", "bc"} {
		u1, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		u2, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ci1 := core.AnalyzeInsensitive(u1.Graph)
		ci2 := core.AnalyzeInsensitive(u2.Graph)
		if a, b := ci1.Engine, ci2.Engine; a.Steps != b.Steps || a.Meets != b.Meets || a.PairInserts != b.PairInserts {
			t.Errorf("%s: CI metrics differ across runs: %+v vs %+v", name, a, b)
		}
		cs1 := core.AnalyzeSensitive(u1.Graph, core.SensitiveOptions{CI: ci1, MaxSteps: experiments.MaxCSSteps})
		cs2 := core.AnalyzeSensitive(u2.Graph, core.SensitiveOptions{CI: ci2, MaxSteps: experiments.MaxCSSteps})
		if a, b := cs1.Engine, cs2.Engine; a.Steps != b.Steps || a.Meets != b.Meets || a.PairInserts != b.PairInserts {
			t.Errorf("%s: CS metrics differ across runs: %+v vs %+v", name, a, b)
		}
		c1 := stats.Census(u1.Graph, cs1.Strip())
		c2 := stats.Census(u2.Graph, cs2.Strip())
		if c1 != c2 {
			t.Errorf("%s: CS censuses differ: %+v vs %+v", name, c1, c2)
		}
	}
}

// goldenFigures renders the deterministic figures (everything except
// the timing table) for golden comparison.
func goldenFigures(rs []*experiments.ProgramResult) string {
	var buf bytes.Buffer
	experiments.Figure2(&buf, rs)
	buf.WriteString("\n")
	experiments.Figure3(&buf, rs)
	buf.WriteString("\n")
	experiments.Figure4(&buf, rs)
	buf.WriteString("\n")
	experiments.Figure6(&buf, rs)
	buf.WriteString("\n")
	experiments.Figure7(&buf, rs)
	return buf.String()
}

// TestGoldenFigures pins the exact figure tables. The analyses are
// deterministic, so any drift is a real behavior change; regenerate the
// golden file with UPDATE_GOLDEN=1 go test ./internal/experiments/.
func TestGoldenFigures(t *testing.T) {
	got := goldenFigures(runAll(t))
	const path = "testdata/golden_figures.txt"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden file updated")
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		// Report the first differing line for fast diagnosis.
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("figures drifted at line %d:\n got: %q\nwant: %q\n(regenerate with UPDATE_GOLDEN=1 if intentional)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("figures drifted in length: got %d lines, want %d", len(gl), len(wl))
	}
}
