package oracle_test

import (
	"bytes"
	"fmt"
	"testing"

	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/driver"
	"aliaslab/internal/experiments"
	"aliaslab/internal/oracle"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// buildModes pairs a label with the VDG construction options the oracle
// must hold under: the plain build and the diagnostics build (which
// seeds null/uninit markers and so changes every solution). The
// theorem invariants hold under both; the indirect-agreement headline
// is asserted only on the plain build, matching the paper's
// measurements on uninstrumented programs — the synthetic markers flow
// through call sites whose unrealizable paths CI merges, so the
// instrumented delta is legitimately non-zero (e.g. on backprop).
var buildModes = []struct {
	name      string
	opts      vdg.Options
	agreement bool
}{
	{"plain", vdg.Options{}, true},
	{"diagnostics", vdg.Options{Diagnostics: true}, false},
}

func report(t *testing.T, vs []oracle.Violation) {
	t.Helper()
	for _, v := range vs {
		t.Errorf("oracle: %s", v)
	}
}

// TestCorpusInvariants runs the full oracle — including the paper's
// empirical indirect-agreement headline — on all thirteen corpus
// programs, under both build modes. This is the repository's strongest
// regression net: if an analysis change breaks soundness or the
// headline result, it fails here with the program and output named.
func TestCorpusInvariants(t *testing.T) {
	for _, mode := range buildModes {
		for _, name := range corpus.Names() {
			t.Run(mode.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				u, err := corpus.Load(name, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				report(t, oracle.Check(name, u, oracle.Options{ExpectIndirectAgreement: mode.agreement}))
			})
		}
	}
}

// TestFixtureInvariants runs the oracle on every fixture under both
// build modes. Theorem invariants must hold everywhere; the empirical
// indirect-agreement expectation follows the fixture's declaration.
func TestFixtureInvariants(t *testing.T) {
	for _, mode := range buildModes {
		for _, f := range oracle.Fixtures {
			t.Run(mode.name+"/"+f.Name, func(t *testing.T) {
				t.Parallel()
				u, err := driver.LoadString(f.Name+".c", f.Src, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				report(t, oracle.Check(f.Name, u, oracle.Options{
					ExpectIndirectAgreement: f.IndirectAgreement && mode.agreement,
					// Fixtures are tiny: cover the shipped widening
					// bound too, not just the cheap ones.
					WidenBounds: []int{1, 2, core.DefaultWidenAssumptions},
				}))
			})
		}
	}
}

// TestOracleDetectsDisagreement is the negative control: the
// adversarial fixtures must produce a NON-zero CI/CS delta at indirect
// operations, proving the agreement metric can actually fire. Without
// this, a bug that made IndirectDiff vacuously empty would also make
// the headline invariant vacuously true.
func TestOracleDetectsDisagreement(t *testing.T) {
	sawDisagreeing := false
	for _, f := range oracle.Fixtures {
		if f.IndirectAgreement {
			continue
		}
		sawDisagreeing = true
		t.Run(f.Name, func(t *testing.T) {
			u, err := driver.LoadString(f.Name+".c", f.Src, vdg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ci := core.AnalyzeInsensitive(u.Graph)
			cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: 1_000_000})
			if cs.Aborted {
				t.Fatal("context-sensitive analysis did not converge")
			}
			if diff := stats.IndirectDiff(u.Graph, ci.Sets, cs.Strip()); len(diff) == 0 {
				t.Errorf("fixture %s is declared disagreeing but CI and CS agree at every indirect operation", f.Name)
			}
		})
	}
	if !sawDisagreeing {
		t.Fatal("no disagreeing fixtures: the negative control is gone")
	}
}

// TestStrictSeparation asserts the declared PROPER inclusions of the
// precision frontier on the fixtures that separate adjacent backends.
// The oracle's subset invariants prove each coarser solution contains
// the finer one; this test proves the containments are not equalities —
// every precision loss on the frontier (call-path merging, dropped
// kills, unified copies) is demonstrated by a concrete program. Pair
// totals are comparable because Check has already established the
// per-output inclusion.
func TestStrictSeparation(t *testing.T) {
	sawAll := [3]bool{}
	for _, f := range oracle.Fixtures {
		if !f.StrictCIOverCS && !f.StrictAndersenOverCI && !f.StrictSteensgaardOverAndersen {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			u, err := driver.LoadString(f.Name+".c", f.Src, vdg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ci := core.AnalyzeInsensitive(u.Graph)
			cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: 1_000_000})
			if cs.Aborted {
				t.Fatal("context-sensitive analysis did not converge")
			}
			and := andersen.Analyze(u.Graph)
			st := steensgaard.Analyze(u.Graph)
			csTotal := stats.Census(u.Graph, cs.Strip()).Total
			ciTotal := stats.Census(u.Graph, ci.Sets).Total
			andTotal := stats.Census(u.Graph, and.Sets).Total
			stTotal := stats.Census(u.Graph, st.Sets).Total
			if f.StrictCIOverCS {
				sawAll[0] = true
				if ciTotal <= csTotal {
					t.Errorf("CI total %d not strictly above CS total %d", ciTotal, csTotal)
				}
			}
			if f.StrictAndersenOverCI {
				sawAll[1] = true
				if andTotal <= ciTotal {
					t.Errorf("andersen total %d not strictly above CI total %d", andTotal, ciTotal)
				}
			}
			if f.StrictSteensgaardOverAndersen {
				sawAll[2] = true
				if stTotal <= andTotal {
					t.Errorf("steensgaard total %d not strictly above andersen total %d", stTotal, andTotal)
				}
			}
		})
	}
	for i, name := range []string{"cs/ci", "ci/andersen", "andersen/steensgaard"} {
		if !sawAll[i] {
			t.Errorf("no fixture declares strict %s separation: that rung of the frontier is unverified", name)
		}
	}
}

// TestParallelBatchDeterminism is the merge oracle for the worker pool:
// the full corpus batch rendered at different -jobs widths must be
// byte-identical, figure by figure and in the JSON summary. Any
// scheduling-order leak into the output breaks this immediately.
func TestParallelBatchDeterminism(t *testing.T) {
	render := func(jobs int) string {
		rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{WithCS: true, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var b bytes.Buffer
		for _, fig := range []func(*bytes.Buffer){
			func(w *bytes.Buffer) { experiments.Figure2(w, rs) },
			func(w *bytes.Buffer) { experiments.Figure3(w, rs) },
			func(w *bytes.Buffer) { experiments.Figure4(w, rs) },
			func(w *bytes.Buffer) { experiments.Figure6(w, rs) },
			func(w *bytes.Buffer) { experiments.Figure7(w, rs) },
		} {
			fig(&b)
			fmt.Fprintln(&b)
		}
		if err := experiments.WriteJSON(&b, rs); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return b.String()
	}
	want := render(2)
	if got := render(5); got != want {
		t.Errorf("rendered corpus output differs between -jobs=2 and -jobs=5")
	}
}
