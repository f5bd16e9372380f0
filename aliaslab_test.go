package aliaslab_test

import (
	"slices"
	"strings"
	"testing"

	"aliaslab"
	"aliaslab/internal/checkers"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/vdg"
)

const demo = `
int a, b;
int *p, *q;
void choose(int **dst, int *x, int *y, int c) {
	if (c) {
		*dst = x;
	} else {
		*dst = y;
	}
}
int main(void) {
	choose(&p, &a, &b, 1);
	choose(&q, &b, &b, 0);
	return *p;
}
`

func TestFacadePipeline(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines, nodes, aliasOuts := prog.Sizes()
	if lines == 0 || nodes == 0 || aliasOuts == 0 {
		t.Fatalf("sizes: %d %d %d", lines, nodes, aliasOuts)
	}

	res, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	store := res.StoreAtExit()
	find := func(path string) []string {
		var refs []string
		for _, pt := range store {
			if pt.Path == path {
				refs = append(refs, pt.Referent)
			}
		}
		return refs
	}
	if got := strings.Join(find("p"), ","); got != "a,b" {
		t.Errorf("p -> %v, want a,b (CI merges both branches and calls)", got)
	}
	if got := strings.Join(find("q"), ","); got != "a,b" {
		t.Errorf("q -> %v, want a,b under CI pollution", got)
	}

	ops := res.IndirectOps()
	if len(ops) == 0 {
		t.Fatal("no indirect operations found")
	}
	var loads int
	for _, op := range ops {
		if op.Kind == "read" && op.Function == "main" {
			loads++
			if strings.Join(op.Referents, ",") != "a,b" {
				t.Errorf("*p reads %v", op.Referents)
			}
		}
	}
	if loads != 1 {
		t.Errorf("found %d reads in main, want 1", loads)
	}
}

func TestFacadeSensitivityComparison(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := prog.AnalyzeContextSensitive(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	spurious, diffs := aliaslab.Compare(ci, cs)
	if spurious == 0 {
		t.Error("expected CI to carry spurious pairs on this program (q -> a)")
	}
	// The paper's phenomenon in miniature: the spurious q -> a pair is
	// never dereferenced, and *p legitimately reaches both targets (the
	// imprecision at p is a branch merge, not a context merge), so no
	// indirect operation differs.
	if diffs != 0 {
		t.Errorf("%d indirect operations differ; the pollution should be invisible to dereferences", diffs)
	}
	// The CS result can never exceed CI.
	if cs.TotalPairs() > ci.TotalPairs() {
		t.Errorf("CS has %d pairs, CI %d", cs.TotalPairs(), ci.TotalPairs())
	}
}

func TestFacadeBaselineIsCoarsest(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := prog.Analyze()
	bl, err := prog.AnalyzeWithBackend("baseline")
	if err != nil {
		t.Fatal(err)
	}
	// The flow-insensitive baseline must not be more precise than CI at
	// indirect operations.
	ciOps := ci.IndirectOps()
	blOps := bl.IndirectOps()
	if len(ciOps) != len(blOps) {
		t.Fatalf("op counts differ: %d vs %d", len(ciOps), len(blOps))
	}
	for i := range ciOps {
		if len(blOps[i].Referents) < len(ciOps[i].Referents) {
			t.Errorf("baseline more precise than CI at %s", ciOps[i].Pos)
		}
	}
}

func TestFacadeModRef(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := prog.Analyze()
	mod, ref, err := res.ModRef()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(mod["choose"], ","); got != "p,q" {
		t.Errorf("choose mods %q, want p,q", got)
	}
	if got := strings.Join(mod["main"], ","); got != "p,q" {
		t.Errorf("main mods %q, want p,q (transitively, through choose)", got)
	}
	if got := strings.Join(ref["main"], ","); got != "a,b,p" {
		t.Errorf("main refs %q, want a,b,p (the *p read)", got)
	}

	// Context-sensitive results keep the CI pre-pass, so the client
	// remains available.
	cs, err := prog.AnalyzeContextSensitive(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.ModRef(); err != nil {
		t.Errorf("ModRef on a CS result: %v", err)
	}

	// The baseline never runs the CI pre-pass.
	bl, err := prog.AnalyzeWithBackend("baseline")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bl.ModRef(); err == nil {
		t.Error("ModRef on the baseline result must error")
	}
}

// TestFacadeBenchmarks: every program of the paper's benchmark corpus
// goes through the facade.
func TestFacadeBenchmarks(t *testing.T) {
	progs := corpus.All()
	if len(progs) != 13 {
		t.Fatalf("corpus has %d programs", len(progs))
	}
	for _, p := range progs {
		prog, err := aliaslab.ParseProgram(p.Name+".c", p.Source, aliaslab.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lines, nodes, _ := prog.Sizes(); lines == 0 || nodes == 0 {
			t.Errorf("%s: %d lines, %d VDG nodes", p.Name, lines, nodes)
		}
		res, err := prog.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalPairs() == 0 {
			t.Errorf("%s: no pairs", p.Name)
		}
	}
}

func TestFacadeParseErrors(t *testing.T) {
	if _, err := aliaslab.ParseProgram("bad.c", "int f( {", aliaslab.Options{}); err == nil {
		t.Fatal("syntax errors must be reported")
	}
	if _, err := aliaslab.ParseProgram("bad.c", "int main(void) { return undeclared; }", aliaslab.Options{}); err == nil {
		t.Fatal("semantic errors must be reported")
	}
}

func TestFacadeVet(t *testing.T) {
	prog, err := aliaslab.ParseProgram("vetme.c", `
int main(void) {
	int *p;
	p = (int *) malloc(4);
	free(p);
	*p = 1;
	return 0;
}
`, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := prog.Vet()
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, d := range diags {
		if d.Checker == "uaf" && strings.Contains(d.Message, "after free") {
			found = true
			if d.Severity != "error" || len(d.Related) == 0 || !strings.Contains(d.Pos, "vetme.c:") {
				t.Errorf("malformed diagnostic: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("use-after-free not reported: %v", diags)
	}

	// Selecting a checker that cannot fire here yields no diagnostics.
	none, err := prog.Vet("dangling")
	if err != nil || len(none) != 0 {
		t.Fatalf("dangling on heap-only program: %v, err %v", none, err)
	}
	if _, err := prog.Vet("nosuch"); err == nil {
		t.Fatal("unknown checker must error")
	}

	// The vet rebuild must not perturb the paper's analysis results on
	// the original program.
	res, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.StoreAtExit() {
		if strings.Contains(pt.Referent, "<null>") || strings.Contains(pt.Referent, "<uninit>") {
			t.Fatalf("marker location leaked into plain analysis: %+v", pt)
		}
	}

	// Vet builds its graph from the kept checked program; on every
	// corpus program that must report what a fresh diagnostics load
	// does.
	for _, p := range corpus.All() {
		name := p.Name
		prog, err := aliaslab.ParseProgram(name+".c", p.Source, aliaslab.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := prog.Vet()
		if err != nil {
			t.Fatal(err)
		}
		u, err := corpus.Load(name, vdg.Options{Diagnostics: true})
		if err != nil {
			t.Fatal(err)
		}
		want := checkers.Run(checkers.NewContext(u.Graph, core.AnalyzeInsensitive(u.Graph)), checkers.All)
		if len(got) != len(want) {
			t.Errorf("%s: Vet reports %d diagnostics, a fresh load %d", name, len(got), len(want))
			continue
		}
		for i, w := range want {
			g := got[i]
			same := g.Pos == w.Pos.In(w.File) && g.Severity == w.Severity.String() &&
				g.Checker == w.Checker && g.Message == w.Message && len(g.Related) == len(w.Related)
			for j := 0; same && j < len(w.Related); j++ {
				same = g.Related[j] == aliaslab.RelatedPos{Pos: w.Related[j].Pos.In(w.File), Message: w.Related[j].Message}
			}
			if !same {
				t.Errorf("%s: diagnostic %d is %+v, a fresh load gives %v", name, i, g, w)
				break
			}
		}
	}
}

// TestFacadeCheckers: each checker ID the README documents selects
// through Vet, alone and all together.
func TestFacadeCheckers(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"uaf", "dangling", "nullderef", "uninit", "leak"}
	for _, id := range ids {
		if _, err := prog.Vet(id); err != nil {
			t.Errorf("checker %q: %v", id, err)
		}
	}
	if _, err := prog.Vet(ids...); err != nil {
		t.Errorf("all five checkers: %v", err)
	}
}

// TestFacadeBackends: every name Backends lists runs through
// AnalyzeWithBackend, and each answer over-approximates the one before
// it at every indirect operation.
func TestFacadeBackends(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var prev []aliaslab.IndirectOp
	for _, name := range aliaslab.Backends() {
		res, err := prog.AnalyzeWithBackend(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops := res.IndirectOps()
		if len(ops) == 0 {
			t.Fatalf("%s: no indirect operations", name)
		}
		for i := 0; prev != nil && i < len(ops); i++ {
			for _, r := range prev[i].Referents {
				if !slices.Contains(ops[i].Referents, r) {
					t.Errorf("%s drops referent %s of the more precise backend at %s", name, r, ops[i].Pos)
				}
			}
		}
		prev = ops
	}

	ci, _ := prog.Analyze()
	def, err := prog.AnalyzeWithBackend("")
	if err != nil || def.Label() != ci.Label() || def.TotalPairs() != ci.TotalPairs() {
		t.Errorf(`"" must be the ci analysis: %v`, err)
	}
	if _, err := prog.AnalyzeWithBackend("anderson"); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("unknown backend must error and list the valid names: %v", err)
	}
}

// TestFacadeQueries: the demand queries agree with each other and with
// the whole-program CI answer.
func TestFacadeQueries(t *testing.T) {
	prog, err := aliaslab.ParseProgram("query.c", `
int a, b, c;
int *p, *q, *r;
int main(void) {
	p = &a;
	q = &a;
	r = &c;
	if (*p) { q = &b; }
	return *p + *q + *r;
}
`, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alias, err := prog.MayAlias("p", "q")
	if err != nil {
		t.Fatal(err)
	}
	if alias.Verdict != "yes" || alias.Witness != "a" {
		t.Errorf("mayalias(p, q) = %+v; both may point to a", alias)
	}
	if no, err := prog.MayAlias("q", "r"); err != nil || no.Verdict != "no" {
		t.Errorf("mayalias(q, r) = %+v, %v; want no", no, err)
	}
	pt, err := prog.PointsTo("q")
	if err != nil {
		t.Fatal(err)
	}
	if pt.Verdict != "ok" || strings.Join(pt.PointsTo, ",") != "a,b" {
		t.Errorf("pointsto(q) = %+v, want a,b", pt)
	}
	answers, err := prog.Query("mayalias(p, q); pointsto(q)")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 ||
		answers[0].Verdict != alias.Verdict || answers[0].Witness != alias.Witness ||
		strings.Join(answers[1].PointsTo, ",") != strings.Join(pt.PointsTo, ",") {
		t.Errorf("Query answers %+v differ from MayAlias/PointsTo", answers)
	}
	if _, err := prog.Query("mayalias(p"); err == nil {
		t.Error("a malformed query must error")
	}
}
