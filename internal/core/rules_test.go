package core_test

// One test for each rule of DESIGN §9's rule table that no other test
// exercises on its own, each on a minimal mini-C unit. Every test
// asserts the CI sets and the stripped CS sets (CS runs with the §4.2
// optimizations against that CI result); the tests of the qualified
// rules also look at the assumption sets.

import (
	"sort"
	"strings"
	"testing"

	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/vdg"
)

// ruleRun is one unit solved both ways.
type ruleRun struct {
	u     *driver.Unit
	ci    *core.Result
	cs    *core.SensitiveResult
	strip map[*vdg.Output]*core.PairSet
}

func solveRule(t *testing.T, src string, opts vdg.Options) ruleRun {
	t.Helper()
	u, err := driver.LoadString("rule.c", src, opts)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ci := core.AnalyzeInsensitive(u.Graph)
	cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci})
	if ci.Stopped != nil || cs.Aborted {
		t.Fatal("solve stopped")
	}
	return ruleRun{u: u, ci: ci, cs: cs, strip: cs.Strip()}
}

// render lists the pairs of s by path: "path→ref,ref path→ref", paths
// and each path's referents sorted.
func render(s *core.PairSet) string {
	if s == nil {
		return ""
	}
	byPath := make(map[string][]string)
	for _, p := range s.List() {
		byPath[p.Path.String()] = append(byPath[p.Path.String()], p.Ref.String())
	}
	var out []string
	for path, refs := range byPath {
		sort.Strings(refs)
		out = append(out, path+"→"+strings.Join(refs, ","))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// expect checks the CI set and the stripped CS set on o.
func (r ruleRun) expect(t *testing.T, what string, o *vdg.Output, wantCI, wantCS string) {
	t.Helper()
	if got := render(r.ci.Pairs(o)); got != wantCI {
		t.Errorf("%s: CI %q, want %q", what, got, wantCI)
	}
	if got := render(r.strip[o]); got != wantCS {
		t.Errorf("%s: CS %q, want %q", what, got, wantCS)
	}
}

// final is main's return store.
func (r ruleRun) final() *vdg.Output { return r.u.Graph.Entry.ReturnStore() }

// fn returns the named function's graph.
func (r ruleRun) fn(t *testing.T, name string) *vdg.FuncGraph {
	t.Helper()
	for _, fg := range r.u.Graph.Funcs {
		if fg.Fn.Name == name {
			return fg
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

// indirect returns the location inputs' sources of fg's indirect
// nodes of kind k, in node order.
func indirect(fg *vdg.FuncGraph, k vdg.NodeKind) []*vdg.Output {
	var locs []*vdg.Output
	for _, n := range fg.Nodes {
		if n.Kind == k && n.Indirect {
			locs = append(locs, n.Loc())
		}
	}
	return locs
}

// TestRuleCheckedPrimop: under a null guard the checked filter drops
// the marker referents, so the guarded read references only a while
// the unguarded one also references <null>.
func TestRuleCheckedPrimop(t *testing.T) {
	r := solveRule(t, `
int a;
int main(void) {
	int *p;
	int c;
	int v;
	c = 1;
	p = 0;
	if (c) p = &a;
	v = *p;
	if (p != 0) {
		v = *p;
	}
	return v;
}
`, vdg.Options{Diagnostics: true})
	locs := indirect(r.fn(t, "main"), vdg.KLookup)
	if len(locs) != 2 {
		t.Fatalf("%d indirect reads, want 2", len(locs))
	}
	r.expect(t, "unguarded read", locs[0], "ε→<null>,a", "ε→<null>,a")
	r.expect(t, "guarded read", locs[1], "ε→a", "ε→a")
}

// TestRuleFree: deallocation passes the store through unchanged (the
// builder emits a free node only for the diagnostics solve).
func TestRuleFree(t *testing.T) {
	r := solveRule(t, `
int *g;
int main(void) {
	g = (int *) malloc(8);
	free(g);
	return 0;
}
`, vdg.Options{Diagnostics: true})
	r.expect(t, "final store", r.final(), "g→malloc@4:20#1", "g→malloc@4:20#1")
}

// TestRuleLookup: a location that reaches a lookup after the store
// pairs it selects still reads them. x points to p only after three
// trips around the loop, long after p → a is in the store; a location
// that arrives first is covered by the store-input arm.
func TestRuleLookup(t *testing.T) {
	r := solveRule(t, `
int a;
int *p, *q;
int main(void) {
	int **x, **y, **z;
	int c;
	c = 1;
	p = &a;
	while (c) {
		q = *x;
		x = y;
		y = z;
		z = &p;
	}
	return 0;
}
`, vdg.Options{})
	r.expect(t, "final store", r.final(), "p→a q→a", "p→a q→a")
}

// TestRuleWeakUpdate: a write through a pointer with two referents
// keeps the old contents of both.
func TestRuleWeakUpdate(t *testing.T) {
	r := solveRule(t, `
int a, b;
int *p, *q;
int **pp;
int main(void) {
	int c;
	c = 1;
	p = &a;
	q = &a;
	pp = c ? &p : &q;
	*pp = &b;
	return 0;
}
`, vdg.Options{})
	want := "pp→p,q p→a,b q→a,b"
	r.expect(t, "final store", r.final(), want, want)
}

// TestRuleFormalAssumption: a fact entering a callee holds on the
// formal under exactly one assumption, that it held there; its caller's
// assumptions do not travel with it.
func TestRuleFormalAssumption(t *testing.T) {
	r := solveRule(t, `
int a, b;
int *g;
void set(int *x) { g = x; }
int main(void) {
	set(&a);
	set(&b);
	return 0;
}
`, vdg.Options{})
	x := r.fn(t, "set").ParamOuts[0]
	r.expect(t, "formal x", x, "ε→a,b", "ε→a,b")
	for _, q := range r.cs.QPairs(x).All() {
		if len(q.A.Elems) != 1 || q.A.Elems[0].Formal != x || q.A.Elems[0].P != q.P {
			t.Errorf("formal x holds %v, want it under {(x, %v)}", q, q.P)
		}
	}
}

// TestRuleQualifierUnion: a lookup's result holds only where both the
// location and the store pair it read held, so it carries the union of
// their assumptions, and each call site gets back only its own pointer
// target.
func TestRuleQualifierUnion(t *testing.T) {
	r := solveRule(t, `
int a, b;
int *p1, *p2;
int *r1, *r2;
int *get(int **pp) { return *pp; }
int main(void) {
	p1 = &a;
	p2 = &b;
	r1 = get(&p1);
	r2 = get(&p2);
	return 0;
}
`, vdg.Options{})
	r.expect(t, "final store", r.final(), "p1→a p2→b r1→a,b r2→a,b", "p1→a p2→b r1→a r2→b")
	ret := r.fn(t, "get").ReturnValue()
	for _, q := range r.cs.QPairs(ret).All() {
		if q.A.Len() != 2 {
			t.Errorf("get returns %v, want it under a location and a store assumption", q)
		}
	}
}

// TestRuleRetriggerReturn: a call site whose actual gains a pair after
// the callee already returned the fact that assumes it still gets that
// fact back. The first call passes &b at once, so id's result holds b
// while the loop's call still passes nothing: b reaches p only after
// three trips around the loop, and when it does the formal learns
// nothing new.
func TestRuleRetriggerReturn(t *testing.T) {
	r := solveRule(t, `
int b;
int *r1, *r2;
int *id(int *x) { return x; }
int main(void) {
	int *p, *q, *s;
	int c;
	c = 1;
	r1 = id(&b);
	while (c) {
		r2 = id(p);
		p = q;
		q = s;
		s = &b;
	}
	return 0;
}
`, vdg.Options{})
	r.expect(t, "final store", r.final(), "r1→b r2→b", "r1→b r2→b")
}

// TestRuleSubsumption: a pair that holds unconditionally subsumes the
// same pair under an assumption, so the callee's result keeps it once,
// under the empty set. In pick the unconditional &a reaches z first and
// the assumed one is discarded on arrival; in late it reaches z only
// after three trips around the loop and displaces the assumed one.
func TestRuleSubsumption(t *testing.T) {
	r := solveRule(t, `
int a;
int *g, *h;
int *pick(int *x, int c) {
	int *z;
	z = x;
	if (c) z = &a;
	return z;
}
int *late(int *x, int c) {
	int *z, *p, *q, *s;
	z = x;
	while (c) {
		z = p;
		p = q;
		q = s;
		s = &a;
	}
	return z;
}
int main(void) {
	g = pick(&a, 1);
	h = late(&a, 1);
	return 0;
}
`, vdg.Options{})
	r.expect(t, "final store", r.final(), "g→a h→a", "g→a h→a")
	for _, name := range []string{"pick", "late"} {
		all := r.cs.QPairs(r.fn(t, name).ReturnValue()).All()
		if len(all) != 1 || !all[0].A.Empty() {
			t.Errorf("%s returns %v, want the one pair under {}", name, all)
		}
	}
	if st := r.cs.Engine; st.SubsumeHits == 0 || st.SubsumeDrops == 0 {
		t.Errorf("%d arrivals subsumed, %d sets displaced; want both", st.SubsumeHits, st.SubsumeDrops)
	}
}

// unoptimized solves the unit's CS analysis without the CI result, so
// neither §4.2 optimization applies.
func (r ruleRun) unoptimized() *core.SensitiveResult {
	return core.AnalyzeSensitive(r.u.Graph, core.SensitiveOptions{})
}

// TestRuleOptimization1: a lookup whose location CI proves unique drops
// the location's assumptions, and the stripped answer is unchanged.
func TestRuleOptimization1(t *testing.T) {
	r := solveRule(t, `
int a, b;
int *p;
int *g1, *g2;
int *read(int **pp) { return *pp; }
int main(void) {
	p = &a;
	g1 = read(&p);
	p = &b;
	g2 = read(&p);
	return 0;
}
`, vdg.Options{})
	r.expect(t, "final store", r.final(), "g1→a,b g2→a,b p→a,b", "g1→a g2→b p→b")
	ret := r.fn(t, "read").ReturnValue()
	unopt := r.unoptimized()
	if got, want := render(unopt.Strip()[ret]), render(r.strip[ret]); got != want {
		t.Errorf("unoptimized CS returns %q, optimized %q", got, want)
	}
	for _, q := range r.cs.QPairs(ret).All() {
		if q.A.Len() != 1 {
			t.Errorf("optimized: read returns %v, want only its store assumption", q)
		}
	}
	for _, q := range unopt.QPairs(ret).All() {
		if q.A.Len() != 2 {
			t.Errorf("unoptimized: read returns %v, want a location and a store assumption", q)
		}
	}
}

// TestRuleOptimization2: a store pair that no CI location of an update
// can overwrite passes the update under its own assumptions; without
// the optimization it passes once per location, each time also under
// that location's assumption. The update has two CI locations, so
// optimization 1 does not apply.
func TestRuleOptimization2(t *testing.T) {
	r := solveRule(t, `
int a, b;
int *p1, *p2, *q;
void set(int **pp, int *v) { *pp = v; }
int main(void) {
	q = &b;
	set(&p1, &a);
	set(&p2, &a);
	return 0;
}
`, vdg.Options{})
	r.expect(t, "final store", r.final(), "p1→a p2→a q→b", "p1→a p2→a q→b")
	st := r.fn(t, "set").ReturnStore()
	qPairs := func(res *core.SensitiveResult) (sizes []int) {
		for _, qp := range res.QPairs(st).All() {
			if qp.P.Path.String() == "q" {
				sizes = append(sizes, qp.A.Len())
			}
		}
		return sizes
	}
	if got := qPairs(r.cs); len(got) != 1 || got[0] != 1 {
		t.Errorf("optimized: q leaves set under assumption sets of sizes %v, want [1]", got)
	}
	if got := qPairs(r.unoptimized()); len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Errorf("unoptimized: q leaves set under assumption sets of sizes %v, want [2 2]", got)
	}
}
