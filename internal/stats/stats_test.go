package stats_test

import (
	"testing"

	"aliaslab/internal/core"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/driver"
	"aliaslab/internal/paths"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

func load(t *testing.T, src string) *driver.Unit {
	t.Helper()
	u, err := driver.LoadString("t.c", src, vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

const sample = `
struct box { int *item; int tag; };
int a, b;
struct box gb;
int *p;
int main(void) {
	p = &a;
	gb.item = &b;
	*p = 1;
	return *gb.item;
}
`

func TestClassifyOutput(t *testing.T) {
	u := load(t, sample)
	var sawPointer, sawStore, sawOther bool
	u.Graph.Outputs(func(o *vdg.Output) {
		switch stats.ClassifyOutput(o) {
		case stats.PointerOut:
			sawPointer = true
			if o.Type == nil || o.Type.Kind != ctypes.Pointer {
				t.Errorf("non-pointer output classified as pointer: %v", o)
			}
		case stats.StoreOut:
			sawStore = true
			if !o.IsStore {
				t.Errorf("non-store output classified as store: %v", o)
			}
		case stats.OtherOut:
			sawOther = true
			if stats.IsAliasRelated(o) {
				t.Errorf("other output counted alias-related: %v", o)
			}
		}
	})
	if !sawPointer || !sawStore || !sawOther {
		t.Fatalf("classification coverage: ptr=%v store=%v other=%v", sawPointer, sawStore, sawOther)
	}
}

func TestSizesCountsAliasRelated(t *testing.T) {
	u := load(t, sample)
	s := stats.Sizes("sample", u.SourceLines, u.Graph)
	if s.Nodes != u.Graph.NodeCount() {
		t.Errorf("node count mismatch")
	}
	if s.AliasOutputs == 0 || s.AliasOutputs >= u.Graph.OutputCount() {
		t.Errorf("alias-related outputs %d of %d", s.AliasOutputs, u.Graph.OutputCount())
	}
}

func TestCensusAndTotals(t *testing.T) {
	u := load(t, sample)
	res := core.AnalyzeInsensitive(u.Graph)
	c := stats.Census(u.Graph, res.Sets)
	if c.Total != c.Pointer+c.Function+c.Aggregate+c.Store {
		t.Fatalf("census does not add up: %+v", c)
	}
	if c.Store == 0 || c.Pointer == 0 {
		t.Fatalf("expected store and pointer pairs: %+v", c)
	}
	var sum stats.PairCensus
	sum.Add(c)
	sum.Add(c)
	if sum.Total != 2*c.Total {
		t.Fatal("Add broken")
	}
}

func TestCountIndirect(t *testing.T) {
	u := load(t, sample)
	res := core.AnalyzeInsensitive(u.Graph)
	io := stats.CountIndirect(u.Graph, res.Sets)
	// *p = 1 is an indirect write at one location; *gb.item an indirect
	// read at one location. Everything else is direct.
	if io.Writes.Total != 1 || io.Reads.Total != 1 {
		t.Fatalf("indirect ops: %d reads, %d writes", io.Reads.Total, io.Writes.Total)
	}
	if io.Reads.N[0] != 1 || io.Writes.N[0] != 1 {
		t.Fatalf("histograms: %+v %+v", io.Reads, io.Writes)
	}
	if io.Reads.Avg() != 1.0 {
		t.Fatalf("avg %f", io.Reads.Avg())
	}
}

func TestHistogramBuckets(t *testing.T) {
	u := load(t, `
int a, b, c, d, e;
int *q;
int main(void) {
	int k;
	k = 0;
	if (k) q = &a;
	if (k > 1) q = &b;
	if (k > 2) q = &c;
	if (k > 3) q = &d;
	if (k > 4) q = &e;
	return *q;
}
`)
	res := core.AnalyzeInsensitive(u.Graph)
	io := stats.CountIndirect(u.Graph, res.Sets)
	if io.Reads.Total != 1 || io.Reads.N[3] != 1 || io.Reads.Max != 5 {
		t.Fatalf("bucket >=4 not hit: %+v", io.Reads)
	}
}

func TestZeroReferentOps(t *testing.T) {
	u := load(t, `
int main(void) {
	int *p;
	p = 0;
	if (p) return *p;
	return 0;
}
`)
	res := core.AnalyzeInsensitive(u.Graph)
	io := stats.CountIndirect(u.Graph, res.Sets)
	if io.Reads.Total != 1 || io.Reads.Zero != 1 {
		t.Fatalf("null-only read not counted: %+v", io.Reads)
	}
	if io.Reads.Avg() != 0 {
		t.Fatalf("avg over a null-only read: %f", io.Reads.Avg())
	}
}

func TestSpuriousAndDiff(t *testing.T) {
	u := load(t, `
int a, b;
int *pa, *pb;
void set(int **r, int *v) { *r = v; }
int main(void) {
	set(&pa, &a);
	set(&pb, &b);
	return *pa;
}
`)
	ci := core.AnalyzeInsensitive(u.Graph)
	cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: 1_000_000})
	csSets := cs.Strip()

	sp := stats.SpuriousPairs(u.Graph, ci.Sets, csSets)
	if len(sp) == 0 {
		t.Fatal("pollution example must have spurious pairs")
	}
	// Identity: spurious(x, x) is empty.
	if n := len(stats.SpuriousPairs(u.Graph, ci.Sets, ci.Sets)); n != 0 {
		t.Fatalf("self-spurious = %d", n)
	}

	// *pa reads {a,b} under CI but {a} under CS: one differing op.
	diff := stats.IndirectDiff(u.Graph, ci.Sets, csSets)
	if len(diff) != 1 {
		t.Fatalf("%d differing indirect ops, want 1 (the *pa read)", len(diff))
	}
}

// TestIndirectDiffSets drives IndirectDiff on one indirect read, *p,
// with hand-built location sets: an operation differs exactly when the
// two solutions' ε-path referents differ as sets. Order, nil versus
// empty, and offset pairs do not count.
func TestIndirectDiffSets(t *testing.T) {
	u := load(t, `
int a, b;
int *p;
int main(void) {
	int t;
	t = 1;
	p = &a;
	if (t) {
		p = &b;
	}
	return *p;
}
`)
	g := u.Graph
	var loc *vdg.Output
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KLookup && n.Indirect {
				loc = n.Loc()
			}
		}
	}
	ref := core.AnalyzeInsensitive(g).Sets[loc]
	if ref == nil || ref.Len() != 2 {
		t.Fatalf("*p must read two referents under CI, got %v", ref)
	}
	ra, rb := ref.List()[0], ref.List()[1]
	offset := core.Pair{Path: g.Universe.Field(g.Universe.Empty(), "f"), Ref: rb.Ref}
	set := func(ps ...core.Pair) *core.PairSet {
		s := core.NewPairSet(g.Universe)
		for _, p := range ps {
			s.Add(p)
		}
		return s
	}
	for _, c := range []struct {
		name string
		a, b *core.PairSet
		diff bool
	}{
		{"nil/nil", nil, nil, false},
		{"empty/nil", set(), nil, false},
		{"nil/empty", nil, set(), false},
		{"equal in another order", set(ra, rb), set(rb, ra), false},
		{"offset pairs ignored", set(ra, offset), set(ra), false},
		{"subset", set(ra), set(ra, rb), true},
		{"superset", set(ra, rb), set(rb), true},
		{"disjoint", set(ra), set(rb), true},
		{"nil/nonempty", nil, set(ra), true},
		{"nonempty/empty", set(rb), set(), true},
	} {
		a := map[*vdg.Output]*core.PairSet{}
		b := map[*vdg.Output]*core.PairSet{}
		if c.a != nil {
			a[loc] = c.a
		}
		if c.b != nil {
			b[loc] = c.b
		}
		if got := len(stats.IndirectDiff(g, a, b)) == 1; got != c.diff {
			t.Errorf("%s: differs = %v, want %v", c.name, got, c.diff)
		}
		// Comparing allocates nothing; only a difference is recorded.
		if n := testing.AllocsPerRun(5, func() { stats.IndirectDiff(g, a, b) }); !c.diff && n != 0 {
			t.Errorf("%s: %.0f allocations comparing equal referent sets", c.name, n)
		}
	}
}

func TestTypeMatrix(t *testing.T) {
	u := load(t, sample)
	res := core.AnalyzeInsensitive(u.Graph)
	m := stats.BreakdownAll(u.Graph, res.Sets)
	if m.Total == 0 {
		t.Fatal("empty matrix")
	}
	sum := 0.0
	for _, pc := range stats.PathClasses {
		for _, rc := range stats.RefClasses {
			sum += m.Percent(pc, rc)
		}
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("percentages sum to %f", sum)
	}
	m2 := stats.NewTypeMatrix()
	m2.Merge(m)
	m2.Merge(m)
	if m2.Total != 2*m.Total {
		t.Fatal("Merge broken")
	}
	if m2.Percent(paths.GlobalClass, paths.GlobalClass) != m.Percent(paths.GlobalClass, paths.GlobalClass) {
		t.Fatal("Merge must preserve proportions")
	}
}

func TestCallGraphStats(t *testing.T) {
	u := load(t, `
void leaf(void) { }
void mid(void) { leaf(); }
int main(void) { mid(); leaf(); return 0; }
`)
	res := core.AnalyzeInsensitive(u.Graph)
	cg := stats.CallGraph(res)
	// leaf has two call sites, mid one; main none.
	if cg.Procedures != 2 {
		t.Fatalf("%d called procedures", cg.Procedures)
	}
	if cg.SingleCaller != 1 {
		t.Fatalf("%d single-caller procedures", cg.SingleCaller)
	}
	if cg.AvgCallers != 1.5 {
		t.Fatalf("avg callers %f", cg.AvgCallers)
	}
}
