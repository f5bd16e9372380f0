package backend_test

import (
	"testing"

	"aliaslab/internal/backend"
	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/oracle"
	"aliaslab/internal/vdg"
)

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want backend.Kind
		err  bool
	}{
		{"", backend.CI, false},
		{"ci", backend.CI, false},
		{"cs", backend.CS, false},
		{"andersen", backend.Andersen, false},
		{"steensgaard", backend.Steensgaard, false},
		{"anderson", backend.CI, true},
	} {
		got, err := backend.ParseKind(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseKind(%q): err = %v, want err = %v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseKind(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, k := range backend.Kinds() {
		rt, err := backend.ParseKind(k.String())
		if err != nil || rt != k {
			t.Errorf("ParseKind(%v.String()) = %v, %v; want round trip", k, rt, err)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := backend.NewUnionFind(8)
	if k, a := uf.Union(1, 2); k == a {
		t.Fatal("first union reported no merge")
	}
	if k, a := uf.Union(2, 1); k != a {
		t.Fatal("repeat union reported a merge")
	}
	uf.Union(3, 4)
	uf.Union(1, 3)
	r := uf.Find(4)
	for _, c := range []int32{1, 2, 3} {
		if uf.Find(c) != r {
			t.Errorf("cell %d not merged with 4", c)
		}
	}
	if uf.Find(5) == r {
		t.Error("cell 5 merged spuriously")
	}
}

// TestCorpusLattice is the backend half of the precision lattice: on
// every corpus program, under both build modes, the CI solution is a
// pointwise subset of Andersen's and Andersen's of Steensgaard's.
// (internal/oracle re-asserts this as part of the full oracle; the copy
// here keeps backend development self-contained.)
func TestCorpusLattice(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts vdg.Options
	}{
		{"plain", vdg.Options{}},
		{"diagnostics", vdg.Options{Diagnostics: true}},
	} {
		for _, name := range corpus.Names() {
			t.Run(mode.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				u, err := corpus.Load(name, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				ci := core.AnalyzeInsensitive(u.Graph)
				and := andersen.Analyze(u.Graph)
				st := steensgaard.Analyze(u.Graph)
				for _, v := range oracle.SubsetPerOutput(name, "ci-subset-andersen", u.Graph, ci.Sets, and.Sets) {
					t.Errorf("%s", v)
				}
				for _, v := range oracle.SubsetPerOutput(name, "andersen-subset-steensgaard", u.Graph, and.Sets, st.Sets) {
					t.Errorf("%s", v)
				}
				if and.Stopped != nil || st.Stopped != nil {
					t.Error("unbudgeted backend run reports Stopped")
				}
			})
		}
	}
}

// TestBackendCounters: the new solver.Stats counters are populated by
// the runs they belong to and stay zero elsewhere.
func TestBackendCounters(t *testing.T) {
	u, err := corpus.Load(corpus.Names()[0], vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci := core.AnalyzeInsensitive(u.Graph)
	if ci.Engine.Constraints != 0 || ci.Engine.EdgesAdded != 0 || ci.Engine.Unions != 0 {
		t.Errorf("CI run populated backend counters: %+v", ci.Engine)
	}
	and := andersen.Analyze(u.Graph)
	if and.Engine.Constraints == 0 || and.Engine.EdgesAdded == 0 {
		t.Errorf("andersen run left constraint counters zero: %+v", and.Engine)
	}
	if and.Engine.Unions != 0 {
		t.Errorf("andersen run counted unification merges: %+v", and.Engine)
	}
	st := steensgaard.Analyze(u.Graph)
	if st.Engine.Constraints == 0 || st.Engine.Unions == 0 {
		t.Errorf("steensgaard run left constraint/union counters zero: %+v", st.Engine)
	}
	if st.Engine.EdgesAdded != 0 || st.Engine.SCCsCollapsed != 0 {
		t.Errorf("steensgaard run counted inclusion edges: %+v", st.Engine)
	}
}

// TestBudgetStops: a tiny pair budget halts both backends with Stopped
// set rather than running to the fixpoint.
func TestBudgetStops(t *testing.T) {
	u, err := corpus.Load("compress", vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := limits.Budget{MaxPairs: 10}
	if res := andersen.AnalyzeBudgeted(u.Graph, b); res.Stopped == nil {
		t.Error("andersen under MaxPairs=10 did not stop")
	}
	if res := steensgaard.AnalyzeBudgeted(u.Graph, b); res.Stopped == nil {
		t.Error("steensgaard under MaxPairs=10 did not stop")
	}
}

// TestSCCCollapse: a loop-carried copy cycle (gamma feeding itself
// through the loop back edge) must be collapsed, and the collapse must
// not change the solution.
func TestSCCCollapse(t *testing.T) {
	const src = `
int a, b;
int main(void) {
    int *p; int *q; int i;
    p = &a;
    q = &b;
    for (i = 0; i < 10; i = i + 1) {
        int *t;
        t = p;
        p = q;
        q = t;
    }
    return *p + *q;
}
`
	u, err := driver.LoadString("scc.c", src, vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := andersen.Analyze(u.Graph)
	if res.Engine.SCCsCollapsed == 0 {
		t.Errorf("swap loop collapsed no SCCs: %+v", res.Engine)
	}
	ci := core.AnalyzeInsensitive(u.Graph)
	for _, v := range oracle.SubsetPerOutput("scc", "ci-subset-andersen", u.Graph, ci.Sets, res.Sets) {
		t.Errorf("%s", v)
	}
}
