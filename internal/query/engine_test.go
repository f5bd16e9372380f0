package query_test

import (
	"encoding/json"
	"testing"

	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/query"
	"aliaslab/internal/vdg"
)

const basicSrc = `
struct node { struct node *next; int v; };

int g;
int *gp;

void link(struct node *a, struct node *b) {
	a->next = b;
}

int main() {
	int x;
	int y;
	int *p;
	int *q;
	struct node n1;
	struct node n2;
	p = &x;
	q = &y;
	gp = &g;
	link(&n1, &n2);
	*p = 1;
	*q = 2;
	return *gp + n1.next->v;
}
`

func load(t *testing.T, src string) *driver.Unit {
	t.Helper()
	u, err := driver.LoadString("test.c", src, vdg.Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return u
}

func TestPointsToBasic(t *testing.T) {
	u := load(t, basicSrc)
	e := query.New(u.Graph, query.Options{})

	ans, err := e.PointsTo("p")
	if err != nil {
		t.Fatalf("pointsto(p): %v", err)
	}
	if ans.Verdict != "ok" || len(ans.PointsTo) != 1 || ans.PointsTo[0] != "main.x" {
		t.Fatalf("pointsto(p) = %+v, want [main.x]", ans)
	}
	if ans.Slice.Outputs == 0 || ans.Slice.Outputs >= ans.Slice.TotalOutputs {
		t.Fatalf("slice should be a proper nonempty subset: %+v", ans.Slice)
	}

	ans, err = e.PointsTo("gp")
	if err != nil {
		t.Fatalf("pointsto(gp): %v", err)
	}
	if ans.Verdict != "ok" || len(ans.PointsTo) != 1 || ans.PointsTo[0] != "g" {
		t.Fatalf("pointsto(gp) = %+v, want [g]", ans)
	}

	ans, err = e.PointsTo("n1.next")
	if err != nil {
		t.Fatalf("pointsto(n1.next): %v", err)
	}
	if ans.Verdict != "ok" || len(ans.PointsTo) != 1 || ans.PointsTo[0] != "main.n2" {
		t.Fatalf("pointsto(n1.next) = %+v, want [main.n2]", ans)
	}
}

func TestMayAliasBasic(t *testing.T) {
	u := load(t, basicSrc)
	e := query.New(u.Graph, query.Options{})

	yes, err := e.MayAlias("p", "p")
	if err != nil {
		t.Fatal(err)
	}
	if yes.Verdict != "yes" || yes.Witness != "main.x" {
		t.Fatalf("mayalias(p,p) = %+v, want yes/main.x", yes)
	}

	no, err := e.MayAlias("p", "q")
	if err != nil {
		t.Fatal(err)
	}
	if no.Verdict != "no" {
		t.Fatalf("mayalias(p,q) = %+v, want no", no)
	}
}

func TestUnknownVariableIsError(t *testing.T) {
	u := load(t, basicSrc)
	e := query.New(u.Graph, query.Options{})
	if _, err := e.PointsTo("nosuch"); err == nil {
		t.Fatal("pointsto(nosuch) should fail")
	}
	if _, err := query.Parse("frobnicate(p)"); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

// A declared pointer that is never dereferenced still answers; an
// expression whose access never occurs in the program answers unknown.
func TestNoLiveOccurrence(t *testing.T) {
	u := load(t, basicSrc)
	e := query.New(u.Graph, query.Options{})
	ans, err := e.PointsTo("**p") // p is int*, **p never occurs
	if err != nil {
		t.Fatal(err)
	}
	if ans.Verdict != "unknown" || ans.Reason == "" {
		t.Fatalf("pointsto(**p) = %+v, want unknown with reason", ans)
	}
}

func TestMemoHitSharesSlices(t *testing.T) {
	u := load(t, basicSrc)
	reg := obs.NewRegistry()
	e := query.New(u.Graph, query.Options{Registry: reg})

	cold, err := e.PointsTo("p")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Slice.MemoHit {
		t.Fatalf("first query must miss: %+v", cold.Slice)
	}
	warm, err := e.PointsTo("p")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Slice.MemoHit || warm.Slice.Steps != 0 {
		t.Fatalf("second query must hit with no new work: %+v", warm.Slice)
	}
	// Answers must agree bytewise modulo the slice stats.
	cold.Slice, warm.Slice = query.SliceStats{}, query.SliceStats{}
	cb, _ := json.Marshal(cold)
	wb, _ := json.Marshal(warm)
	if string(cb) != string(wb) {
		t.Fatalf("memo hit answer differs from cold:\n%s\n%s", cb, wb)
	}
}

// The budget path: a one-step budget must stop the demand solve,
// produce an unknown verdict, and install nothing in the memo.
func TestBudgetStopIsUnknownAndUncached(t *testing.T) {
	u := load(t, basicSrc)
	e := query.New(u.Graph, query.Options{Budget: limits.Budget{MaxSteps: 1}})
	ans, err := e.PointsTo("n1.next")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Verdict != "unknown" || ans.Reason == "" {
		t.Fatalf("budget-stopped query = %+v, want unknown", ans)
	}
	again, err := e.PointsTo("p")
	if err != nil {
		t.Fatal(err)
	}
	if again.Slice.MemoHit {
		t.Fatal("stopped solve must not install memo entries")
	}
}

// Every corpus unit answers a pointsto query for every variable the
// resolver knows, and the demand sets match the exhaustive fixpoint on
// the anchors (the full differential check lives in oracle.CheckDemand;
// this is the quick in-package version).
func TestCorpusDemandMatchesExhaustive(t *testing.T) {
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exh := core.AnalyzeInsensitive(u.Graph)
		e := query.New(u.Graph, query.Options{})
		for _, x := range query.VarExprs(u.Graph, 0) {
			q := query.Query{Kind: query.KindPointsTo, Exprs: []query.Expr{x}}
			anchors, err := e.Resolve(x)
			if err != nil {
				t.Fatalf("%s: resolve %s: %v", name, x, err)
			}
			got, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			want := query.Evaluate(q, [][]*vdg.Output{anchors}, exh.Pairs)
			if got.Query != want.Query || len(got.PointsTo) != len(want.PointsTo) {
				t.Fatalf("%s: %s: demand %v vs exhaustive %v", name, q, got.PointsTo, want.PointsTo)
			}
			for i := range got.PointsTo {
				if got.PointsTo[i] != want.PointsTo[i] {
					t.Fatalf("%s: %s: demand %v vs exhaustive %v", name, q, got.PointsTo, want.PointsTo)
				}
			}
		}
	}
}
