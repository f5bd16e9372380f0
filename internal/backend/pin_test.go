package backend_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/driver"
	"aliaslab/internal/experiments"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/solve_pin.golden")

// storeScanSrc is a unit on which a load's own match grows the
// location set of a later load within one store arrival. Under
// unification q's loop cell is read before and after q = *p, and the
// store pair (s.f → s) lands only once the load of h resolves, after p
// already points at s.f: the arrival's scan of q's cell (holding s0)
// must then extend over the referent s that q = *p adds, which w = *q
// matches against s.f. The sampled population never reaches this case.
const storeScanSrc = `
struct S { struct S *f; };
struct S s;
struct S s0;
struct S *h;
int main(void) {
	struct S **p;
	struct S *q;
	struct S v;
	struct S w;
	int t;
	p = &s.f;
	h = &s;
	s.f = h;
	q = &s0;
	t = 1;
	while (t) {
		v = *q;
		q = *p;
		w = *q;
	}
	return 0;
}
`

// pinUnits is the pinned workload: the 13 corpus programs, the first
// 200 units of the seed-42 corpusgen sweep (the population the
// benchmark's population workload draws from), and storeScanSrc.
func pinUnits(t *testing.T) (names []string, graphs []*vdg.Graph) {
	t.Helper()
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		graphs = append(graphs, u.Graph)
	}
	for _, p := range corpusgen.Sweep(42, 200) {
		u, err := p.Load(vdg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, p.Name)
		graphs = append(graphs, u.Graph)
	}
	u, err := driver.LoadString("storescan.c", storeScanSrc, vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return append(names, "storescan"), append(graphs, u.Graph)
}

// digest is a short hash of a deterministic rendering.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) f(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

func (d digest) key(k core.Key) { d.f("(%d,%d)", k.PathID(), k.RefID()) }

// stats renders every solver counter by name, so the digest follows the
// counters' values and not the shape of the Stats type.
func (d digest) stats(st solver.Stats) {
	d.f("steps=%d meets=%d inserts=%d subsume-hits=%d subsume-drops=%d enqueued=%d peak=%d depth-sum=%d constraints=%d edges=%d sccs=%d unions=%d",
		st.Steps, st.Meets, st.PairInserts, st.SubsumeHits, st.SubsumeDrops, st.Enqueued, st.PeakDepth, st.DepthSum,
		st.Constraints, st.EdgesAdded, st.SCCsCollapsed, st.Unions)
}

func (d digest) callees(g *vdg.Graph, callees map[*vdg.Node][]*vdg.FuncGraph) {
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			for _, c := range callees[n] {
				d.f("call n%d→%s\n", n.ID, c.Fn.Name)
			}
		}
	}
}

// digestSensitive renders every engine counter, each output's qualified
// pairs in QSet.All order (assumptions as ID triples), the stripped sets
// in key order, and the call graph.
func digestSensitive(g *vdg.Graph, res *core.SensitiveResult) string {
	d := newDigest()
	d.stats(res.Engine)
	d.f(" aborted=%v\n", res.Aborted)
	stripped := res.Strip()
	g.Outputs(func(o *vdg.Output) {
		qs, ok := res.QSets[o]
		if !ok {
			return
		}
		d.f("o%d:", o.ID)
		for _, q := range qs.All() {
			d.key(core.KeyOf(q.P))
			d.f("{")
			for _, a := range q.A.Elems {
				d.f("%d:", a.Formal.ID)
				d.key(core.KeyOf(a.P))
			}
			d.f("}")
		}
		d.f(" strip")
		for _, k := range stripped[o].Keys() {
			d.key(k)
		}
		d.f("\n")
	})
	d.callees(g, res.Callees)
	return d.sum()
}

// digestBackend renders every engine counter, each output's set in
// Keys order, and the call graph.
func digestBackend(g *vdg.Graph, res *core.Result) string {
	d := newDigest()
	d.stats(res.Engine)
	d.f(" stopped=%v\n", res.Stopped != nil)
	g.Outputs(func(o *vdg.Output) {
		s, ok := res.Sets[o]
		if !ok {
			return
		}
		d.f("o%d:", o.ID)
		for _, k := range s.Keys() {
			d.key(k)
		}
		d.f("\n")
	})
	d.callees(g, res.Callees)
	return d.sum()
}

// TestSolversPinned pins the CI and CS solvers and both constraint
// backends to exact counters and iteration orders: a digest of every
// solver.Stats field, every qualified set in QSet.All order and every
// CI or backend set in Keys order, per unit, must match the recorded
// golden. Layout work on
// these solvers (dense tables, hoisted scans) may change how they
// store and scan, never what they do or in which order; -update
// rewrites the golden when a change means to alter either.
func TestSolversPinned(t *testing.T) {
	names, graphs := pinUnits(t)
	var sb strings.Builder
	for i, g := range graphs {
		ci := core.AnalyzeInsensitive(g)
		cs := core.AnalyzeSensitive(g, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
		wide := core.AnalyzeSensitive(g, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps, MaxAssumptions: 1})
		fmt.Fprintf(&sb, "%s ci=%s cs=%s cs-widened=%s andersen=%s steensgaard=%s\n", names[i],
			digestBackend(g, ci), digestSensitive(g, cs), digestSensitive(g, wide),
			digestBackend(g, andersen.Analyze(g)), digestBackend(g, steensgaard.Analyze(g)))
	}
	path := filepath.Join("testdata", "solve_pin.golden")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(sb.String(), "\n")
	exp := strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Fatalf("pinned %d units, golden has %d lines", len(got)-1, len(exp)-1)
	}
	bad := 0
	for i := range got {
		if got[i] != exp[i] {
			bad++
			if bad <= 10 {
				t.Errorf("unit digest differs:\n got %s\nwant %s", got[i], exp[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d units differ in all", bad)
	}
}
