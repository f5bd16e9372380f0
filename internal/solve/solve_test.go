package solve_test

// Dispatch tests: every backend kind under no cap, a cap that trips
// its first attempt, and a cap that trips only the context-sensitive
// attempt, checked against the direct solvers; then the degradation
// ladder on adversarial fixtures (deep pointer chains, recursive
// struct cycles, wide call fan-out with pointer swapping), with
// budgets tuned at runtime from the fixture's own measured work.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"aliaslab/internal/backend"
	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/solve"
	"aliaslab/internal/vdg"
)

// load builds a unit from source, failing the test on any diagnostic.
func load(t *testing.T, src string) *driver.Unit {
	t.Helper()
	u, err := driver.LoadString("test.c", src, vdg.Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return u
}

// deepChainSrc builds an n-level pointer chain: x1 = &x0, x2 = &x1, …
// with a full-depth dereference at the end.
func deepChainSrc(n int) string {
	var sb strings.Builder
	sb.WriteString("int x0;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "int %sx%d;\n", strings.Repeat("*", i), i)
	}
	sb.WriteString("int main() {\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "  x%d = &x%d;\n", i, i-1)
	}
	fmt.Fprintf(&sb, "  return %sx%d;\n}\n", strings.Repeat("*", n), n)
	return sb.String()
}

// structCycleSrc builds recursive struct cycles: a doubly linked ring
// threaded through shared link/advance routines.
func structCycleSrc(n int) string {
	var sb strings.Builder
	sb.WriteString("struct node { struct node *next; struct node *prev; int v; };\n")
	fmt.Fprintf(&sb, "struct node nodes[%d];\n", n)
	sb.WriteString(`
struct node *advance(struct node *n) { return n->next; }
void link(struct node *a, struct node *b) { a->next = b; b->prev = a; }
void walk(struct node *n) { while (n->v) { n = advance(n); n = n->prev->next; } }
int main() {
`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  link(&nodes[%d], &nodes[%d]);\n", i, (i+1)%n)
	}
	sb.WriteString("  walk(&nodes[0]);\n  return 0;\n}\n")
	return sb.String()
}

// swapRecSrc builds wide call fan-out into a recursive pointer-swapping
// procedure: every formal may denote many locations (defeating the
// single-location pruning), so the context-sensitive analysis pays for
// assumption tracking that the insensitive one does not.
func swapRecSrc(k int) string {
	var sb strings.Builder
	sb.WriteString("int c;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "int t%d;\n", i)
	}
	sb.WriteString(`
void fill(int **p, int **q) {
  int *tmp;
  if (c) { fill(q, p); }
  tmp = *p;
  *p = *q;
  *q = tmp;
}
int main() {
  int *u; int *v;
`)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "  if (c == %d) { u = &t%d; } else { v = &t%d; }\n", i, i, i)
	}
	sb.WriteString("  fill(&u, &v);\n  fill(&v, &u);\n  return **(&u);\n}\n")
	return sb.String()
}

// requireSubset asserts every pair of a appears in b, per output.
func requireSubset(t *testing.T, what string, a, b map[*vdg.Output]*core.PairSet) {
	t.Helper()
	for o, sa := range a {
		sb := b[o]
		for _, p := range sa.List() {
			if sb == nil || !sb.Has(p) {
				t.Fatalf("%s: pair %s -> %s on %s output missing from the larger set",
					what, p.Path, p.Ref, o.Node.Kind)
			}
		}
	}
}

// direct runs kind's solver without the dispatch: the reference the
// table compares every outcome's sets against.
func direct(g *vdg.Graph, kind backend.Kind, b limits.Budget) map[*vdg.Output]*core.PairSet {
	switch kind {
	case backend.Andersen:
		return andersen.AnalyzeBudgeted(g, b).Sets
	case backend.Steensgaard:
		return steensgaard.AnalyzeBudgeted(g, b).Sets
	}
	ci := core.AnalyzeInsensitiveBudgeted(g, b)
	if kind == backend.CI || ci.Stopped != nil {
		return ci.Sets
	}
	cs := core.AnalyzeSensitive(g, core.SensitiveOptions{CI: ci, Budget: b})
	if cs.Stopped != nil {
		return ci.Sets
	}
	return cs.Strip()
}

func TestSolveTable(t *testing.T) {
	u := load(t, swapRecSrc(12))
	g := u.Graph

	// Place the CS-only cap above every one-attempt solve and below the
	// context-sensitive attempt, from the fixture's own measured work.
	ci := core.AnalyzeInsensitive(g)
	cs := core.AnalyzeSensitive(g, core.SensitiveOptions{CI: ci})
	fits := max(ci.Engine.Steps, andersen.Analyze(g).Engine.Steps, steensgaard.Analyze(g).Engine.Steps)
	if cs.Engine.Steps <= fits+1 {
		t.Fatalf("fixture not adversarial: CS %d steps, every other solve fits in %d", cs.Engine.Steps, fits)
	}
	csOnly := (fits + cs.Engine.Steps) / 2
	stopNote := func(n int) string {
		return fmt.Sprintf("limits: step budget exhausted (%d)", n)
	}

	type want struct {
		tier     solve.Tier
		label    string
		attempts []backend.Kind
		notes    []string
	}
	for _, tc := range []struct {
		kind backend.Kind
		cap  int
		want want
	}{
		{backend.CI, 0, want{solve.Full, "context-insensitive", []backend.Kind{backend.CI}, nil}},
		{backend.CI, 1, want{solve.PartialCI, "context-insensitive (degraded: partial-ci)", []backend.Kind{backend.CI},
			[]string{"context-insensitive analysis stopped early: " + stopNote(1)}}},
		{backend.CI, csOnly, want{solve.Full, "context-insensitive", []backend.Kind{backend.CI}, nil}},

		{backend.CS, 0, want{solve.Full, "context-sensitive", []backend.Kind{backend.CI, backend.CS}, nil}},
		{backend.CS, 1, want{solve.PartialCI, "context-sensitive (degraded: partial-ci)", []backend.Kind{backend.CI},
			[]string{"context-insensitive analysis stopped early: " + stopNote(1)}}},
		{backend.CS, csOnly, want{solve.CIFallback, "context-sensitive (degraded: ci-fallback)", []backend.Kind{backend.CI, backend.CS},
			[]string{"exact context-sensitive analysis stopped early: " + stopNote(csOnly), "fell back to the context-insensitive result"}}},

		{backend.Andersen, 0, want{solve.Full, "andersen (inclusion-based)", []backend.Kind{backend.Andersen}, nil}},
		{backend.Andersen, 1, want{solve.Partial, "andersen (inclusion-based)", []backend.Kind{backend.Andersen}, nil}},
		{backend.Andersen, csOnly, want{solve.Full, "andersen (inclusion-based)", []backend.Kind{backend.Andersen}, nil}},

		{backend.Steensgaard, 0, want{solve.Full, "steensgaard (unification-based)", []backend.Kind{backend.Steensgaard}, nil}},
		{backend.Steensgaard, 1, want{solve.Partial, "steensgaard (unification-based)", []backend.Kind{backend.Steensgaard}, nil}},
		{backend.Steensgaard, csOnly, want{solve.Full, "steensgaard (unification-based)", []backend.Kind{backend.Steensgaard}, nil}},
	} {
		t.Run(fmt.Sprintf("%s/cap=%d", tc.kind, tc.cap), func(t *testing.T) {
			b := limits.Budget{MaxSteps: tc.cap}
			o := solve.Solve(tc.kind, g, b, nil)
			w := tc.want
			if o.Kind != tc.kind || o.Tier != w.tier || o.Label != w.label {
				t.Errorf("kind %v tier %v label %q, want %v %v %q", o.Kind, o.Tier, o.Label, tc.kind, w.tier, w.label)
			}
			if sound := w.tier == solve.Full || w.tier == solve.CIFallback; o.Sound != sound {
				t.Errorf("Sound = %v, want %v", o.Sound, sound)
			}
			if o.Degraded() != (w.tier != solve.Full) || (o.Stopped == nil) != (w.tier == solve.Full) {
				t.Errorf("Degraded %v with Stopped %v at tier %v", o.Degraded(), o.Stopped, w.tier)
			}
			if !reflect.DeepEqual(o.Notes, w.notes) {
				t.Errorf("notes %q, want %q", o.Notes, w.notes)
			}
			var kinds []backend.Kind
			for _, a := range o.Attempts {
				kinds = append(kinds, a.Kind)
				if a.Stats.Steps == 0 || (tc.cap > 0 && a.Stats.Steps > tc.cap) {
					t.Errorf("%v attempt ran %d steps under cap %d", a.Kind, a.Stats.Steps, tc.cap)
				}
			}
			if !reflect.DeepEqual(kinds, w.attempts) {
				t.Errorf("attempts %v, want %v", kinds, w.attempts)
			}
			if (o.CS != nil) != (tc.kind == backend.CS && w.tier == solve.Full) {
				t.Errorf("CS result present = %v at tier %v", o.CS != nil, w.tier)
			}
			if o.CI == nil {
				t.Fatal("no CI-shaped result")
			}
			ref := direct(g, tc.kind, b)
			requireSubset(t, "outcome ⊆ direct", o.Sets, ref)
			requireSubset(t, "direct ⊆ outcome", ref, o.Sets)
		})
	}
}

func TestSolveSpansAndErr(t *testing.T) {
	u := load(t, swapRecSrc(4))
	tr := obs.New(obs.Config{})
	root := tr.StartSpan("unit")
	o := solve.Solve(backend.CS, u.Graph, limits.Budget{}, root)
	root.End()
	var names []string
	for _, c := range root.Children() {
		names = append(names, c.Name)
		if attrs := c.Attrs(); len(attrs) == 0 || attrs[0].Key != "steps" {
			t.Errorf("%s span carries no engine counters: %v", c.Name, attrs)
		}
	}
	if !reflect.DeepEqual(names, []string{"solve-ci", "solve-cs"}) {
		t.Fatalf("attempt spans %v, want [solve-ci solve-cs]", names)
	}
	if o.Err() != nil {
		t.Fatalf("converged outcome has Err %v", o.Err())
	}

	o = solve.Solve(backend.Andersen, u.Graph, limits.Budget{MaxSteps: 1}, nil)
	var v *limits.Violation
	if err := o.Err(); err == nil || !errors.As(err, &v) || err.Error() != "andersen analysis stopped early: limits: step budget exhausted (1)" {
		t.Fatalf("Err = %v", err)
	}
}

func TestVetKind(t *testing.T) {
	for name, want := range map[string]backend.Kind{"ci": backend.CI, "andersen": backend.Andersen, "steensgaard": backend.Steensgaard} {
		if k, err := solve.VetKind(name); err != nil || k != want {
			t.Errorf("VetKind(%q) = %v, %v; want %v", name, k, err, want)
		}
	}
	for _, name := range []string{"cs", "baseline", ""} {
		_, err := solve.VetKind(name)
		if err == nil || err.Error() != "vet runs on the ci, andersen, or steensgaard backend, not "+name {
			t.Errorf("VetKind(%q) error %v", name, err)
		}
	}
}

func TestTierNames(t *testing.T) {
	for tier, want := range map[solve.Tier][2]string{
		solve.Full:       {"full", ""},
		solve.CIFallback: {"ci-fallback", "ci-fallback"},
		solve.PartialCI:  {"partial-ci", "partial-ci"},
		solve.Partial:    {"partial", ""},
		solve.Tier(9):    {"solve.Tier(9)", ""},
	} {
		if got := [2]string{tier.String(), tier.Rung()}; got != want {
			t.Errorf("tier %d: String/Rung %q, want %q", int(tier), got, want)
		}
	}
}

func TestGovernedUnlimitedMatchesExactAnalyses(t *testing.T) {
	for _, src := range []string{deepChainSrc(12), structCycleSrc(8), swapRecSrc(6)} {
		u := load(t, src)
		got := solve.Solve(backend.CS, u.Graph, limits.Budget{}, nil)
		if got.Tier != solve.Full || got.Degraded() {
			t.Fatalf("unlimited budget degraded: tier=%v notes=%v", got.Tier, got.Notes)
		}
		want := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: core.AnalyzeInsensitive(u.Graph)}).Strip()
		requireSubset(t, "governed ⊆ exact", got.Sets, want)
		requireSubset(t, "exact ⊆ governed", want, got.Sets)
	}
}

func TestAdversarialFixturesTerminateUnderBudget(t *testing.T) {
	fixtures := map[string]string{
		"deep-chain":   deepChainSrc(40),
		"struct-cycle": structCycleSrc(24),
		"swap-rec":     swapRecSrc(24),
	}
	for name, src := range fixtures {
		u := load(t, src)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		start := time.Now()
		got := solve.Solve(backend.CS, u.Graph, limits.Budget{Ctx: ctx, MaxSteps: 200, MaxPairs: 200}, nil)
		cancel()
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("%s: budgeted run took %v", name, elapsed)
		}
		if got == nil || got.Sets == nil {
			t.Fatalf("%s: no result under budget", name)
		}
		if !got.Degraded() {
			t.Fatalf("%s: a 200-step budget should degrade (tier=%v)", name, got.Tier)
		}
		if got.Stopped == nil {
			t.Fatalf("%s: degraded result carries no Stopped violation", name)
		}
	}
}

// TestGovernedCIFallbackIsSupersetOfExactCI forces the context-
// sensitive attempt over budget while the context-insensitive pass
// fits, and verifies the fallback answer against an independently
// computed exact CI result.
func TestGovernedCIFallbackIsSupersetOfExactCI(t *testing.T) {
	u := load(t, swapRecSrc(12))

	// Measure the fixture's own work to place the budget between the
	// CI and the CS cost.
	exactCI := core.AnalyzeInsensitive(u.Graph)
	exactCS := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: exactCI})
	if exactCS.Engine.Steps <= exactCI.Engine.Steps+2 {
		t.Fatalf("fixture not adversarial: CI %d flow-ins, CS %d",
			exactCI.Engine.Steps, exactCS.Engine.Steps)
	}
	budget := limits.Budget{MaxSteps: (exactCI.Engine.Steps + exactCS.Engine.Steps) / 2}

	got := solve.Solve(backend.CS, u.Graph, budget, nil)
	if got.Tier != solve.CIFallback {
		t.Fatalf("tier = %v, want ci-fallback (notes: %v)", got.Tier, got.Notes)
	}
	if !got.Degraded() || got.Stopped == nil {
		t.Fatalf("fallback not marked degraded: %+v", got)
	}
	if !got.Sound {
		t.Fatalf("ci-fallback must be sound")
	}
	// The degraded answer must over-approximate the exact CI answer.
	requireSubset(t, "exact CI ⊆ degraded", exactCI.Sets, got.Sets)
	// And the exact CS answer (soundness all the way down).
	requireSubset(t, "exact CS ⊆ degraded", exactCS.Strip(), got.Sets)
	if len(got.Notes) != 2 {
		t.Fatalf("expected a two-step degradation trace, got %v", got.Notes)
	}
}

// TestGovernedDeadlineStopsCI: with an already-expired deadline even
// the CI pass stops; the result is partial and flagged unsound.
func TestGovernedDeadlineStopsCI(t *testing.T) {
	u := load(t, deepChainSrc(40)) // >pollInterval flow-ins so the gate polls ctx
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := solve.Solve(backend.CS, u.Graph, limits.Budget{Ctx: ctx}, nil)
	if got.Tier != solve.PartialCI {
		t.Fatalf("tier = %v, want partial-ci", got.Tier)
	}
	if got.Sound {
		t.Fatal("a partial CI fixpoint must not be marked sound")
	}
	if got.Stopped == nil || got.Stopped.Reason != limits.Deadline {
		t.Fatalf("want Deadline violation, got %v", got.Stopped)
	}
}
