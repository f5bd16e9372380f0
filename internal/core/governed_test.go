package core_test

// Degradation tests: adversarial fixtures (deep pointer chains,
// recursive struct cycles, wide call fan-out with pointer swapping)
// driven through AnalyzeGoverned with budgets tuned at runtime from
// the fixture's own measured work, asserting that (a) budgeted runs
// terminate under the limit, (b) degraded results remain sound
// supersets of the exact answers, and (c) the degradation tier is
// reported.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/vdg"
)

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

func TestGovernedUnlimitedMatchesExactAnalyses(t *testing.T) {
	for _, src := range []string{deepChainSrc(12), structCycleSrc(8), swapRecSrc(6)} {
		u := load(t, src)
		got := core.AnalyzeGoverned(u.Graph, core.GovernedOptions{Sensitive: true})
		if got.Tier != core.TierFull || got.Degraded() {
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
		got := core.AnalyzeGoverned(u.Graph, core.GovernedOptions{
			Sensitive: true,
			Budget:    limits.Budget{Ctx: ctx, MaxSteps: 200, MaxPairs: 200},
		})
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
	if exactCS.Metrics.FlowIns <= exactCI.Metrics.FlowIns+2 {
		t.Fatalf("fixture not adversarial: CI %d flow-ins, CS %d",
			exactCI.Metrics.FlowIns, exactCS.Metrics.FlowIns)
	}
	budget := limits.Budget{MaxSteps: (exactCI.Metrics.FlowIns + exactCS.Metrics.FlowIns) / 2}

	got := core.AnalyzeGoverned(u.Graph, core.GovernedOptions{Sensitive: true, Budget: budget})
	if got.Tier != core.TierCIFallback {
		t.Fatalf("tier = %v, want ci-fallback (notes: %v)", got.Tier, got.Notes)
	}
	if !got.Degraded() || got.Stopped == nil {
		t.Fatalf("fallback not marked degraded: %+v", got)
	}
	if !got.Tier.Sound() {
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
	got := core.AnalyzeGoverned(u.Graph, core.GovernedOptions{
		Sensitive: true, Budget: limits.Budget{Ctx: ctx},
	})
	if got.Tier != core.TierPartialCI {
		t.Fatalf("tier = %v, want partial-ci", got.Tier)
	}
	if got.Tier.Sound() {
		t.Fatal("a partial CI fixpoint must not be marked sound")
	}
	if got.Stopped == nil || got.Stopped.Reason != limits.Deadline {
		t.Fatalf("want Deadline violation, got %v", got.Stopped)
	}
}

// TestBudgetedCIMatchesUnbudgetedWhenUnderLimit: a budget the fixture
// fits inside must not perturb the result.
func TestBudgetedCIMatchesUnbudgetedWhenUnderLimit(t *testing.T) {
	u := load(t, structCycleSrc(8))
	plain := core.AnalyzeInsensitive(u.Graph)
	budgeted := core.AnalyzeInsensitiveBudgeted(u.Graph, limits.Budget{
		MaxSteps: plain.Metrics.FlowIns + 1,
		MaxPairs: plain.Metrics.Pairs + 1,
	})
	if budgeted.Stopped != nil {
		t.Fatalf("budget with headroom tripped: %v", budgeted.Stopped)
	}
	if budgeted.Metrics != plain.Metrics {
		t.Fatalf("metrics differ: %+v vs %+v", budgeted.Metrics, plain.Metrics)
	}
	requireSubset(t, "plain ⊆ budgeted", plain.Sets, budgeted.Sets)
	requireSubset(t, "budgeted ⊆ plain", budgeted.Sets, plain.Sets)
}
