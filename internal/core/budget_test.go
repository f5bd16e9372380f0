package core_test

// Budget tests for the context-insensitive solver itself; the
// degradation ladder over it is tested in internal/solve.

import (
	"fmt"
	"strings"
	"testing"

	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/vdg"
)

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

// TestBudgetedCIMatchesUnbudgetedWhenUnderLimit: a budget the fixture
// fits inside must not perturb the result.
func TestBudgetedCIMatchesUnbudgetedWhenUnderLimit(t *testing.T) {
	u := load(t, structCycleSrc(8))
	plain := core.AnalyzeInsensitive(u.Graph)
	budgeted := core.AnalyzeInsensitiveBudgeted(u.Graph, limits.Budget{
		MaxSteps: plain.Engine.Steps + 1,
		MaxPairs: plain.Engine.PairInserts + 1,
	})
	if budgeted.Stopped != nil {
		t.Fatalf("budget with headroom tripped: %v", budgeted.Stopped)
	}
	if b, p := budgeted.Engine, plain.Engine; b.Steps != p.Steps || b.Meets != p.Meets || b.PairInserts != p.PairInserts {
		t.Fatalf("metrics differ: %+v vs %+v", b, p)
	}
	requireSubset(t, "plain ⊆ budgeted", plain.Sets, budgeted.Sets)
	requireSubset(t, "budgeted ⊆ plain", budgeted.Sets, plain.Sets)
}
