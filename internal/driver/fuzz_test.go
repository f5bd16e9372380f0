package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/vdg"
)

// FuzzLoadAndSolve drives arbitrary source through the whole pipeline —
// parse, typecheck, VDG build, budgeted solves with every backend
// (context-insensitive plus the Andersen and Steensgaard constraint
// solvers). The budget keeps pathological inputs from hanging the
// fuzzer; the panic guards in the driver must convert any internal
// error into a returned error, so reaching a panic here is a real bug.
func FuzzLoadAndSolve(f *testing.F) {
	seeds := []string{
		"int main(void) { return 0; }",
		"int g; int *p; int main(void) { p = &g; return *p; }",
		`struct n { struct n *next; };
struct n a; struct n b;
int main(void) { a.next = &b; b.next = &a; return 0; }`,
		`void swap(int **p, int **q) { int *t; t = *p; *p = *q; *q = t; }
int x; int y;
int main(void) { int *u; int *v; u = &x; v = &y; swap(&u, &v); return *u; }`,
		"int f(void); int (*fp)(void) = f; int f(void) { return fp(); } int main(void) { return f(); }",
		"int main(void) { int *p; p = (int *) malloc(4); *p = 1; free(p); return 0; }",
		// Copy cycle through a loop: exercises the Andersen solver's
		// SCC collapsing and Steensgaard's chained unions.
		`int a; int b;
int main(void) { int *p; int *q; int i;
p = &a; q = &b;
for (i = 0; i < 4; i = i + 1) { int *t; t = p; p = q; q = t; }
return *p + *q; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Generator-minimized programs: each preserves the full indirect-op
	// surface of a corpusgen sweep unit under delta debugging, so the
	// committed corpus spans the generator's structural knobs (ADT
	// sharing, function pointers, deep indirection, recursion) in
	// near-minimal form. Regenerate with
	// `corpusgen -n 20 -seed 11 -dir internal/driver/testdata/fuzz-seeds -minimize`.
	ents, err := os.ReadDir("testdata/fuzz-seeds")
	if err != nil {
		f.Fatalf("reading committed fuzz seeds: %v", err)
	}
	found := 0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("testdata/fuzz-seeds", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
		found++
	}
	if found == 0 {
		f.Fatal("testdata/fuzz-seeds holds no .c seeds")
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := driver.LoadString("fuzz.c", src, vdg.Options{})
		if err != nil {
			if pe, ok := limits.AsPanic(err); ok {
				t.Fatalf("front end panicked: %s", pe.Detail())
			}
			return // ordinary diagnostics: expected on arbitrary input
		}
		budget := limits.Budget{MaxSteps: 20_000, MaxPairs: 50_000}
		res := core.AnalyzeInsensitiveBudgeted(u.Graph, budget)
		if res == nil {
			t.Fatal("budgeted solve returned nil result")
		}
		if res.Stopped == nil && res.Engine.Steps >= budget.MaxSteps {
			t.Fatalf("solver did %d flow-ins past the %d-step budget without reporting a stop",
				res.Engine.Steps, budget.MaxSteps)
		}
		and := andersen.AnalyzeBudgeted(u.Graph, budget)
		st := steensgaard.AnalyzeBudgeted(u.Graph, budget)
		if and == nil || st == nil {
			t.Fatal("budgeted constraint-backend solve returned nil result")
		}
		if res.Stopped == nil && and.Stopped == nil && st.Stopped == nil {
			// All three converged: spot-check the frontier's soundness
			// chain on arbitrary input — every CI pair must survive into
			// the coarser flow-insensitive solutions.
			for o, set := range res.Sets {
				for _, p := range set.List() {
					if s := and.Sets[o]; s == nil || !s.Has(p) {
						t.Fatalf("CI pair %v missing from the andersen solution", p)
					}
				}
			}
			for o, set := range and.Sets {
				for _, p := range set.List() {
					if s := st.Sets[o]; s == nil || !s.Has(p) {
						t.Fatalf("andersen pair %v missing from the steensgaard solution", p)
					}
				}
			}
		}
	})
}
