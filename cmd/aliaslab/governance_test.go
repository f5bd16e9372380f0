package main

// CLI tests for the resource-governance flags: -timeout, -max-steps,
// -max-pairs, the degraded label in analysis output, the degraded vet
// exit status / JSON shape, and per-file caps in multi-file mode.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/vdg"
)

// swapRecCLISrc mirrors the adversarial fixture of the core degradation
// tests: wide fan-in to a recursive pointer-swapping procedure, which
// defeats the §4.2 single-location pruning and makes the exact
// context-sensitive analysis strictly more expensive than CI.
func swapRecCLISrc(k int) string {
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

// measureWork returns the flow-in counts of the exact CI and exact CS
// analyses so tests can place budgets between them instead of
// hardcoding step counts.
func measureWork(t *testing.T, src string) (ciIns, csIns int) {
	t.Helper()
	u, err := driver.LoadString("m.c", src, vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci := core.AnalyzeInsensitive(u.Graph)
	cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci})
	return ci.Engine.Steps, cs.Engine.Steps
}

func TestCSDegradesInsteadOfFailing(t *testing.T) {
	src := swapRecCLISrc(12)
	ciIns, csIns := measureWork(t, src)
	if ciIns >= csIns {
		t.Fatalf("fixture not adversarial: CI %d >= CS %d flow-ins", ciIns, csIns)
	}
	budget := (ciIns + csIns) / 2
	path := writeTemp(t, src)

	out, stderr, code := runCLI(t, "-backend", "cs", "-max-steps", fmt.Sprint(budget), "-print", "pointsto", path)
	if code != 0 {
		t.Fatalf("degraded-but-sound run must exit 0, got %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "(degraded:") {
		t.Fatalf("degraded run not labeled in output:\n%s", out)
	}
	if !strings.Contains(stderr, "stopped early") {
		t.Fatalf("degradation trace missing from stderr:\n%s", stderr)
	}
}

func TestPartialCIExitsNonzeroAndWarns(t *testing.T) {
	src := swapRecCLISrc(12)
	ciIns, _ := measureWork(t, src)
	path := writeTemp(t, src)

	out, stderr, code := runCLI(t, "-backend", "ci", "-max-steps", fmt.Sprint(ciIns/2), "-print", "pointsto", path)
	if code != 1 {
		t.Fatalf("unsound partial CI must exit 1, got %d", code)
	}
	if !strings.Contains(stderr, "NOT a sound") {
		t.Fatalf("missing soundness warning on stderr:\n%s", stderr)
	}
	if !strings.Contains(out, "partial-ci") {
		t.Fatalf("partial tier not labeled in output:\n%s", out)
	}
}

// TestBaselineHonoursBudget: the baseline's two solves (CI for the
// call graph, Andersen for the sets) run under the same per-attempt
// caps as every other analysis; a tripped one warns and exits 1
// instead of running unbounded.
func TestBaselineHonoursBudget(t *testing.T) {
	_, stderr, code := runCLI(t, "-backend", "baseline", "-max-steps", "10", "-print", "sizes", "-corpus", "bc")
	if code != 1 {
		t.Fatalf("tripped baseline must exit 1, got %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"aliaslab: warning: ci solve stopped early (limits: step budget exhausted (10))",
		"aliaslab: warning: andersen solve stopped early (limits: step budget exhausted (10))",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

func TestMaxPairsFlagTripsBudget(t *testing.T) {
	path := writeTemp(t, swapRecCLISrc(12))
	_, stderr, code := runCLI(t, "-backend", "ci", "-max-pairs", "3", "-print", "pointsto", path)
	if code != 1 || !strings.Contains(stderr, "pair budget") {
		t.Fatalf("pair cap not enforced: code=%d stderr:\n%s", code, stderr)
	}
}

func TestDefaultFlagsDoNotDegrade(t *testing.T) {
	path := writeTemp(t, swapRecCLISrc(6))
	out, stderr, code := runCLI(t, "-backend", "cs", "-print", "pointsto", path)
	if code != 0 || strings.Contains(out, "degraded") || stderr != "" {
		t.Fatalf("defaults degraded: code=%d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
}

func TestVetDegradedJSONShapeAndExitCode(t *testing.T) {
	path := writeTemp(t, leakSrc)
	out, stderr, code := runCLI(t, "-vet", "-format", "json", "-max-pairs", "1", path)
	if code != 3 {
		t.Fatalf("degraded vet must exit 3, got %d, stderr: %s", code, stderr)
	}
	var wrapped struct {
		Degraded    bool              `json:"degraded"`
		Reason      string            `json:"reason"`
		Diagnostics []json.RawMessage `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &wrapped); err != nil {
		t.Fatalf("degraded vet output is not the wrapped object: %v\n%s", err, out)
	}
	if !wrapped.Degraded || !strings.Contains(wrapped.Reason, "pair budget") {
		t.Fatalf("degradation not recorded in JSON: %+v", wrapped)
	}
	if !strings.Contains(stderr, "findings may be missing") {
		t.Fatalf("missing degraded-vet warning on stderr:\n%s", stderr)
	}
}

func TestVetHealthyJSONShapeUnchanged(t *testing.T) {
	path := writeTemp(t, leakSrc)
	out, _, code := runCLI(t, "-vet", "-format", "json", path)
	if code != 1 {
		t.Fatalf("vet with one finding must exit 1, got %d", code)
	}
	var arr []json.RawMessage
	if err := json.Unmarshal([]byte(out), &arr); err != nil || len(arr) != 1 {
		t.Fatalf("healthy vet output must stay a plain array: err=%v\n%s", err, out)
	}
}

// TestMultiFileCapsArePerFile: in multi-file mode the step cap bounds
// each file's attempts separately, so the batch output is the per-file
// outputs joined under their headers, at any -jobs width. At 3000 steps
// only the two corpus programs whose CI fixpoint takes more degrade.
func TestMultiFileCapsArePerFile(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "internal", "corpus", "programs", "*.c"))
	if err != nil || len(files) != 13 {
		t.Fatalf("corpus programs: %d files, err %v", len(files), err)
	}
	flags := []string{"-max-steps", "3000", "-print", "indirect"}

	var wantOut, wantErr strings.Builder
	wantCode := 0
	var degraded []string
	for _, f := range files {
		out, stderr, code := runCLI(t, append(flags, f)...)
		fmt.Fprintf(&wantOut, "== %s ==\n%s", f, out)
		if stderr != "" {
			fmt.Fprintf(&wantErr, "== %s ==\n%s", f, stderr)
		}
		wantCode = max(wantCode, code)
		if strings.Contains(out, "(degraded:") {
			degraded = append(degraded, filepath.Base(f))
		}
	}
	if got := strings.Join(degraded, " "); got != "assembler.c bc.c" {
		t.Errorf("degraded files: %q, want %q", got, "assembler.c bc.c")
	}

	for _, jobs := range []string{"1", "4"} {
		out, stderr, code := runCLI(t, append(append([]string{"-jobs", jobs}, flags...), files...)...)
		if out != wantOut.String() {
			t.Errorf("jobs=%s: stdout differs from the per-file runs joined", jobs)
		}
		if stderr != wantErr.String() {
			t.Errorf("jobs=%s: stderr differs from the per-file runs joined:\n%s", jobs, stderr)
		}
		if code != wantCode {
			t.Errorf("jobs=%s: exit %d, want %d", jobs, code, wantCode)
		}
	}
}
