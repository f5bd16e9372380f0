package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestModRefGolden pins the -print modref CLI output on one corpus
// program. Regenerate with: go test ./cmd/aliaslab -run ModRef -update
func TestModRefGolden(t *testing.T) {
	out, stderr, code := runCLI(t, "-corpus", "part", "-print", "modref")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	golden := filepath.Join("testdata", "modref_part.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if out != string(want) {
		t.Errorf("-print modref output differs from %s:\n--- got\n%s--- want\n%s", golden, out, want)
	}
}

// leakSrc has exactly one finding: a leaked allocation.
const leakSrc = `
int main(void) {
	int *p;
	p = (int *) malloc(4);
	*p = 1;
	return 0;
}
`

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.c")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVetText(t *testing.T) {
	out, stderr, code := runCLI(t, "-vet", writeTemp(t, leakSrc))
	if code != 1 {
		t.Fatalf("exit %d (want 1 on findings), stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "may leak") || !strings.Contains(out, "[leak]") {
		t.Errorf("leak finding missing from output:\n%s", out)
	}
}

func TestVetCleanExitsZero(t *testing.T) {
	out, stderr, code := runCLI(t, "-vet", writeTemp(t, "int main(void) { return 0; }\n"))
	if code != 0 || out != "" {
		t.Fatalf("clean program: exit %d, stdout %q, stderr %s", code, out, stderr)
	}
}

func TestVetJSON(t *testing.T) {
	out, stderr, code := runCLI(t, "-vet", "-format", "json", writeTemp(t, leakSrc))
	if code != 1 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Severity string `json:"severity"`
		Checker  string `json:"checker"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(diags) != 1 || diags[0].Checker != "leak" || diags[0].Line != 4 {
		t.Errorf("unexpected JSON diagnostics: %+v", diags)
	}
}

func TestVetCheckerFilter(t *testing.T) {
	// Only the uaf checker selected: the leak must not be reported.
	out, _, code := runCLI(t, "-vet", "-checkers", "uaf", writeTemp(t, leakSrc))
	if code != 0 || out != "" {
		t.Errorf("filtered vet: exit %d, output %q", code, out)
	}
	if _, stderr, code := runCLI(t, "-vet", "-checkers", "nosuch", writeTemp(t, leakSrc)); code != 2 ||
		!strings.Contains(stderr, "unknown checker") {
		t.Errorf("unknown checker: exit %d, stderr %q", code, stderr)
	}
}

func TestVetCheckersHelp(t *testing.T) {
	out, _, code := runCLI(t, "-vet", "-checkers", "help")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"uaf", "dangling", "nullderef", "uninit", "leak"} {
		if !strings.Contains(out, id) {
			t.Errorf("checker %s missing from help:\n%s", id, out)
		}
	}
}

// timingTokens matches the run-to-run-varying fields of a trace line:
// wall time and allocation deltas. Everything else in the tree — span
// names, nesting, unit names, solver counters, diagnostic counts — is
// deterministic and golden-able.
var timingTokens = regexp.MustCompile(`(dur|alloc|mallocs)=\S+`)

// TestTraceGolden pins the full observable surface of a traced vet run
// on a corpus fixture: the vet JSON on stdout (byte-exact) and the
// span tree on stderr with timing fields scrubbed. Regenerate with:
// go test ./cmd/aliaslab -run TraceGolden -update
func TestTraceGolden(t *testing.T) {
	out, stderr, code := runCLI(t, "-trace", "-corpus", "part", "-vet", "-format", "json")
	if code != 1 {
		t.Fatalf("exit %d (want 1: fixture has findings), stderr: %s", code, stderr)
	}
	got := out + "--- trace ---\n" + timingTokens.ReplaceAllString(stderr, "$1=X")
	golden := filepath.Join("testdata", "trace_vet_part.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("traced vet output differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// TestTraceOffByDefault: without -trace the CLI writes nothing to
// stderr — the observability layer must not leak into default output.
func TestTraceOffByDefault(t *testing.T) {
	_, stderr, _ := runCLI(t, "-corpus", "part", "-vet", "-format", "json")
	if stderr != "" {
		t.Errorf("untraced run wrote to stderr: %q", stderr)
	}
}

// TestRecursiveSingleFlag exercises the -recursivesingle ablation end
// to end; the corpus must still analyze cleanly under it.
func TestRecursiveSingleFlag(t *testing.T) {
	out, stderr, code := runCLI(t, "-recursivesingle", "-corpus", "part", "-print", "sizes")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "part.c:") {
		t.Errorf("unexpected sizes output: %q", out)
	}
}

func TestUsageError(t *testing.T) {
	if _, _, code := runCLI(t); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
}

// TestModularFlagRemoved: the per-procedure summary mode is gone, so
// -modular is an unknown flag (a usage error), not a silent no-op.
func TestModularFlagRemoved(t *testing.T) {
	_, errOut, code := runCLI(t, "-corpus", "part", "-modular")
	if code != 2 {
		t.Errorf("-modular: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-modular") {
		t.Errorf("stderr does not name the flag: %s", errOut)
	}
}

// TestBackendGolden pins the text and JSON output of every backend on
// one corpus program: the four-way precision frontier is directly
// visible as the goldens' referent sets widen from cs to steensgaard.
// Regenerate with: go test ./cmd/aliaslab -run BackendGolden -update
func TestBackendGolden(t *testing.T) {
	for _, kind := range []string{"cs", "ci", "andersen", "steensgaard"} {
		for _, mode := range []string{"indirect", "json"} {
			t.Run(kind+"/"+mode, func(t *testing.T) {
				out, stderr, code := runCLI(t, "-corpus", "part", "-backend", kind, "-print", mode)
				if code != 0 {
					t.Fatalf("exit %d, stderr: %s", code, stderr)
				}
				golden := filepath.Join("testdata", "backend_"+kind+"_"+mode+"_part.golden")
				if *update {
					if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if out != string(want) {
					t.Errorf("-backend %s -print %s output differs from %s:\n--- got\n%s--- want\n%s",
						kind, mode, golden, out, want)
				}
			})
		}
	}
}

// TestBackendErrors: the backend flag fails loudly — unknown names get
// the usage message, conflicting selectors are rejected, and options
// that do not exist or cannot apply to a backend are an error rather
// than silently ignored.
func TestBackendErrors(t *testing.T) {
	if _, stderr, code := runCLI(t, "-corpus", "part", "-backend", "anderson"); code != 2 ||
		!strings.Contains(stderr, `unknown backend "anderson"`) ||
		!strings.Contains(stderr, "usage: aliaslab") {
		t.Errorf("unknown backend: exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := runCLI(t, "-corpus", "part", "-backend", "cs", "-analysis", "ci"); code != 2 ||
		!strings.Contains(stderr, "conflicts") {
		t.Errorf("backend/analysis conflict: exit %d, stderr %q", code, stderr)
	}
	// The worklist-order flag is gone: the solver has one FIFO queue.
	if _, stderr, code := runCLI(t, "-corpus", "part", "-backend", "steensgaard", "-worklist", "lifo"); code != 2 ||
		!strings.Contains(stderr, "flag provided but not defined: -worklist") {
		t.Errorf("-worklist: exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := runCLI(t, "-corpus", "part", "-backend", "cs", "-vet"); code != 2 ||
		!strings.Contains(stderr, "-vet runs on the ci, andersen, or steensgaard backend") {
		t.Errorf("cs vet: exit %d, stderr %q", code, stderr)
	}
}

// writeTempN writes n distinguishable single-finding programs and
// returns their paths.
func writeTempN(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	var out []string
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("prog%d.c", i))
		if err := os.WriteFile(path, []byte(leakSrc), 0o644); err != nil {
			t.Fatal(err)
		}
		out = append(out, path)
	}
	return out
}

// TestMultiFileRendersInArgumentOrder: several files analyze (possibly
// in parallel) and render under per-file headers in argument order,
// with identical bytes at every -jobs width.
func TestMultiFileRendersInArgumentOrder(t *testing.T) {
	files := writeTempN(t, 5)
	var want string
	for _, jobs := range []string{"1", "4"} {
		args := append([]string{"-jobs", jobs, "-print", "pointsto"}, files...)
		out, stderr, code := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("jobs=%s: exit %d, stderr: %s", jobs, code, stderr)
		}
		var lastIdx int
		for _, f := range files {
			idx := strings.Index(out, "== "+f+" ==")
			if idx < 0 {
				t.Fatalf("jobs=%s: missing header for %s in output:\n%s", jobs, f, out)
			}
			if idx < lastIdx {
				t.Fatalf("jobs=%s: %s rendered out of argument order", jobs, f)
			}
			lastIdx = idx
		}
		if want == "" {
			want = out
		} else if out != want {
			t.Fatalf("multi-file output differs between -jobs widths")
		}
	}
}

// TestMultiFileWorstExitCode: one bad file among good ones fails the
// run with the bad file's code while the good files still render.
func TestMultiFileWorstExitCode(t *testing.T) {
	good := writeTemp(t, leakSrc)
	bad := filepath.Join(t.TempDir(), "bad.c")
	if err := os.WriteFile(bad, []byte("int main(void) { int x = = ; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := runCLI(t, "-print", "sizes", good, bad)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "== "+good+" ==") || !strings.Contains(out, "lines") {
		t.Fatalf("good file did not render:\n%s", out)
	}
	if !strings.Contains(stderr, "== "+bad+" ==") || !strings.Contains(stderr, "parse") {
		t.Fatalf("bad file's diagnostics missing from stderr:\n%s", stderr)
	}
}

// TestMultiFileVet: the checker suite runs per file in multi-file mode
// and the findings stay attached to the right file.
func TestMultiFileVet(t *testing.T) {
	files := writeTempN(t, 3)
	out, _, code := runCLI(t, append([]string{"-vet"}, files...)...)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (findings present)", code)
	}
	if n := strings.Count(out, "never freed"); n != 3 {
		t.Fatalf("want one leak finding per file (3), got %d:\n%s", n, out)
	}
}
