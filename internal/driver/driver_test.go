package driver_test

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"aliaslab/internal/driver"
	"aliaslab/internal/parser"
	"aliaslab/internal/vdg"
)

func TestLoadStringSuccess(t *testing.T) {
	u, err := driver.LoadString("ok.c", `
int g;

int main(void) {
	g = 3;
	return g;
}
`, vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Name != "ok.c" || u.Graph == nil || u.Prog == nil || u.File == nil {
		t.Fatal("unit incomplete")
	}
	if u.SourceLines != 5 { // blank lines are not counted
		t.Errorf("SourceLines = %d, want 5", u.SourceLines)
	}
}

func TestLoadStringStagedErrors(t *testing.T) {
	if _, err := driver.LoadString("p.c", "int f( {", vdg.Options{}); err == nil ||
		!strings.Contains(err.Error(), "parse") {
		t.Errorf("parse stage error missing: %v", err)
	}
	if _, err := driver.LoadString("s.c", "int main(void) { return nope; }", vdg.Options{}); err == nil ||
		!strings.Contains(err.Error(), "typecheck") {
		t.Errorf("typecheck stage error missing: %v", err)
	}
	if _, err := driver.LoadString("b.c", "int main(void) { break; return 0; }", vdg.Options{}); err == nil ||
		!strings.Contains(err.Error(), "build") {
		t.Errorf("build stage error missing: %v", err)
	}
}

func TestErrorListTruncated(t *testing.T) {
	// A pile of errors must not flood the message.
	var sb strings.Builder
	for i := 0; i < 30; i++ {
		sb.WriteString("int main(void) { return nope; }\n")
	}
	_, err := driver.LoadString("many.c", sb.String(), vdg.Options{})
	if err == nil {
		t.Fatal("expected errors")
	}
	if !regexp.MustCompile(`\.\.\. and \d+ more`).MatchString(err.Error()) {
		t.Errorf("long error lists must report the suppressed count: %v", err)
	}
	// At most 10 diagnostics are spelled out.
	if lines := strings.Count(err.Error(), "\n"); lines > 11 {
		t.Errorf("error message too long (%d lines): %v", lines, err)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(path, []byte("int main(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	u, err := driver.LoadFileSpan(path, vdg.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Graph.Entry == nil {
		t.Fatal("no entry")
	}
	if _, err := driver.LoadFileSpan(filepath.Join(dir, "missing.c"), vdg.Options{}, nil); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestDeepNestingIsADiagnostic: the input nested 520,000 parentheses
// deep, which overflowed the parser's stack, is rejected with the
// parser's depth diagnostic, which errors.Is can pick out.
func TestDeepNestingIsADiagnostic(t *testing.T) {
	const n = 520000
	src := "int main(void){int x; x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; return x;}\n"
	_, err := driver.LoadString("deep.c", src, vdg.Options{})
	if err == nil {
		t.Fatal("deep nesting loaded without error")
	}
	if !errors.Is(err, parser.ErrTooDeep) {
		t.Errorf("error does not wrap parser.ErrTooDeep: %v", err)
	}
	if want := "parse: 1 error(s):\n  deep.c:1:"; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q, want prefix %q", err, want)
	}
}
