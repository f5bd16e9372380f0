package parser

import (
	"strings"
	"testing"

	"aliaslab/internal/ast"
)

// Error-recovery tests: after a syntax error the parser synchronizes
// to the next `;` / `}` boundary, so independent mistakes each get a
// diagnostic and healthy code around them still parses.

func errLines(errs []*Error) map[int]bool {
	lines := make(map[int]bool)
	for _, e := range errs {
		lines[e.Pos.Line] = true
	}
	return lines
}

func TestRecoveryReportsEachStatementError(t *testing.T) {
	file, errs := ParseFile("t.c", `
int g;
void a(void) { g = = 3; }
void b(void) { return %%; }
int c(void) { return g; }
`)
	if len(errs) == 0 {
		t.Fatal("expected syntax errors")
	}
	lines := errLines(errs)
	if !lines[3] || !lines[4] {
		t.Fatalf("want diagnostics on lines 3 and 4, got lines %v", lines)
	}
	// Recovery must not degenerate into one error per token.
	if len(errs) > 6 {
		t.Fatalf("cascading diagnostics: got %d errors", len(errs))
	}
	// The file after the errors is still fully parsed.
	var names []string
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			names = append(names, fd.Name)
		}
	}
	want := []string{"a", "b", "c"}
	if len(names) != len(want) {
		t.Fatalf("parsed functions %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("parsed functions %v, want %v", names, want)
		}
	}
}

func TestRecoveryResumesAtNextTopDecl(t *testing.T) {
	file, errs := ParseFile("t.c", `
int first;
@ # garbage between declarations @
int second;
void f(void) { second = first; }
`)
	if len(errs) == 0 {
		t.Fatal("expected syntax errors for the garbage run")
	}
	if len(errs) > 4 {
		t.Fatalf("cascading diagnostics: got %d errors", len(errs))
	}
	var vars, fns int
	for _, d := range file.Decls {
		switch d.(type) {
		case *ast.VarDecl:
			vars++
		case *ast.FuncDecl:
			fns++
		}
	}
	if vars != 2 || fns != 1 {
		t.Fatalf("recovered parse has %d vars and %d funcs, want 2 and 1", vars, fns)
	}
}

func TestRecoveryMultipleBadStatementsOneBlock(t *testing.T) {
	_, errs := ParseFile("t.c", `
void f(void) {
	int x;
	x = = 1;
	x = = 2;
	x = 3;
}
`)
	lines := errLines(errs)
	if !lines[4] || !lines[5] {
		t.Fatalf("want diagnostics on lines 4 and 5, got lines %v", lines)
	}
}

// TestStructBodyBadTokensOneDiagnostic: a run of tokens that cannot
// start a field gets one parser diagnostic, on top of the lexer's own
// diagnostic for each illegal byte. One per token made `struct {`
// plus n illegal bytes yield 2n+4 diagnostics, past FuzzParse's bound
// of len(src)+8.
func TestStructBodyBadTokensOneDiagnostic(t *testing.T) {
	for _, src := range []string{
		"struct {$$$$$$$$$$$$$$\"",
		"struct {" + strings.Repeat("$", 1000),
	} {
		_, errs := ParseFile("t.c", src)
		fieldErrs := 0
		for _, e := range errs {
			if strings.HasPrefix(e.Msg, "expected field type") {
				fieldErrs++
			}
		}
		if fieldErrs != 1 {
			t.Errorf("%d bytes: %d \"expected field type\" diagnostics, want 1", len(src), fieldErrs)
		}
		if len(errs) > len(src)+8 {
			t.Errorf("%d bytes: %d diagnostics, want at most %d", len(src), len(errs), len(src)+8)
		}
	}
	// Separate bad runs still get one diagnostic each, and the fields
	// between them parse.
	file, errs := ParseFile("t.c", "struct S { int a; $$$ int b; $ int c; }; struct S s;")
	fieldErrs := 0
	for _, e := range errs {
		if strings.HasPrefix(e.Msg, "expected field type") {
			fieldErrs++
		}
	}
	if fieldErrs != 2 {
		t.Errorf("%d \"expected field type\" diagnostics for two bad runs, want 2", fieldErrs)
	}
	td, ok := file.Decls[0].(*ast.TagDecl)
	if !ok {
		t.Fatalf("first declaration is %T, want *ast.TagDecl", file.Decls[0])
	}
	if n := len(td.Type.(*ast.StructType).Fields); n != 3 {
		t.Errorf("%d fields parsed, want 3 (a, b, c)", n)
	}
}
