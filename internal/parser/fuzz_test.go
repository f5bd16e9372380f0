package parser

import (
	"strings"
	"testing"
)

// FuzzParse throws arbitrary bytes at the front of the pipeline. The
// contract under fuzzing: never panic, never loop, always return a
// non-nil file, and never fabricate success on garbage that produced
// error diagnostics with no declarations.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"int x;",
		"int main(void) { return 0; }",
		"struct s { struct s *next; int v; }; struct s g;",
		"typedef int (*fp)(int); fp table[4];",
		"int f(int *p) { if (*p) { return f(p); } return 0; }",
		"void g(void) { int a[3]; a[1] = 2; }",
		"int f( {",             // unclosed parameter list
		"int x = = 1;",         // recovery seed
		"\x00\xff\xfe",         // binary garbage
		"int é;",               // non-ASCII identifier bytes
		"/* unterminated",      // comment edge
		"char *s = \"unclosed", // string edge
		// A run of illegal bytes in a struct body: one parser
		// diagnostic for the run, not one per byte.
		"struct {$$$$$$$$$$$$$$\"",
		// Nesting 520,000 deep: a stack overflow before MaxDepth.
		"int main(void){int x; x = " + strings.Repeat("(", 520000) + "1" + strings.Repeat(")", 520000) + "; return x;}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, errs := ParseFile("fuzz.c", src)
		if file == nil {
			t.Fatal("ParseFile returned nil file")
		}
		// Error recovery must be bounded: no error cascades longer than
		// the token stream itself (one diagnostic per byte is already
		// absurdly generous).
		if len(errs) > len(src)+8 {
			t.Fatalf("%d diagnostics for %d bytes of input", len(errs), len(src))
		}
		for _, e := range errs {
			if e == nil || e.Msg == "" {
				t.Fatal("empty diagnostic")
			}
		}
	})
}
