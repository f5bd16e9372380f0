package parser_test

import (
	"errors"
	"strings"
	"testing"

	"aliaslab/internal/parser"
	"aliaslab/internal/sema"
)

// deepParens is the input that overflowed the parser's stack before
// the depth limit: an expression nested 520,000 parentheses deep
// (1,040,040 bytes).
func deepParens() string {
	const n = 520000
	return "int main(void){int x; x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; return x;}\n"
}

// TestDepthLimit: input nested past parser.MaxDepth, in each recursive
// production, ends in exactly one ErrTooDeep diagnostic instead of a
// stack overflow.
func TestDepthLimit(t *testing.T) {
	const n = parser.MaxDepth + 10
	rep := strings.Repeat
	cases := []struct{ name, src string }{
		{"parens", deepParens()},
		{"unary", "int main(void){int x; x = " + rep("- ", n) + "1; return x;}"},
		{"casts", "int main(void){int x; x = " + rep("(int)", n) + "1; return x;}"},
		{"assign-chain", "int main(void){int x; x" + rep(" = x", n) + "; return x;}"},
		{"cond-chain", "int main(void){int x; x = 0" + rep(" ? 1 : 0", n) + "; return x;}"},
		{"blocks", "int main(void){" + rep("{", n) + rep("}", n) + " return 0;}"},
		{"if-chain", "int main(void){int x; x = 0; " + rep("if (x) ", n) + "x = 1; return x;}"},
		{"declarator", "int " + rep("(", n) + "x" + rep(")", n) + ";"},
		{"initializer", "int a[1] = " + rep("{", n) + "1" + rep("}", n) + ";"},
		{"structs", rep("struct s { ", n) + "int v;" + rep(" } f;", n) + " };"},
		{"stars", "int " + rep("*", n) + "x;"},
		{"suffixes", "int x" + rep("[1]", n) + ";"},
		{"binary-chain", "int main(void){int x; x = 1" + rep("+1", n) + "; return x;}"},
		{"comma-chain", "int main(void){int x; x = (1" + rep(",1", n) + "); return x;}"},
		{"postfix-chain", "struct S { struct S *n; }; int main(void){struct S *p; p = p" + rep("->n", n) + "; return 0;}"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, errs := parser.ParseFile("deep.c", c.src)
			if f == nil {
				t.Fatal("nil file")
			}
			if len(errs) != 1 || !errors.Is(errs[0], parser.ErrTooDeep) {
				t.Fatalf("want one ErrTooDeep diagnostic, got %d: %v", len(errs), errs)
			}
			if want := "deep.c:1:"; !strings.HasPrefix(errs[0].Error(), want) ||
				!strings.Contains(errs[0].Error(), "nests too deeply") {
				t.Errorf("diagnostic %q", errs[0])
			}
			sema.Check(f) // the abandoned file must still be checkable
		})
	}
}

// TestDepthWithinLimit: nesting well past what C requires, but under
// the limit, parses and checks cleanly; so does a 9,000-term left-deep
// chain, which the parser builds in a loop.
func TestDepthWithinLimit(t *testing.T) {
	for _, src := range []string{
		"int main(void){int x; x = " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000) + "; return x;}",
		"int main(void){" + strings.Repeat("{", 2000) + strings.Repeat("}", 2000) + " return 0;}",
		"int main(void){int x; x = 1" + strings.Repeat("+1", 8999) + "; return x;}",
	} {
		f, errs := parser.ParseFile("ok.c", src)
		if len(errs) > 0 {
			t.Fatalf("%d bytes: %v", len(src), errs[0])
		}
		if _, serrs := sema.Check(f); len(serrs) > 0 {
			t.Fatalf("%d bytes: %v", len(src), serrs[0])
		}
	}
}

// TestChainDepthBoundary: the parser builds a declarator's pointer
// stars and a left-deep operator chain in a loop, but the tree is as
// deep as the chain is long, and sema walks it recursively: 4,000,000
// stars or a 1,500,000-term sum overflowed sema's stack. Each link
// counts against MaxDepth, so a chain that brings the open productions
// to exactly MaxDepth parses and checks, and one more link gives one
// ErrTooDeep diagnostic. open is the number of productions open around
// the chain's links at their deepest point.
func TestChainDepthBoundary(t *testing.T) {
	rep := strings.Repeat
	cases := []struct {
		name string
		open int
		src  func(links int) string
	}{
		// the declarator production
		{"declarator-stars", 1, func(n int) string { return "int " + rep("*", n) + "x;" }},
		// the initializer's assignment expression and the last operand's
		// unary expression
		{"binary-chain", 2, func(n int) string { return "int x = 1" + rep("+1", n) + ";" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			links := parser.MaxDepth - c.open
			f, errs := parser.ParseFile("ok.c", c.src(links))
			if len(errs) > 0 {
				t.Fatalf("depth MaxDepth: %v", errs[0])
			}
			if _, serrs := sema.Check(f); len(serrs) > 0 {
				t.Fatalf("depth MaxDepth: %v", serrs[0])
			}
			f, errs = parser.ParseFile("deep.c", c.src(links+1))
			if len(errs) != 1 || !errors.Is(errs[0], parser.ErrTooDeep) {
				t.Fatalf("depth MaxDepth+1: want one ErrTooDeep diagnostic, got %d: %v", len(errs), errs)
			}
			sema.Check(f) // the abandoned file must still be checkable
		})
	}
}
