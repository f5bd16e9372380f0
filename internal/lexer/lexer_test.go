package lexer

import (
	"testing"

	"aliaslab/internal/token"
)

// kindsOf scans src and returns the token kinds (without EOF).
func kindsOf(t *testing.T, src string) []token.Kind {
	t.Helper()
	lx := New("t.c", src)
	toks := lx.All()
	if errs := lx.Errors(); len(errs) > 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	var out []token.Kind
	for _, tk := range toks.Toks[:len(toks.Toks)-1] {
		out = append(out, tk.Kind)
	}
	return out
}

func TestOperators(t *testing.T) {
	src := "+ - * / % & | ^ << >> ~ && || ! = += -= *= /= %= &= |= ^= <<= >>= ++ -- == != < > <= >= ( ) { } [ ] , ; : ? . -> ..."
	want := []token.Kind{
		token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.NOT,
		token.LAND, token.LOR, token.LNOT,
		token.ASSIGN, token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.QUO_ASSIGN, token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN,
		token.XOR_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN,
		token.INC, token.DEC,
		token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACK, token.RBRACK, token.COMMA, token.SEMI, token.COLON,
		token.QUESTION, token.PERIOD, token.ARROW, token.ELLIPSIS,
	}
	got := kindsOf(t, src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdents(t *testing.T) {
	lx := New("t.c", "while whilex _x x9 struct")
	s := lx.All()
	toks := s.Toks
	if toks[0].Kind != token.WHILE {
		t.Errorf("while not a keyword: %s", s.Format(toks[0]))
	}
	if toks[1].Kind != token.IDENT || s.Lit(toks[1]) != "whilex" {
		t.Errorf("whilex mislexed: %s", s.Format(toks[1]))
	}
	if toks[2].Kind != token.IDENT || s.Lit(toks[2]) != "_x" {
		t.Errorf("_x mislexed: %s", s.Format(toks[2]))
	}
	if toks[3].Kind != token.IDENT || s.Lit(toks[3]) != "x9" {
		t.Errorf("x9 mislexed: %s", s.Format(toks[3]))
	}
	if toks[4].Kind != token.STRUCT || toks[4].Lit != 0 {
		t.Errorf("struct not a keyword: %s", s.Format(toks[4]))
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		lit  string
	}{
		{"0", token.INT, "0"},
		{"12345", token.INT, "12345"},
		{"0x1F", token.INT, "0x1F"},
		{"10L", token.INT, "10"},
		{"42u", token.INT, "42"},
		{"1.5", token.FLOAT, "1.5"},
		{".25", token.FLOAT, ".25"},
		{"1e9", token.FLOAT, "1e9"},
		{"2.5e-3", token.FLOAT, "2.5e-3"},
		{"1.0f", token.FLOAT, "1.0"},
	}
	for _, c := range cases {
		lx := New("t.c", c.src)
		tok := lx.Next()
		if len(lx.Errors()) > 0 {
			t.Errorf("%q: errors %v", c.src, lx.Errors())
			continue
		}
		if tok.Kind != c.kind || lx.Lit(tok) != c.lit {
			t.Errorf("%q lexed as %v(%q), want %v(%q)", c.src, tok.Kind, lx.Lit(tok), c.kind, c.lit)
		}
	}
}

func TestDotVersusFloat(t *testing.T) {
	got := kindsOf(t, "s.f 1.5 s . f")
	want := []token.Kind{token.IDENT, token.PERIOD, token.IDENT, token.FLOAT,
		token.IDENT, token.PERIOD, token.IDENT}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestStringsAndChars(t *testing.T) {
	lx := New("t.c", `"hello\n\t\"x\"" 'a' '\n' '\\' '\x41'`)
	s := lx.All()
	if errs := lx.Errors(); len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	if s.Toks[0].Kind != token.STRING || s.Lit(s.Toks[0]) != "hello\n\t\"x\"" {
		t.Errorf("string: %q", s.Lit(s.Toks[0]))
	}
	wantChars := []byte{'a', '\n', '\\', 'A'}
	for i, want := range wantChars {
		tk := s.Toks[1+i]
		if tk.Kind != token.CHAR || s.Lit(tk)[0] != want {
			t.Errorf("char %d: got %v %q, want %q", i, tk.Kind, s.Lit(tk), want)
		}
	}
}

func TestComments(t *testing.T) {
	got := kindsOf(t, `
// line comment with * and /* inside
x /* block
   spanning lines */ y
# preprocessor line skipped
z`)
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestPositions(t *testing.T) {
	lx := New("f.c", "a\n  b")
	t1 := lx.Next()
	t2 := lx.Next()
	if t1.Pos.Line != 1 || t1.Pos.Col != 1 {
		t.Errorf("a at %v", t1.Pos)
	}
	if t2.Pos.Line != 2 || t2.Pos.Col != 3 {
		t.Errorf("b at %v", t2.Pos)
	}
	if t1.Pos.In("f.c") != "f.c:1:1" {
		t.Errorf("pos string %q", t1.Pos.In("f.c"))
	}
}

func TestErrorRecovery(t *testing.T) {
	lx := New("t.c", "a $ b '")
	toks := lx.All()
	if len(lx.Errors()) == 0 {
		t.Fatal("expected lex errors")
	}
	// The scanner must still deliver the valid tokens around the junk.
	var idents int
	for _, tk := range toks.Toks {
		if tk.Kind == token.IDENT {
			idents++
		}
	}
	if idents != 2 {
		t.Errorf("got %d idents, want 2", idents)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	lx := New("t.c", "x /* never closed")
	lx.All()
	if len(lx.Errors()) != 1 {
		t.Fatalf("want 1 error, got %v", lx.Errors())
	}
}

func TestAdjacentStringTokens(t *testing.T) {
	// Concatenation happens in the parser; the lexer reports two tokens.
	got := kindsOf(t, `"a" "b"`)
	if len(got) != 2 || got[0] != token.STRING || got[1] != token.STRING {
		t.Fatalf("got %v", got)
	}
}
