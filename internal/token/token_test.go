package token

import (
	"testing"
	"unsafe"
)

func TestLookup(t *testing.T) {
	cases := []struct {
		ident string
		want  Kind
	}{
		{"while", WHILE},
		{"int", INT_KW},
		{"struct", STRUCT},
		{"sizeof", SIZEOF},
		{"foo", IDENT},
		{"While", IDENT}, // case-sensitive
	}
	for _, c := range cases {
		if got := Lookup(c.ident); got != c.want {
			t.Errorf("Lookup(%q) = %v, want %v", c.ident, got, c.want)
		}
	}
	// Every keyword's spelling, and only a keyword's, looks up to it.
	for k := ILLEGAL; k <= keywordEnd; k++ {
		want := k
		if !k.IsKeyword() {
			want = IDENT
		}
		if got := Lookup(k.String()); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", k.String(), got, want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !WHILE.IsKeyword() || ADD.IsKeyword() || IDENT.IsKeyword() {
		t.Error("IsKeyword wrong")
	}
	if !INT.IsLiteral() || !IDENT.IsLiteral() || ADD.IsLiteral() {
		t.Error("IsLiteral wrong")
	}
	if !ASSIGN.IsAssign() || !SHR_ASSIGN.IsAssign() || EQL.IsAssign() {
		t.Error("IsAssign wrong")
	}
	if !STRUCT.IsTypeStart() || !UNSIGNED.IsTypeStart() || IDENT.IsTypeStart() || WHILE.IsTypeStart() {
		t.Error("IsTypeStart wrong")
	}
}

func TestCompoundOp(t *testing.T) {
	pairs := map[Kind]Kind{
		ADD_ASSIGN: ADD, SUB_ASSIGN: SUB, MUL_ASSIGN: MUL, QUO_ASSIGN: QUO,
		REM_ASSIGN: REM, AND_ASSIGN: AND, OR_ASSIGN: OR, XOR_ASSIGN: XOR,
		SHL_ASSIGN: SHL, SHR_ASSIGN: SHR,
	}
	for compound, base := range pairs {
		if got := compound.CompoundOp(); got != base {
			t.Errorf("%v.CompoundOp() = %v, want %v", compound, got, base)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CompoundOp on plain ASSIGN must panic")
		}
	}()
	ASSIGN.CompoundOp()
}

func TestStringForms(t *testing.T) {
	if ARROW.String() != "->" || ELLIPSIS.String() != "..." || WHILE.String() != "while" {
		t.Error("operator/keyword spellings wrong")
	}
	s := &Stream{Lits: []string{"", "x"}}
	tok := Token{Kind: IDENT, Lit: 1, Pos: Pos{Line: 3, Col: 7}}
	if s.Format(tok) != `IDENT("x")` || s.Format(Token{Kind: ARROW}) != "->" {
		t.Errorf("tokens render as %q and %q", s.Format(tok), s.Format(Token{Kind: ARROW}))
	}
	if tok.Pos.In("f.c") != "f.c:3:7" {
		t.Errorf("pos renders as %q", tok.Pos.In("f.c"))
	}
	if (Pos{Line: 2, Col: 1}).String() != "2:1" || (Pos{Line: 2, Col: 1}).In("") != "2:1" {
		t.Error("file-less pos format wrong")
	}
	if !tok.Pos.IsValid() || (Pos{}).IsValid() {
		t.Error("IsValid wrong")
	}
}

// TestSizes pins the layout of positions and tokens: a Pos is a line
// and a column, no file name, and a lexed file holds a Token per 3-5
// source bytes: a byte of kind and an index into the literal texts
// beside the position, and no pointer.
func TestSizes(t *testing.T) {
	if got := unsafe.Sizeof(Pos{}); got != 16 {
		t.Errorf("Pos is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Token{}); got != 24 {
		t.Errorf("Token is %d bytes, want 24", got)
	}
}
