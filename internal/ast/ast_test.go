package ast_test

import (
	"testing"
	"unsafe"

	"aliaslab/internal/ast"
	"aliaslab/internal/parser"
)

func TestFilePosHelpers(t *testing.T) {
	f, errs := parser.ParseFile("t.c", "int x;\nint y;")
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	if f.Pos().Line != 1 {
		t.Errorf("file pos %v", f.Pos())
	}
	empty := &ast.File{Name: "e.c"}
	if empty.Pos().IsValid() {
		t.Errorf("empty file pos %v", empty.Pos())
	}
}

// TestIdentSize pins the size of the most common expression node: a
// name, a position and an expression number.
func TestIdentSize(t *testing.T) {
	if got := unsafe.Sizeof(ast.Ident{}); got > 40 {
		t.Errorf("ast.Ident is %d bytes, want at most 40", got)
	}
}
