package ast_test

import (
	"testing"

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
	if empty.Pos().File != "e.c" {
		t.Errorf("empty file pos %v", empty.Pos())
	}
}
