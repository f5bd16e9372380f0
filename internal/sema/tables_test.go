package sema_test

import (
	"testing"

	"aliaslab/internal/ast"
	"aliaslab/internal/corpus"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/parser"
	"aliaslab/internal/sema"
)

// exprWalker collects every expression reachable from a file's
// declarations, statements and type syntax.
type exprWalker struct{ exprs []ast.Expr }

func (w *exprWalker) decl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.VarDecl:
		w.varDecl(d)
	case *ast.FuncDecl:
		w.typ(d.Type)
		if d.Body != nil {
			w.stmt(d.Body)
		}
	case *ast.TypedefDecl:
		w.typ(d.Type)
	case *ast.TagDecl:
		w.typ(d.Type)
	}
}

func (w *exprWalker) varDecl(d *ast.VarDecl) {
	w.typ(d.Type)
	w.expr(d.Init)
	for _, e := range d.InitList {
		w.expr(e)
	}
}

func (w *exprWalker) typ(t ast.TypeExpr) {
	switch t := t.(type) {
	case *ast.PointerType:
		w.typ(t.Elem)
	case *ast.ArrayType:
		w.typ(t.Elem)
	case *ast.FuncType:
		for _, p := range t.Params {
			w.typ(p.Type)
		}
		w.typ(t.Result)
	case *ast.StructType:
		for _, f := range t.Fields {
			w.typ(f.Type)
		}
	case *ast.EnumType:
		for _, m := range t.Members {
			w.expr(m.Value)
		}
	}
}

func (w *exprWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		w.varDecl(s.Decl)
	case *ast.Block:
		for _, st := range s.Stmts {
			w.stmt(st)
		}
	case *ast.If:
		w.expr(s.Cond)
		w.stmt(s.Then)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.While:
		w.expr(s.Cond)
		w.stmt(s.Body)
	case *ast.For:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.expr(s.Post)
		w.stmt(s.Body)
	case *ast.Return:
		w.expr(s.Value)
	case *ast.Switch:
		w.expr(s.Tag)
		for _, c := range s.Cases {
			for _, v := range c.Values {
				w.expr(v)
			}
			for _, st := range c.Body {
				w.stmt(st)
			}
		}
	}
}

func (w *exprWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	w.exprs = append(w.exprs, e)
	switch e := e.(type) {
	case *ast.Unary:
		w.expr(e.X)
	case *ast.Postfix:
		w.expr(e.X)
	case *ast.Binary:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.Assign:
		w.expr(e.LHS)
		w.expr(e.RHS)
	case *ast.Cond:
		w.expr(e.Cond)
		w.expr(e.Then)
		w.expr(e.Else)
	case *ast.Call:
		w.expr(e.Fun)
		for _, a := range e.Args {
			w.expr(a)
		}
	case *ast.Index:
		w.expr(e.X)
		w.expr(e.Idx)
	case *ast.Member:
		w.expr(e.X)
	case *ast.Cast:
		w.typ(e.Type)
		w.expr(e.X)
	case *ast.SizeofExpr:
		w.expr(e.X)
		w.typ(e.Type)
	case *ast.Comma:
		w.expr(e.X)
		w.expr(e.Y)
	}
}

// TestExprTables checks the parser's expression numbering and the
// checker's tables indexed by it, over the corpus and the first 200
// generated units of seed 42: numbers are distinct, nonzero and below
// File.Exprs; every expression has its checked type through TypeOf;
// every identifier use resolves through ObjOf or ConstOf, never both.
func TestExprTables(t *testing.T) {
	type unit struct{ name, src string }
	var units []unit
	for _, p := range corpus.All() {
		units = append(units, unit{p.Name, p.Source})
	}
	for _, p := range corpusgen.Sweep(42, 200) {
		units = append(units, unit{p.Name, p.Source})
	}
	for _, u := range units {
		f, perrs := parser.ParseFile(u.name, u.src)
		if len(perrs) > 0 {
			t.Fatalf("%s: %v", u.name, perrs[0])
		}
		prog, serrs := sema.Check(f)
		if len(serrs) > 0 {
			t.Fatalf("%s: %v", u.name, serrs[0])
		}
		if prog.Exprs() != f.Exprs {
			t.Errorf("%s: tables hold %d entries, File.Exprs is %d", u.name, prog.Exprs(), f.Exprs)
		}
		var w exprWalker
		for _, d := range f.Decls {
			w.decl(d)
		}
		if len(w.exprs) == 0 {
			t.Fatalf("%s: no expressions found", u.name)
		}
		seen := make(map[int]ast.Expr, len(w.exprs))
		for _, e := range w.exprs {
			id := e.ExprID()
			if id <= 0 || id >= f.Exprs {
				t.Fatalf("%s: %T at %s has number %d, want 1..%d", u.name, e, e.Pos(), id, f.Exprs-1)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("%s: %T at %s and %T at %s share number %d", u.name, prev, prev.Pos(), e, e.Pos(), id)
			}
			seen[id] = e
			if prog.TypeOf(e) == nil {
				t.Errorf("%s: %T at %s has no type", u.name, e, e.Pos())
			}
			if id, ok := e.(*ast.Ident); ok {
				obj := prog.ObjOf(id)
				_, isConst := prog.ConstOf(id)
				if (obj != nil) == isConst {
					t.Errorf("%s: identifier %s at %s: object %v, enum constant %v", u.name, id.Name, id.Pos(), obj, isConst)
				}
				if obj != nil && obj.Name != id.Name {
					t.Errorf("%s: identifier %s at %s resolves to %s", u.name, id.Name, id.Pos(), obj.Name)
				}
			}
		}
	}
}

// TestSlots checks that every parameter and block local of a function
// has its own slot below Function.Slots.
func TestSlots(t *testing.T) {
	for _, p := range corpus.All() {
		f, _ := parser.ParseFile(p.Name, p.Source)
		prog, serrs := sema.Check(f)
		if len(serrs) > 0 {
			t.Fatalf("%s: %v", p.Name, serrs[0])
		}
		for _, fn := range prog.Funcs {
			taken := make([]bool, fn.Slots)
			for _, o := range append(append([]*sema.Object{}, fn.Params...), fn.Locals...) {
				if o.Slot < 0 || o.Slot >= fn.Slots || taken[o.Slot] {
					t.Fatalf("%s: %s has slot %d of %d (taken: %v)", p.Name, o, o.Slot, fn.Slots, o.Slot >= 0 && o.Slot < fn.Slots && taken[o.Slot])
				}
				taken[o.Slot] = true
			}
			if n := len(fn.Params) + len(fn.Locals); n != fn.Slots {
				t.Errorf("%s: %s has %d variables and %d slots", p.Name, fn.Name, n, fn.Slots)
			}
		}
	}
}
