package vdg

import (
	"aliaslab/internal/ast"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/paths"
	"aliaslab/internal/sema"
	"aliaslab/internal/token"
)

// ---------------------------------------------------------------------------
// Node construction helpers

// addrOfObj returns the (cached) address constant of a store-resident
// object.
func (fb *fnBuilder) addrOfObj(obj *sema.Object, pos token.Pos) *Output {
	if o := fb.b.refs[obj.ID]; o != nil {
		return o
	}
	base := fb.b.baseOf(obj)
	n := fb.g.NewNode(fb.fg, KAddr, pos)
	n.Obj = obj
	n.Path = fb.g.Universe.Root(base)
	out := fb.g.AddOutput(n, fb.b.ptrs.To(obj.Type), false)
	fb.b.refs[obj.ID] = out
	return out
}

// funcRef returns the (cached) address constant of a function.
func (fb *fnBuilder) funcRef(fn *sema.Function, pos token.Pos) *Output {
	if o := fb.b.refs[fn.Object.ID]; o != nil {
		return o
	}
	base := fb.b.funcBases[fn]
	n := fb.g.NewNode(fb.fg, KAddr, pos)
	n.Path = fb.g.Universe.Root(base)
	out := fb.g.AddOutput(n, fb.b.ptrs.To(fn.Type), false)
	fb.b.refs[fn.Object.ID] = out
	return out
}

// lookup reads through loc in the current store.
func (fb *fnBuilder) lookup(loc *Output, typ *ctypes.Type, pos token.Pos) *Output {
	n := fb.g.NewNode(fb.fg, KLookup, pos)
	fb.g.Connect(n, loc)
	fb.g.Connect(n, fb.cur.store)
	return fb.g.AddOutput(n, typ, false)
}

// update writes value through loc, threading the store.
func (fb *fnBuilder) update(loc, value *Output, pos token.Pos) {
	n := fb.g.NewNode(fb.fg, KUpdate, pos)
	fb.g.Connect(n, loc)
	fb.g.Connect(n, fb.cur.store)
	fb.g.Connect(n, value)
	fb.cur.store = fb.g.AddOutput(n, nil, true)
}

// fieldAddr computes the address of a member from the aggregate's
// address. Union members use the overlapping union operator.
func (fb *fnBuilder) fieldAddr(addr *Output, structType *ctypes.Type, name string, pos token.Pos) *Output {
	n := fb.g.NewNode(fb.fg, KFieldAddr, pos)
	n.Field = name
	n.Transparent = structType.Union // reused flag: marks union member access
	fb.g.Connect(n, addr)
	ft := ctypes.IntType
	if f, ok := structType.Field(name); ok {
		ft = f.Type
	}
	return fb.g.AddOutput(n, fb.b.ptrs.To(ft), false)
}

// indexAddr computes the address of an element from the array/pointer
// value. elem is the precise (undecayed) element type.
func (fb *fnBuilder) indexAddr(base *Output, elem *ctypes.Type, pos token.Pos) *Output {
	n := fb.g.NewNode(fb.fg, KIndexAddr, pos)
	fb.g.Connect(n, base)
	return fb.g.AddOutput(n, fb.b.ptrs.To(elem), false)
}

// konst creates an opaque constant value.
func (fb *fnBuilder) konst(typ *ctypes.Type, pos token.Pos) *Output {
	n := fb.g.NewNode(fb.fg, KConst, pos)
	return fb.g.AddOutput(n, typ, false)
}

// unknown creates an opaque non-constant value (library results,
// undefined variables).
func (fb *fnBuilder) unknown(typ *ctypes.Type, pos token.Pos) *Output {
	n := fb.g.NewNode(fb.fg, KUnknown, pos)
	return fb.g.AddOutput(n, typ, false)
}

// primop creates a primitive operation node. transparent ops propagate
// points-to pairs from pointer-valued inputs (pointer arithmetic).
func (fb *fnBuilder) primop(op string, transparent bool, typ *ctypes.Type, pos token.Pos, args ...*Output) *Output {
	n := fb.g.NewNode(fb.fg, KPrimop, pos)
	n.Op = op
	n.Transparent = transparent
	for _, a := range args {
		if a != nil {
			fb.g.Connect(n, a)
		}
	}
	return fb.g.AddOutput(n, typ, false)
}

// typeOf returns the checked type of an expression (decayed).
func (fb *fnBuilder) typeOf(e ast.Expr) *ctypes.Type {
	if t := fb.b.prog.TypeOf(e); t != nil {
		return t
	}
	return ctypes.IntType
}

// ---------------------------------------------------------------------------
// Lvalue addressing

// isLvalue reports whether e can be addressed (after checking).
func isLvalue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.Index:
		return true
	case *ast.Member:
		if e.Arrow {
			return true
		}
		return isLvalue(e.X)
	case *ast.Unary:
		return e.Op == token.MUL
	}
	return false
}

// addr builds the address of lvalue e as a pointer-valued output.
func (fb *fnBuilder) addr(e ast.Expr) *Output {
	out, _ := fb.addrT(e)
	return out
}

// addrT builds the address of lvalue e and also returns the precise
// (undecayed) type of the addressed storage, which drives array decay
// decisions that the checker's decayed expression types cannot.
func (fb *fnBuilder) addrT(e ast.Expr) (*Output, *ctypes.Type) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := fb.b.prog.ObjOf(e)
		if obj == nil {
			fb.b.errorf(e.TokPos, "cannot address unresolved identifier %s", e.Name)
			return fb.unknown(fb.b.ptrs.To(ctypes.IntType), e.TokPos), ctypes.IntType
		}
		if !fb.b.storeResident(obj) {
			// sema's AddrTaken marking guarantees this does not happen
			// for genuine address-of; it can only be an internal error.
			fb.b.errorf(e.TokPos, "internal: address of dataflow variable %s", e.Name)
			return fb.unknown(fb.b.ptrs.To(obj.Type), e.TokPos), obj.Type
		}
		return fb.addrOfObj(obj, e.TokPos), obj.Type
	case *ast.Unary:
		if e.Op == token.MUL {
			pointee := ctypes.IntType
			if pt := fb.typeOf(e.X); pt.Kind == ctypes.Pointer {
				pointee = pt.Elem
			}
			return fb.expr(e.X), pointee
		}
	case *ast.Index:
		base := fb.expr(e.X)
		fb.expr(e.Idx) // evaluate for effects; the value is irrelevant
		elem := ctypes.IntType
		if xt := fb.typeOf(e.X); xt.Kind == ctypes.Pointer {
			elem = xt.Elem
		}
		return fb.indexAddr(base, elem, e.TokPos), elem
	case *ast.Member:
		var structType *ctypes.Type
		var baseAddr *Output
		if e.Arrow {
			baseAddr = fb.expr(e.X)
			pt := fb.typeOf(e.X)
			if pt.Kind == ctypes.Pointer {
				structType = pt.Elem
			}
		} else {
			baseAddr, structType = fb.addrT(e.X)
		}
		if structType == nil || structType.Kind != ctypes.Struct {
			fb.b.errorf(e.TokPos, "member access on non-struct")
			return fb.unknown(fb.b.ptrs.To(ctypes.IntType), e.TokPos), ctypes.IntType
		}
		ft := ctypes.IntType
		if f, ok := structType.Field(e.Name); ok {
			ft = f.Type
		}
		return fb.fieldAddr(baseAddr, structType, e.Name, e.TokPos), ft
	}
	fb.b.errorf(e.Pos(), "expression is not addressable")
	return fb.unknown(fb.b.ptrs.To(ctypes.IntType), e.Pos()), ctypes.IntType
}

// ---------------------------------------------------------------------------
// Rvalues

// expr builds the rvalue of e; nil for void expressions.
func (fb *fnBuilder) expr(e ast.Expr) *Output {
	switch e := e.(type) {
	case *ast.IntLit:
		return fb.konst(ctypes.IntType, e.TokPos)
	case *ast.FloatLit:
		return fb.konst(ctypes.DoubleType, e.TokPos)
	case *ast.CharLit:
		return fb.konst(ctypes.CharType, e.TokPos)
	case *ast.SizeofExpr:
		return fb.konst(ctypes.LongType, e.TokPos)
	case *ast.StringLit:
		return fb.stringRef(e)
	case *ast.Ident:
		return fb.identValue(e)
	case *ast.Unary:
		return fb.unary(e)
	case *ast.Postfix:
		return fb.incDec(e.X, e.Op, false, e.TokPos)
	case *ast.Binary:
		return fb.binary(e)
	case *ast.Assign:
		return fb.assign(e)
	case *ast.Cond:
		return fb.cond(e)
	case *ast.Call:
		return fb.call(e)
	case *ast.Index, *ast.Member:
		return fb.loadLvalue(e)
	case *ast.Cast:
		return fb.cast(e)
	case *ast.Comma:
		fb.expr(e.X)
		return fb.expr(e.Y)
	}
	fb.b.errorf(e.Pos(), "unsupported expression %T", e)
	return fb.unknown(ctypes.IntType, e.Pos())
}

func (fb *fnBuilder) stringRef(e *ast.StringLit) *Output {
	base, ok := fb.b.strBases[e]
	if !ok {
		base = fb.g.Universe.NewBase(paths.StrBase, "str@"+e.TokPos.In(fb.b.prog.Name), false, false)
		fb.b.strBases[e] = base
	}
	n := fb.g.NewNode(fb.fg, KAddr, e.TokPos)
	n.Path = fb.g.Universe.Root(base)
	return fb.g.AddOutput(n, fb.b.ptrs.To(ctypes.CharType), false)
}

// recordVar registers v as a value occurrence of obj for the demand
// query layer (Graph.VarValues).
func (fb *fnBuilder) recordVar(obj *sema.Object, v *Output) {
	if obj == nil || v == nil {
		return
	}
	b := fb.b
	if b.vals[obj.ID] == nil {
		b.valObjs = append(b.valObjs, obj)
	}
	// Most variables have a handful of occurrences.
	b.vals[obj.ID] = append(fb.g.outEdges.Grow(b.vals[obj.ID], 4), v)
}

func (fb *fnBuilder) identValue(e *ast.Ident) *Output {
	if _, isConst := fb.b.prog.ConstOf(e); isConst {
		return fb.konst(ctypes.IntType, e.TokPos)
	}
	obj := fb.b.prog.ObjOf(e)
	if obj == nil {
		return fb.unknown(ctypes.IntType, e.TokPos)
	}
	switch obj.Kind {
	case sema.FuncObj:
		fn := fb.b.prog.FuncMap[obj.Name]
		if fn == nil {
			fb.b.errorf(e.TokPos, "internal: unknown function %s", obj.Name)
			return fb.unknown(fb.typeOf(e), e.TokPos)
		}
		v := fb.funcRef(fn, e.TokPos)
		fb.recordVar(obj, v)
		return v
	case sema.BuiltinObj:
		fb.b.errorf(e.TokPos, "library function %s may only be called, not used as a value", obj.Name)
		return fb.unknown(fb.typeOf(e), e.TokPos)
	}
	if !fb.b.storeResident(obj) {
		if v := fb.cur.env[obj.Slot]; v != nil {
			fb.recordVar(obj, v)
			return v
		}
		// Use before any assignment: undefined scalar value.
		v := fb.unknown(obj.Type, e.TokPos)
		fb.cur.env[obj.Slot] = v
		fb.recordVar(obj, v)
		return v
	}
	addr := fb.addrOfObj(obj, e.TokPos)
	if obj.Type.Kind == ctypes.Array {
		fb.recordVar(obj, addr)
		return addr // arrays decay to their address
	}
	v := fb.lookup(addr, obj.Type, e.TokPos)
	fb.recordVar(obj, v)
	return v
}

// loadLvalue reads an Index or Member lvalue, handling array decay and
// member projection from non-addressable aggregates.
func (fb *fnBuilder) loadLvalue(e ast.Expr) *Output {
	// Member access on a non-lvalue aggregate (function result):
	// project out of the aggregate value directly.
	if m, ok := e.(*ast.Member); ok && !m.Arrow && !isLvalue(m.X) {
		v := fb.expr(m.X)
		n := fb.g.NewNode(fb.fg, KExtract, m.TokPos)
		n.Field = m.Name
		st := fb.typeOf(m.X)
		n.Transparent = st.Kind == ctypes.Struct && st.Union
		fb.g.Connect(n, v)
		return fb.g.AddOutput(n, fb.typeOf(e), false)
	}
	a, pt := fb.addrT(e)
	if pt.Kind == ctypes.Array {
		// An array lvalue decays to the address of its storage;
		// consumers index through it.
		return a
	}
	return fb.lookup(a, pt, e.Pos())
}

func (fb *fnBuilder) unary(e *ast.Unary) *Output {
	switch e.Op {
	case token.AND:
		// &function is a funcRef; &lvalue is its address.
		if id, ok := e.X.(*ast.Ident); ok {
			if obj := fb.b.prog.ObjOf(id); obj != nil && obj.Kind == sema.FuncObj {
				return fb.funcRef(fb.b.prog.FuncMap[obj.Name], e.TokPos)
			}
		}
		return fb.addr(e.X)
	case token.MUL:
		// Dereferencing a function pointer yields the function value
		// again ((*fp)(...) equals fp(...)).
		if pt := fb.typeOf(e.X); pt.Kind == ctypes.Pointer && pt.Elem.Kind == ctypes.Func {
			return fb.expr(e.X)
		}
		a, pt := fb.addrT(e)
		if pt.Kind == ctypes.Array {
			return a // array decays to its address
		}
		return fb.lookup(a, pt, e.TokPos)
	case token.SUB, token.NOT, token.LNOT:
		v := fb.expr(e.X)
		return fb.primop(e.Op.String(), false, fb.typeOf(e), e.TokPos, v)
	case token.INC, token.DEC:
		return fb.incDec(e.X, e.Op, true, e.TokPos)
	}
	fb.b.errorf(e.TokPos, "unsupported unary operator %s", e.Op)
	return fb.unknown(ctypes.IntType, e.TokPos)
}

// incDec implements ++/-- (prefix and postfix). The points-to pairs of
// old and new values coincide (array-interior pointer arithmetic), so
// the returned output differs only in which scalar value it denotes.
func (fb *fnBuilder) incDec(lv ast.Expr, op token.Kind, prefix bool, pos token.Pos) *Output {
	t := fb.typeOf(lv)
	transparent := t.Kind == ctypes.Pointer
	if id, ok := lv.(*ast.Ident); ok {
		if obj := fb.b.prog.ObjOf(id); obj != nil && !fb.b.storeResident(obj) && obj.Kind != sema.GlobalVar {
			old := fb.identValue(id)
			nv := fb.primop(op.String(), transparent, t, pos, old)
			fb.cur.env[obj.Slot] = nv
			if prefix {
				return nv
			}
			return old
		}
	}
	a := fb.addr(lv)
	old := fb.lookup(a, t, pos)
	nv := fb.primop(op.String(), transparent, t, pos, old)
	fb.update(a, nv, pos)
	if prefix {
		return nv
	}
	return old
}

func (fb *fnBuilder) binary(e *ast.Binary) *Output {
	switch e.Op {
	case token.LAND, token.LOR:
		// The right operand evaluates conditionally; merge its effects
		// as a branch. The left operand guards it: in `p && *p` the
		// dereference only runs when p tested non-null.
		x := fb.expr(e.X)
		pre := fb.cur.clone(&fb.b.envs)
		fb.refineGuard(e.X, e.Op == token.LAND, e.TokPos)
		y := fb.expr(e.Y)
		branch := fb.cur
		fb.cur = fb.merge(e.TokPos, pre, branch)
		return fb.primop(e.Op.String(), false, ctypes.IntType, e.TokPos, x, y)
	}
	x := fb.expr(e.X)
	y := fb.expr(e.Y)
	t := fb.typeOf(e)
	switch e.Op {
	case token.ADD, token.SUB:
		if t.Kind == ctypes.Pointer {
			// Pointer arithmetic: pairs flow through unchanged.
			return fb.primop(e.Op.String(), true, t, e.TokPos, x, y)
		}
	}
	return fb.primop(e.Op.String(), false, t, e.TokPos, x, y)
}

func (fb *fnBuilder) assign(e *ast.Assign) *Output {
	if e.Op == token.ASSIGN {
		v := fb.expr(e.RHS)
		v = fb.maybeNull(v, e.RHS, fb.typeOf(e.LHS), e.TokPos)
		fb.store(e.LHS, v, e.TokPos)
		return v
	}
	// Compound assignment: read-modify-write.
	op := e.Op.CompoundOp()
	t := fb.typeOf(e.LHS)
	transparent := t.Kind == ctypes.Pointer && (op == token.ADD || op == token.SUB)
	if id, ok := e.LHS.(*ast.Ident); ok {
		if obj := fb.b.prog.ObjOf(id); obj != nil && !fb.b.storeResident(obj) {
			old := fb.identValue(id)
			rhs := fb.expr(e.RHS)
			nv := fb.primop(op.String(), transparent, t, e.TokPos, old, rhs)
			fb.cur.env[obj.Slot] = nv
			return nv
		}
	}
	a := fb.addr(e.LHS)
	old := fb.lookup(a, t, e.TokPos)
	rhs := fb.expr(e.RHS)
	nv := fb.primop(op.String(), transparent, t, e.TokPos, old, rhs)
	fb.update(a, nv, e.TokPos)
	return nv
}

// store assigns v to the lvalue lhs.
func (fb *fnBuilder) store(lhs ast.Expr, v *Output, pos token.Pos) {
	if v == nil {
		v = fb.unknown(fb.typeOf(lhs), pos)
	}
	if id, ok := lhs.(*ast.Ident); ok {
		if obj := fb.b.prog.ObjOf(id); obj != nil {
			if !fb.b.storeResident(obj) &&
				(obj.Kind == sema.LocalVar || obj.Kind == sema.ParamVar) {
				fb.cur.env[obj.Slot] = v
				fb.recordVar(obj, v)
				return
			}
			// Store-resident variable: the assigned value is still a
			// value occurrence of the variable for the query layer.
			fb.recordVar(obj, v)
		}
	}
	a := fb.addr(lhs)
	fb.update(a, v, pos)
}

func (fb *fnBuilder) cond(e *ast.Cond) *Output {
	fb.expr(e.Cond)
	pre := fb.cur.clone(&fb.b.envs)

	fb.refineGuard(e.Cond, true, e.TokPos)
	tv := fb.expr(e.Then)
	thenState := fb.cur

	fb.cur = pre.clone(&fb.b.envs)
	fb.refineGuard(e.Cond, false, e.TokPos)
	ev := fb.expr(e.Else)
	elseState := fb.cur

	fb.cur = fb.merge(e.TokPos, thenState, elseState)
	t := fb.typeOf(e)
	if t.Kind == ctypes.Void || (tv == nil && ev == nil) {
		return nil
	}
	if tv == nil || ev == nil || tv == ev {
		if tv != nil {
			return tv
		}
		return ev
	}
	gamma := fb.g.NewNode(fb.fg, KGamma, e.TokPos)
	out := fb.g.AddOutput(gamma, t, false)
	fb.g.Connect(gamma, tv)
	fb.g.Connect(gamma, ev)
	return out
}

func (fb *fnBuilder) cast(e *ast.Cast) *Output {
	v := fb.expr(e.X)
	t := fb.typeOf(e)
	if t.Kind == ctypes.Void {
		return nil
	}
	from := fb.typeOf(e.X)
	if t.IsPointerish() && from.IsPointerish() {
		// Pointer-to-pointer casts are transparent: the value (and its
		// pairs) is unchanged; only the static type differs.
		return v
	}
	if t.Kind == ctypes.Pointer && isNullConst(e.X) {
		// `(T *) 0` is a null pointer constant.
		return fb.maybeNull(v, e.X, t, e.TokPos)
	}
	return fb.primop("conv", false, t, e.TokPos, v)
}
