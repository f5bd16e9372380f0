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
func (fb *fnBuilder) addrOfObj(obj *sema.Object, pos token.Pos) value {
	if v := fb.b.refs[obj.ID]; v != 0 {
		return v
	}
	base := fb.b.baseOf(obj)
	n := fb.node(op{kind: KAddr, pos: pos, obj: obj, path: fb.g.Universe.Root(base)}, 0)
	v := fb.output(n, fb.b.ptrs.To(obj.Type), false)
	fb.b.refs[obj.ID] = v
	return v
}

// funcRef returns the (cached) address constant of a function.
func (fb *fnBuilder) funcRef(fn *sema.Function, pos token.Pos) value {
	if v := fb.b.refs[fn.Object.ID]; v != 0 {
		return v
	}
	base := fb.b.funcBases[fn]
	n := fb.node(op{kind: KAddr, pos: pos, path: fb.g.Universe.Root(base)}, 0)
	v := fb.output(n, fb.b.ptrs.To(fn.Type), false)
	fb.b.refs[fn.Object.ID] = v
	return v
}

// lookup reads through loc in the current store.
func (fb *fnBuilder) lookup(loc value, typ *ctypes.Type, pos token.Pos) value {
	n := fb.node(op{kind: KLookup, pos: pos}, 2)
	fb.connect(n, loc)
	fb.connect(n, fb.cur.store)
	return fb.output(n, typ, false)
}

// update writes v through loc, threading the store.
func (fb *fnBuilder) update(loc, v value, pos token.Pos) {
	n := fb.node(op{kind: KUpdate, pos: pos}, 3)
	fb.connect(n, loc)
	fb.connect(n, fb.cur.store)
	fb.connect(n, v)
	fb.cur.store = fb.output(n, nil, true)
}

// fieldAddr computes the address of a member from the aggregate's
// address. Union members use the overlapping union operator.
func (fb *fnBuilder) fieldAddr(addr value, structType *ctypes.Type, name string, pos token.Pos) value {
	// Transparent is a reused flag here: it marks union member access.
	n := fb.node(op{kind: KFieldAddr, pos: pos, text: name, transparent: structType.Union}, 1)
	fb.connect(n, addr)
	ft := ctypes.IntType
	if f, ok := structType.Field(name); ok {
		ft = f.Type
	}
	return fb.output(n, fb.b.ptrs.To(ft), false)
}

// indexAddr computes the address of an element from the array/pointer
// value. elem is the precise (undecayed) element type.
func (fb *fnBuilder) indexAddr(base value, elem *ctypes.Type, pos token.Pos) value {
	n := fb.node(op{kind: KIndexAddr, pos: pos}, 1)
	fb.connect(n, base)
	return fb.output(n, fb.b.ptrs.To(elem), false)
}

// konst creates an opaque constant value.
func (fb *fnBuilder) konst(typ *ctypes.Type, pos token.Pos) value {
	return fb.output(fb.node(op{kind: KConst, pos: pos}, 0), typ, false)
}

// unknown creates an opaque non-constant value (library results,
// undefined variables).
func (fb *fnBuilder) unknown(typ *ctypes.Type, pos token.Pos) value {
	return fb.output(fb.node(op{kind: KUnknown, pos: pos}, 0), typ, false)
}

// primop creates a primitive operation. transparent ops propagate
// points-to pairs from pointer-valued inputs (pointer arithmetic).
// Absent (0) arguments are skipped.
func (fb *fnBuilder) primop(operator string, transparent bool, typ *ctypes.Type, pos token.Pos, args ...value) value {
	arity := 0
	for _, a := range args {
		if a != 0 {
			arity++
		}
	}
	n := fb.node(op{kind: KPrimop, pos: pos, text: operator, transparent: transparent}, arity)
	for _, a := range args {
		if a != 0 {
			fb.connect(n, a)
		}
	}
	return fb.output(n, typ, false)
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
func (fb *fnBuilder) addr(e ast.Expr) value {
	out, _ := fb.addrT(e)
	return out
}

// addrT builds the address of lvalue e and also returns the precise
// (undecayed) type of the addressed storage, which drives array decay
// decisions that the checker's decayed expression types cannot.
func (fb *fnBuilder) addrT(e ast.Expr) (value, *ctypes.Type) {
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
		var baseAddr value
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

// expr builds the rvalue of e; 0 for void expressions.
func (fb *fnBuilder) expr(e ast.Expr) value {
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

func (fb *fnBuilder) stringRef(e *ast.StringLit) value {
	base, ok := fb.b.strBases[e]
	if !ok {
		base = fb.g.Universe.NewBase(paths.StrBase, "str@"+e.TokPos.In(fb.b.prog.Name), false, false)
		fb.b.strBases[e] = base
	}
	n := fb.node(op{kind: KAddr, pos: e.TokPos, path: fb.g.Universe.Root(base)}, 0)
	return fb.output(n, fb.b.ptrs.To(ctypes.CharType), false)
}

// recordVar registers v as a value occurrence of obj for the demand
// query layer (Graph.VarValues).
func (fb *fnBuilder) recordVar(obj *sema.Object, v value) {
	if obj == nil || v == 0 {
		return
	}
	fb.b.t.recorded = append(fb.b.t.recorded, recording{obj, v})
}

func (fb *fnBuilder) identValue(e *ast.Ident) value {
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
		if v := fb.cur.env[obj.Slot]; v != 0 {
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
func (fb *fnBuilder) loadLvalue(e ast.Expr) value {
	// Member access on a non-lvalue aggregate (function result):
	// project out of the aggregate value directly.
	if m, ok := e.(*ast.Member); ok && !m.Arrow && !isLvalue(m.X) {
		v := fb.expr(m.X)
		st := fb.typeOf(m.X)
		n := fb.node(op{kind: KExtract, pos: m.TokPos, text: m.Name, transparent: st.Kind == ctypes.Struct && st.Union}, 1)
		fb.connect(n, v)
		return fb.output(n, fb.typeOf(e), false)
	}
	a, pt := fb.addrT(e)
	if pt.Kind == ctypes.Array {
		// An array lvalue decays to the address of its storage;
		// consumers index through it.
		return a
	}
	return fb.lookup(a, pt, e.Pos())
}

func (fb *fnBuilder) unary(e *ast.Unary) value {
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
func (fb *fnBuilder) incDec(lv ast.Expr, op token.Kind, prefix bool, pos token.Pos) value {
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

func (fb *fnBuilder) binary(e *ast.Binary) value {
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

func (fb *fnBuilder) assign(e *ast.Assign) value {
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
func (fb *fnBuilder) store(lhs ast.Expr, v value, pos token.Pos) {
	if v == 0 {
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

func (fb *fnBuilder) cond(e *ast.Cond) value {
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
	if t.Kind == ctypes.Void || (tv == 0 && ev == 0) {
		return 0
	}
	if tv == 0 || ev == 0 || tv == ev {
		if tv != 0 {
			return tv
		}
		return ev
	}
	gamma := fb.node(op{kind: KGamma, pos: e.TokPos}, 2)
	out := fb.output(gamma, t, false)
	fb.connect(gamma, tv)
	fb.connect(gamma, ev)
	return out
}

func (fb *fnBuilder) cast(e *ast.Cast) value {
	v := fb.expr(e.X)
	t := fb.typeOf(e)
	if t.Kind == ctypes.Void {
		return 0
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
