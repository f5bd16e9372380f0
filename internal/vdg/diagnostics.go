package vdg

// Diagnostics instrumentation (Options.Diagnostics): marker locations
// for null and uninitialized pointer values, guard refinement for
// pointer tests, and KFree kill events. All of it is inert when the
// option is off, so the paper's precision experiments are unaffected.

import (
	"aliaslab/internal/ast"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/paths"
	"aliaslab/internal/sema"
	"aliaslab/internal/token"
)

// markerRef returns the (cached) address constant of a marker root
// (Universe.NullRoot or UninitRoot).
func (fb *fnBuilder) markerRef(root *paths.Path, typ *ctypes.Type, pos token.Pos) value {
	ref := &fb.uninitRef
	if root.Base().Kind == paths.NullBase {
		ref = &fb.nullRef
	}
	if *ref == 0 {
		*ref = fb.output(fb.node(op{kind: KAddr, pos: pos, path: root}, 0), typ, false)
	}
	return *ref
}

// isNullConst reports whether e is a null pointer constant: the integer
// literal 0, possibly behind casts (`(char *) 0`).
func isNullConst(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value == 0
	case *ast.Cast:
		return isNullConst(e.X)
	}
	return false
}

// maybeNull replaces v with the <null> marker address when diagnostics
// are on, the destination type is a pointer, and the source expression
// is a null pointer constant. Used at the implicit int→pointer
// conversion points (assignment, initialization, return).
func (fb *fnBuilder) maybeNull(v value, e ast.Expr, want *ctypes.Type, pos token.Pos) value {
	if !fb.b.opts.Diagnostics || v == 0 || want == nil || want.Kind != ctypes.Pointer {
		return v
	}
	if !isNullConst(e) {
		return v
	}
	return fb.markerRef(fb.g.Universe.NullRoot(), want, pos)
}

// seedMarkers writes the marker value into every pointer component of
// the storage addressed by addr: scalar pointers directly, struct
// members recursively. Array elements and union members are skipped —
// their paths are never strongly updatable, so a marker there could
// not be killed by a later initialization and would only manufacture
// false positives.
func (fb *fnBuilder) seedMarkers(addr value, typ *ctypes.Type, root *paths.Path, pos token.Pos, depth int) {
	if depth > 8 {
		return
	}
	switch typ.Kind {
	case ctypes.Pointer:
		fb.update(addr, fb.markerRef(root, typ, pos), pos)
	case ctypes.Struct:
		if typ.Union {
			return
		}
		for _, f := range typ.Fields {
			fa := fb.fieldAddr(addr, typ, f.Name, pos)
			fb.seedMarkers(fa, f.Type, root, pos, depth+1)
		}
	}
}

// seedGlobalZeroInits models C's zero initialization of file-scope
// storage: pointer components of globals without an explicit
// initializer start out null.
func (fb *fnBuilder) seedGlobalZeroInits() {
	if !fb.b.opts.Diagnostics {
		return
	}
	for _, obj := range fb.b.prog.Globals {
		if d := obj.Decl; d != nil && (d.Init != nil || d.InitList != nil) {
			continue
		}
		if !obj.Type.CanHoldPointer() {
			continue
		}
		addr := fb.addrOfObj(obj, obj.Pos)
		fb.seedMarkers(addr, obj.Type, fb.g.Universe.NullRoot(), obj.Pos, 0)
	}
}

// seedLocalUninit marks the pointer components of an uninitialized
// store-resident local as <uninit>. A later definite assignment
// strongly updates the marker away; along paths that skip the
// assignment it survives and flags the read.
func (fb *fnBuilder) seedLocalUninit(obj *sema.Object, addr value, pos token.Pos) {
	if !fb.b.opts.Diagnostics || !obj.Type.CanHoldPointer() {
		return
	}
	fb.seedMarkers(addr, obj.Type, fb.g.Universe.UninitRoot(), pos, 0)
}

// uninitValue returns the value of an uninitialized dataflow (non
// store-resident) variable: the <uninit> marker for pointers under
// diagnostics, an opaque unknown otherwise.
func (fb *fnBuilder) uninitValue(obj *sema.Object, pos token.Pos) value {
	if fb.b.opts.Diagnostics && obj.Type.Kind == ctypes.Pointer {
		return fb.markerRef(fb.g.Universe.UninitRoot(), obj.Type, pos)
	}
	return fb.unknown(obj.Type, pos)
}

// nullTest recognizes the common null-guard condition shapes over a
// dataflow pointer variable p: `p` and `p != 0` (non-null when true),
// `!p` and `p == 0` (non-null when false), and the list-walking idiom
// `(p = ...) != 0` where the tested value is the assignment's target.
// It returns the tested object and the branch on which it is known
// non-null.
func (fb *fnBuilder) nullTest(e ast.Expr) (obj *sema.Object, nonNullWhen bool, ok bool) {
	ptrObj := func(x ast.Expr) *sema.Object {
		for {
			if a, isAssign := x.(*ast.Assign); isAssign && a.Op == token.ASSIGN {
				x = a.LHS
				continue
			}
			break
		}
		id, isIdent := x.(*ast.Ident)
		if !isIdent {
			return nil
		}
		o := fb.b.prog.ObjOf(id)
		if o == nil || o.Type == nil || o.Type.Kind != ctypes.Pointer {
			return nil
		}
		return o
	}
	switch e := e.(type) {
	case *ast.Ident:
		if o := ptrObj(e); o != nil {
			return o, true, true
		}
	case *ast.Assign:
		if e.Op == token.ASSIGN {
			if o := ptrObj(e.LHS); o != nil {
				return o, true, true
			}
		}
	case *ast.Unary:
		if e.Op == token.LNOT {
			if o, when, k := fb.nullTest(e.X); k {
				return o, !when, true
			}
		}
	case *ast.Binary:
		if e.Op == token.EQL || e.Op == token.NEQ {
			var side ast.Expr
			if isNullConst(e.Y) {
				side = e.X
			} else if isNullConst(e.X) {
				side = e.Y
			}
			if side != nil {
				if o := ptrObj(side); o != nil {
					return o, e.Op == token.NEQ, true
				}
			}
		}
	}
	return nil, false, false
}

// refineGuard narrows the current state for the branch where cond
// evaluated to condValue: when cond is a recognized null test proving a
// dataflow pointer non-null on this branch, the variable is rebound
// through an OpChecked filter that drops marker referents. The
// rebinding is branch-local; merges restore the union.
func (fb *fnBuilder) refineGuard(cond ast.Expr, condValue bool, pos token.Pos) {
	if !fb.b.opts.Diagnostics || cond == nil {
		return
	}
	obj, nonNullWhen, ok := fb.nullTest(cond)
	if !ok || nonNullWhen != condValue || fb.b.storeResident(obj) {
		return // only dataflow variables have a value in the env
	}
	v := fb.cur.env[obj.Slot]
	if v == 0 {
		return
	}
	fb.cur.env[obj.Slot] = fb.primop(OpChecked, true, obj.Type, pos, v)
}
