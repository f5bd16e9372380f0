// Package sema performs semantic analysis on mini-C ASTs: scope and
// symbol resolution, typedef/struct/enum resolution, expression type
// checking, and address-taken computation.
//
// The address-taken bit drives the VDG builder's SSA-like store removal:
// scalars whose address is never taken are represented as pure dataflow
// values and never appear in the store, exactly as in the paper's
// intermediate form ([Ruf95] "removes non-addressed variables from the
// store").
package sema

import (
	"fmt"

	"aliaslab/internal/ast"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/slab"
	"aliaslab/internal/token"
)

// Error is a semantic error with its file and source position.
type Error struct {
	File string
	Pos  token.Pos
	Msg  string
}

func (e *Error) Error() string { return e.Pos.In(e.File) + ": " + e.Msg }

// ObjKind classifies declared objects.
type ObjKind int

const (
	GlobalVar ObjKind = iota
	LocalVar
	ParamVar
	FuncObj
	BuiltinObj
)

func (k ObjKind) String() string {
	switch k {
	case GlobalVar:
		return "global"
	case LocalVar:
		return "local"
	case ParamVar:
		return "param"
	case FuncObj:
		return "func"
	case BuiltinObj:
		return "builtin"
	}
	return "object"
}

// Object is a declared variable or function.
type Object struct {
	Name string
	Kind ObjKind
	Type *ctypes.Type
	Pos  token.Pos

	// AddrTaken is set when the object's address escapes via &, or when
	// the object is an aggregate or array (always store-resident).
	AddrTaken bool

	// Owner is the enclosing function for locals and params; nil for
	// globals and functions.
	Owner *Function

	// Decl is the defining VarDecl, when any (for initializers).
	Decl *ast.VarDecl

	// ID is a unique index within the Program, assigned in creation order.
	ID int

	// Slot numbers the parameters and non-static block locals of the
	// owning function 0, 1, 2, ... (below Function.Slots), so the VDG
	// builder can keep per-variable state in slices. Other objects
	// have no slot and leave it 0.
	Slot int
}

func (o *Object) String() string {
	if o.Owner != nil {
		return o.Owner.Name + "." + o.Name
	}
	return o.Name
}

// Function is a defined or declared function.
type Function struct {
	Name   string
	Object *Object
	Type   *ctypes.Type // Kind Func
	Params []*Object
	Locals []*Object // all block-scoped locals, in declaration order
	Slots  int       // the number of slots given to Params and Locals
	Body   *ast.Block
	Decl   *ast.FuncDecl

	// Recursive is set for functions on a call-graph cycle (computed
	// syntactically from direct calls; indirect recursion through
	// function pointers is conservatively detected by the analysis).
	Recursive bool
}

// Program is a checked translation unit plus side tables.
type Program struct {
	Name    string
	Globals []*Object
	Funcs   []*Function
	FuncMap map[string]*Function

	// types, objs and consts are indexed by expression number (see
	// ast.Expr) and read through TypeOf, ObjOf and ConstOf: the checked
	// type of every expression, the object each identifier use denotes,
	// and the value of each enum constant use, whose objs entry is
	// enumConst. consts is allocated at the first enum constant use.
	types  []*ctypes.Type
	objs   []*Object
	consts []int64

	// DeclObj maps variable declarations to their objects.
	DeclObj map[*ast.VarDecl]*Object

	nextID int
}

// enumConst marks the objs entry of an enum constant use.
var enumConst = new(Object)

// TypeOf returns the checked (decayed) type of e, or nil when e was
// not checked.
func (p *Program) TypeOf(e ast.Expr) *ctypes.Type { return p.types[e.ExprID()] }

// ObjOf returns the object the identifier use id denotes, or nil for
// an enum constant or an unresolved name.
func (p *Program) ObjOf(id *ast.Ident) *Object {
	if o := p.objs[id.ID]; o != enumConst {
		return o
	}
	return nil
}

// ConstOf returns the value of the enum constant id names, and whether
// it names one.
func (p *Program) ConstOf(id *ast.Ident) (int64, bool) {
	if p.objs[id.ID] != enumConst {
		return 0, false
	}
	return p.consts[id.ID], true
}

// Exprs returns the length of the per-expression tables: one past the
// largest expression number of the checked file.
func (p *Program) Exprs() int { return len(p.types) }

// ObjectIDs returns one past the largest Object.ID: the length of a
// table indexed by object ID.
func (p *Program) ObjectIDs() int { return p.nextID }

// newObject allocates an object with a fresh ID.
func (c *Checker) newObject(name string, kind ObjKind, typ *ctypes.Type, pos token.Pos) *Object {
	o := c.objs.Alloc()
	*o = Object{Name: name, Kind: kind, Type: typ, Pos: pos, ID: c.prog.nextID}
	c.prog.nextID++
	return o
}

// scopeEntry is one name binding: exactly one field is set.
type scopeEntry struct {
	obj     *Object
	typedef *ctypes.Type
	enumVal int64
	isEnum  bool
}

// Checker holds checking state.
type Checker struct {
	prog *Program
	errs []*Error

	scopes  []map[string]scopeEntry
	structs map[string]*ctypes.Type // tag -> type (file scope)
	objs    slab.Slab[Object]       // newObject's chunks

	curFunc   *Function
	callGraph map[*Function][]*Function // direct calls, for recursion marking

	ptrs ctypes.PointerCache
}

// Check type-checks file and returns the program. The program is usable
// for further analysis only when the error slice is empty.
func Check(file *ast.File) (*Program, []*Error) {
	c := &Checker{
		prog: &Program{
			Name:    file.Name,
			FuncMap: make(map[string]*Function),
			types:   make([]*ctypes.Type, max(file.Exprs, 1)),
			objs:    make([]*Object, max(file.Exprs, 1)),
			DeclObj: make(map[*ast.VarDecl]*Object),
		},
		structs: make(map[string]*ctypes.Type),
		ptrs:    make(ctypes.PointerCache),
	}
	c.scopes = append(c.scopes, make(map[string]scopeEntry, len(builtinSigs)+len(file.Decls)))
	c.declareBuiltins()

	// Pass 1: collect file-scope declarations so forward references work.
	for _, d := range file.Decls {
		c.collectTopDecl(d)
	}
	// Pass 2: check function bodies and global initializers.
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			c.checkFuncBody(fd)
		}
		if vd, ok := d.(*ast.VarDecl); ok {
			c.checkGlobalInit(vd)
		}
	}
	c.markRecursion()
	c.popScope()
	return c.prog, c.errs
}

func (c *Checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{File: c.prog.Name, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Scopes

// pushScope opens a scope. The stack keeps popped maps past its length,
// cleared, so a check allocates one map per nesting depth rather than
// one per block.
func (c *Checker) pushScope() {
	if n := len(c.scopes); n < cap(c.scopes) && c.scopes[:n+1][n] != nil {
		c.scopes = c.scopes[:n+1]
		return
	}
	c.scopes = append(c.scopes, make(map[string]scopeEntry))
}

func (c *Checker) popScope() {
	clear(c.scopes[len(c.scopes)-1])
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *Checker) declare(name string, e scopeEntry, pos token.Pos) {
	top := c.scopes[len(c.scopes)-1]
	if prev, ok := top[name]; ok {
		// Redeclaring a prototype with a definition is fine; anything
		// else is an error.
		if prev.obj != nil && e.obj != nil && prev.obj.Kind == FuncObj && e.obj.Kind == FuncObj {
			top[name] = e
			return
		}
		c.errorf(pos, "%s redeclared in this scope", name)
		return
	}
	top[name] = e
}

func (c *Checker) lookup(name string) (scopeEntry, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if e, ok := c.scopes[i][name]; ok {
			return e, true
		}
	}
	return scopeEntry{}, false
}

// ---------------------------------------------------------------------------
// Builtin library model
//
// The paper treats library procedures known not to affect the points-to
// solution as identity functions on the store; allocators get one heap
// base-location per static call site. The VDG builder keys off these
// names; sema only provides their types.

var voidPtr = ctypes.PointerTo(ctypes.VoidType)
var charPtr = ctypes.PointerTo(ctypes.CharType)

// builtinSigs lists the modeled library functions.
var builtinSigs = []struct {
	name string
	typ  *ctypes.Type
}{
	{"malloc", ctypes.FuncOf([]*ctypes.Type{ctypes.LongType}, false, voidPtr)},
	{"calloc", ctypes.FuncOf([]*ctypes.Type{ctypes.LongType, ctypes.LongType}, false, voidPtr)},
	{"realloc", ctypes.FuncOf([]*ctypes.Type{voidPtr, ctypes.LongType}, false, voidPtr)},
	{"free", ctypes.FuncOf([]*ctypes.Type{voidPtr}, false, ctypes.VoidType)},

	{"strlen", ctypes.FuncOf([]*ctypes.Type{charPtr}, false, ctypes.LongType)},
	{"strcpy", ctypes.FuncOf([]*ctypes.Type{charPtr, charPtr}, false, charPtr)},
	{"strncpy", ctypes.FuncOf([]*ctypes.Type{charPtr, charPtr, ctypes.LongType}, false, charPtr)},
	{"strcat", ctypes.FuncOf([]*ctypes.Type{charPtr, charPtr}, false, charPtr)},
	{"strcmp", ctypes.FuncOf([]*ctypes.Type{charPtr, charPtr}, false, ctypes.IntType)},
	{"strncmp", ctypes.FuncOf([]*ctypes.Type{charPtr, charPtr, ctypes.LongType}, false, ctypes.IntType)},
	{"strchr", ctypes.FuncOf([]*ctypes.Type{charPtr, ctypes.IntType}, false, charPtr)},
	{"strdup", ctypes.FuncOf([]*ctypes.Type{charPtr}, false, charPtr)},

	{"memcpy", ctypes.FuncOf([]*ctypes.Type{voidPtr, voidPtr, ctypes.LongType}, false, voidPtr)},
	{"memset", ctypes.FuncOf([]*ctypes.Type{voidPtr, ctypes.IntType, ctypes.LongType}, false, voidPtr)},
	{"memcmp", ctypes.FuncOf([]*ctypes.Type{voidPtr, voidPtr, ctypes.LongType}, false, ctypes.IntType)},

	{"printf", ctypes.FuncOf([]*ctypes.Type{charPtr}, true, ctypes.IntType)},
	{"sprintf", ctypes.FuncOf([]*ctypes.Type{charPtr, charPtr}, true, ctypes.IntType)},
	{"fprintf", ctypes.FuncOf([]*ctypes.Type{voidPtr, charPtr}, true, ctypes.IntType)},
	{"sscanf", ctypes.FuncOf([]*ctypes.Type{charPtr, charPtr}, true, ctypes.IntType)},
	{"puts", ctypes.FuncOf([]*ctypes.Type{charPtr}, false, ctypes.IntType)},
	{"putchar", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
	{"getchar", ctypes.FuncOf(nil, false, ctypes.IntType)},
	{"fgets", ctypes.FuncOf([]*ctypes.Type{charPtr, ctypes.IntType, voidPtr}, false, charPtr)},
	{"fopen", ctypes.FuncOf([]*ctypes.Type{charPtr, charPtr}, false, voidPtr)},
	{"fclose", ctypes.FuncOf([]*ctypes.Type{voidPtr}, false, ctypes.IntType)},
	{"fgetc", ctypes.FuncOf([]*ctypes.Type{voidPtr}, false, ctypes.IntType)},
	{"fputc", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType, voidPtr}, false, ctypes.IntType)},

	{"atoi", ctypes.FuncOf([]*ctypes.Type{charPtr}, false, ctypes.IntType)},
	{"atol", ctypes.FuncOf([]*ctypes.Type{charPtr}, false, ctypes.LongType)},
	{"atof", ctypes.FuncOf([]*ctypes.Type{charPtr}, false, ctypes.DoubleType)},

	{"exit", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.VoidType)},
	{"abort", ctypes.FuncOf(nil, false, ctypes.VoidType)},
	{"abs", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
	{"rand", ctypes.FuncOf(nil, false, ctypes.IntType)},
	{"srand", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.VoidType)},

	{"sqrt", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType}, false, ctypes.DoubleType)},
	{"fabs", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType}, false, ctypes.DoubleType)},
	{"exp", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType}, false, ctypes.DoubleType)},
	{"log", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType}, false, ctypes.DoubleType)},
	{"pow", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType, ctypes.DoubleType}, false, ctypes.DoubleType)},
	{"sin", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType}, false, ctypes.DoubleType)},
	{"cos", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType}, false, ctypes.DoubleType)},
	{"floor", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType}, false, ctypes.DoubleType)},
	{"ceil", ctypes.FuncOf([]*ctypes.Type{ctypes.DoubleType}, false, ctypes.DoubleType)},

	{"isalpha", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
	{"isdigit", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
	{"isspace", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
	{"isupper", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
	{"islower", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
	{"toupper", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
	{"tolower", ctypes.FuncOf([]*ctypes.Type{ctypes.IntType}, false, ctypes.IntType)},
}

func (c *Checker) declareBuiltins() {
	for _, b := range builtinSigs {
		o := c.newObject(b.name, BuiltinObj, b.typ, token.Pos{})
		c.declare(b.name, scopeEntry{obj: o}, token.Pos{})
	}
}

// ---------------------------------------------------------------------------
// Type resolution

// resolveType converts type syntax to a canonical ctypes.Type. A nil
// type expression (malformed input that parsing recovered from) resolves
// to int so checking can continue.
func (c *Checker) resolveType(te ast.TypeExpr) *ctypes.Type {
	if te == nil {
		return ctypes.IntType
	}
	switch te := te.(type) {
	case *ast.BaseType:
		bt, err := ctypes.Basic(te.Name)
		if err != nil {
			c.errorf(te.Pos(), "unsupported basic type %s", te.Name)
			return ctypes.IntType
		}
		return bt
	case *ast.NamedType:
		if e, ok := c.lookup(te.Name); ok && e.typedef != nil {
			return e.typedef
		}
		c.errorf(te.Pos(), "undefined type %s", te.Name)
		return ctypes.IntType
	case *ast.PointerType:
		return c.ptrs.To(c.resolveType(te.Elem))
	case *ast.ArrayType:
		return ctypes.ArrayOf(c.resolveType(te.Elem), te.Len)
	case *ast.FuncType:
		var params []*ctypes.Type
		for _, pd := range te.Params {
			params = append(params, c.resolveType(pd.Type))
		}
		return ctypes.FuncOf(params, te.Variadic, c.resolveType(te.Result))
	case *ast.StructType:
		return c.resolveStruct(te)
	case *ast.EnumType:
		c.resolveEnum(te)
		return ctypes.IntType
	}
	c.errorf(te.Pos(), "unsupported type syntax %T", te)
	return ctypes.IntType
}

func (c *Checker) resolveStruct(te *ast.StructType) *ctypes.Type {
	var t *ctypes.Type
	if te.Tag != "" {
		t = c.structs[te.Tag]
		if t == nil {
			t = &ctypes.Type{Kind: ctypes.Struct, Tag: te.Tag, Union: te.Union}
			c.structs[te.Tag] = t
		}
	} else {
		t = &ctypes.Type{Kind: ctypes.Struct, Union: te.Union}
	}
	if te.Fields != nil {
		if t.Complete {
			c.errorf(te.Pos(), "struct %s redefined", te.Tag)
			return t
		}
		t.Complete = true
		for _, f := range te.Fields {
			ft := c.resolveType(f.Type)
			if f.Name == "" {
				c.errorf(f.Pos(), "unnamed struct member")
				continue
			}
			if _, dup := t.Field(f.Name); dup {
				c.errorf(f.Pos(), "duplicate member %s", f.Name)
				continue
			}
			t.Fields = append(t.Fields, ctypes.Field{Name: f.Name, Type: ft})
		}
	}
	return t
}

func (c *Checker) resolveEnum(te *ast.EnumType) {
	if !te.Defined {
		return
	}
	next := int64(0)
	for _, m := range te.Members {
		if m.Value != nil {
			c.checkExpr(m.Value)
			if v, ok := constFold(m.Value, c.prog); ok {
				next = v
			} else {
				c.errorf(m.TokPos, "enum value must be constant")
			}
		}
		c.declare(m.Name, scopeEntry{enumVal: next, isEnum: true}, m.TokPos)
		next++
	}
}

// constFold evaluates integer constant expressions (literals, enum
// constants, arithmetic).
func constFold(e ast.Expr, prog *Program) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.CharLit:
		return int64(e.Value), true
	case *ast.Ident:
		if v, ok := prog.ConstOf(e); ok {
			return v, true
		}
	case *ast.Unary:
		if v, ok := constFold(e.X, prog); ok {
			switch e.Op {
			case token.SUB:
				return -v, true
			case token.NOT:
				return ^v, true
			case token.LNOT:
				if v == 0 {
					return 1, true
				}
				return 0, true
			}
		}
	case *ast.Binary:
		a, ok1 := constFold(e.X, prog)
		b, ok2 := constFold(e.Y, prog)
		if ok1 && ok2 {
			switch e.Op {
			case token.ADD:
				return a + b, true
			case token.SUB:
				return a - b, true
			case token.MUL:
				return a * b, true
			case token.QUO:
				if b != 0 {
					return a / b, true
				}
			case token.SHL:
				return a << uint(b), true
			case token.SHR:
				return a >> uint(b), true
			case token.OR:
				return a | b, true
			case token.AND:
				return a & b, true
			case token.XOR:
				return a ^ b, true
			}
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Top-level collection

func (c *Checker) collectTopDecl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.TypedefDecl:
		t := c.resolveType(d.Type)
		c.declare(d.Name, scopeEntry{typedef: t}, d.TokPos)
	case *ast.TagDecl:
		c.resolveType(d.Type)
	case *ast.VarDecl:
		t := c.resolveType(d.Type)
		if t.Kind == ctypes.Void {
			c.errorf(d.TokPos, "variable %s has void type", d.Name)
			t = ctypes.IntType
		}
		// Unsized arrays take their length from the initializer.
		if at := t; at.Kind == ctypes.Array && at.Len < 0 && d.InitList != nil {
			t = ctypes.ArrayOf(at.Elem, len(d.InitList))
		}
		o := c.newObject(d.Name, GlobalVar, t, d.TokPos)
		o.Decl = d
		o.AddrTaken = t.IsAggregate() // aggregates are store-resident
		c.declare(d.Name, scopeEntry{obj: o}, d.TokPos)
		c.prog.Globals = append(c.prog.Globals, o)
		c.prog.DeclObj[d] = o
	case *ast.FuncDecl:
		ft := c.resolveType(d.Type)
		fn := c.prog.FuncMap[d.Name]
		if fn == nil {
			o := c.newObject(d.Name, FuncObj, ft, d.TokPos)
			fn = &Function{Name: d.Name, Object: o, Type: ft}
			c.prog.FuncMap[d.Name] = fn
			c.prog.Funcs = append(c.prog.Funcs, fn)
			c.declare(d.Name, scopeEntry{obj: o}, d.TokPos)
		}
		if d.Body != nil {
			if fn.Body != nil {
				c.errorf(d.TokPos, "function %s redefined", d.Name)
				return
			}
			fn.Body = d.Body
			fn.Decl = d
			fn.Type = ft
			fn.Object.Type = ft
		}
	}
}

func (c *Checker) checkGlobalInit(vd *ast.VarDecl) {
	e, ok := c.lookup(vd.Name)
	if !ok || e.obj == nil {
		return
	}
	if vd.Init != nil {
		t := c.checkExpr(vd.Init)
		c.checkAssignable(e.obj.Type, t, vd.Init)
	}
	for _, el := range vd.InitList {
		c.checkExpr(el)
	}
}

// ---------------------------------------------------------------------------
// Function bodies

func (c *Checker) checkFuncBody(fd *ast.FuncDecl) {
	fn := c.prog.FuncMap[fd.Name]
	c.curFunc = fn
	c.pushScope()
	for _, pd := range fd.Type.Params {
		pt := c.resolveType(pd.Type)
		o := c.newObject(pd.Name, ParamVar, pt, pd.TokPos)
		o.Owner = fn
		o.AddrTaken = pt.IsAggregate()
		o.Slot = fn.Slots
		fn.Slots++
		fn.Params = append(fn.Params, o)
		if pd.Name != "" {
			c.declare(pd.Name, scopeEntry{obj: o}, pd.TokPos)
		}
	}
	c.checkBlock(fd.Body)
	c.popScope()
	c.curFunc = nil
}

func (c *Checker) checkBlock(b *ast.Block) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *Checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		c.checkBlock(s)
	case *ast.Empty:
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.DeclStmt:
		c.checkLocalDecl(s.Decl)
	case *ast.If:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.While:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Body)
	case *ast.For:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond)
		}
		if s.Post != nil {
			c.checkExpr(s.Post)
		}
		c.checkStmt(s.Body)
		c.popScope()
	case *ast.Return:
		var got *ctypes.Type = ctypes.VoidType
		if s.Value != nil {
			got = c.checkExpr(s.Value)
		}
		if c.curFunc != nil {
			want := c.curFunc.Type.Result()
			if want.Kind == ctypes.Void && s.Value != nil {
				c.errorf(s.TokPos, "return with value in void function %s", c.curFunc.Name)
			} else if want.Kind != ctypes.Void && s.Value != nil {
				c.checkAssignable(want, got, s.Value)
			}
		}
	case *ast.Break, *ast.Continue:
	case *ast.Switch:
		c.checkExpr(s.Tag)
		for _, cs := range s.Cases {
			for _, v := range cs.Values {
				c.checkExpr(v)
			}
			c.pushScope()
			for _, st := range cs.Body {
				c.checkStmt(st)
			}
			c.popScope()
		}
	default:
		c.errorf(s.Pos(), "unsupported statement %T", s)
	}
}

func (c *Checker) checkLocalDecl(vd *ast.VarDecl) {
	t := c.resolveType(vd.Type)
	if t.Kind == ctypes.Void {
		c.errorf(vd.TokPos, "variable %s has void type", vd.Name)
		t = ctypes.IntType
	}
	if at := t; at.Kind == ctypes.Array && at.Len < 0 && vd.InitList != nil {
		t = ctypes.ArrayOf(at.Elem, len(vd.InitList))
	}
	o := c.newObject(vd.Name, LocalVar, t, vd.TokPos)
	o.Owner = c.curFunc
	o.Decl = vd
	o.AddrTaken = t.IsAggregate()
	c.prog.DeclObj[vd] = o
	if vd.Static {
		// Statics have global lifetime; the analysis treats them as
		// globals owned by no function.
		o.Kind = GlobalVar
		o.Owner = nil
		c.prog.Globals = append(c.prog.Globals, o)
	} else if fn := c.curFunc; fn != nil {
		o.Slot = fn.Slots
		fn.Slots++
		fn.Locals = append(fn.Locals, o)
	}
	c.declare(vd.Name, scopeEntry{obj: o}, vd.TokPos)
	if vd.Init != nil {
		it := c.checkExpr(vd.Init)
		c.checkAssignable(t, it, vd.Init)
	}
	for _, el := range vd.InitList {
		c.checkExpr(el)
	}
}

// ---------------------------------------------------------------------------
// Expressions

// setType records and returns the type of e.
func (c *Checker) setType(e ast.Expr, t *ctypes.Type) *ctypes.Type {
	c.prog.types[e.ExprID()] = t
	return t
}

// decay converts array values to pointers and function designators to
// function pointers, as C does in rvalue contexts.
func (c *Checker) decay(t *ctypes.Type) *ctypes.Type {
	switch t.Kind {
	case ctypes.Array:
		return c.ptrs.To(t.Elem)
	case ctypes.Func:
		return c.ptrs.To(t)
	}
	return t
}

// checkExpr type-checks e and returns its (decayed) type.
func (c *Checker) checkExpr(e ast.Expr) *ctypes.Type {
	t := c.checkExprNoDecay(e)
	d := c.decay(t)
	if d != t {
		c.prog.types[e.ExprID()] = d
	}
	return d
}

// checkExprNoDecay checks e without array/function decay (for the
// operands of & and sizeof).
func (c *Checker) checkExprNoDecay(e ast.Expr) *ctypes.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return c.setType(e, ctypes.IntType)
	case *ast.FloatLit:
		return c.setType(e, ctypes.DoubleType)
	case *ast.CharLit:
		return c.setType(e, ctypes.CharType)
	case *ast.StringLit:
		return c.setType(e, c.ptrs.To(ctypes.CharType))
	case *ast.Ident:
		return c.checkIdent(e)
	case *ast.Unary:
		return c.checkUnary(e)
	case *ast.Postfix:
		t := c.checkExpr(e.X)
		c.requireLvalue(e.X)
		return c.setType(e, t)
	case *ast.Binary:
		return c.checkBinary(e)
	case *ast.Assign:
		return c.checkAssign(e)
	case *ast.Cond:
		c.checkExpr(e.Cond)
		t1 := c.checkExpr(e.Then)
		t2 := c.checkExpr(e.Else)
		// Result type: prefer the pointer branch so that "p ? p : 0"
		// stays a pointer.
		t := t1
		if t1.Kind != ctypes.Pointer && t2.Kind == ctypes.Pointer {
			t = t2
		}
		return c.setType(e, t)
	case *ast.Call:
		return c.checkCall(e)
	case *ast.Index:
		xt := c.checkExpr(e.X)
		c.checkExpr(e.Idx)
		if xt.Kind != ctypes.Pointer {
			c.errorf(e.TokPos, "subscripted value is not an array or pointer (type %s)", xt)
			return c.setType(e, ctypes.IntType)
		}
		return c.setType(e, xt.Elem)
	case *ast.Member:
		return c.checkMember(e)
	case *ast.Cast:
		t := c.resolveType(e.Type)
		xt := c.checkExpr(e.X)
		c.checkCast(t, xt, e)
		return c.setType(e, t)
	case *ast.SizeofExpr:
		if e.X != nil {
			c.checkExprNoDecay(e.X)
		} else {
			c.resolveType(e.Type)
		}
		return c.setType(e, ctypes.LongType)
	case *ast.Comma:
		c.checkExpr(e.X)
		t := c.checkExpr(e.Y)
		return c.setType(e, t)
	}
	c.errorf(e.Pos(), "unsupported expression %T", e)
	return ctypes.IntType
}

func (c *Checker) checkIdent(e *ast.Ident) *ctypes.Type {
	ent, ok := c.lookup(e.Name)
	if !ok {
		c.errorf(e.TokPos, "undefined: %s", e.Name)
		return c.setType(e, ctypes.IntType)
	}
	if ent.isEnum {
		if c.prog.consts == nil {
			c.prog.consts = make([]int64, len(c.prog.objs))
		}
		c.prog.objs[e.ID] = enumConst
		c.prog.consts[e.ID] = ent.enumVal
		return c.setType(e, ctypes.IntType)
	}
	if ent.typedef != nil {
		c.errorf(e.TokPos, "type %s used as value", e.Name)
		return c.setType(e, ctypes.IntType)
	}
	c.prog.objs[e.ID] = ent.obj
	return c.setType(e, ent.obj.Type)
}

func (c *Checker) checkUnary(e *ast.Unary) *ctypes.Type {
	switch e.Op {
	case token.AND:
		t := c.checkExprNoDecay(e.X)
		if t.Kind == ctypes.Func {
			// &f on a function designator yields a function pointer.
			if id, ok := e.X.(*ast.Ident); ok {
				if o := c.prog.ObjOf(id); o != nil && o.Kind == BuiltinObj {
					c.errorf(e.TokPos, "cannot take the address of library function %s", id.Name)
				}
			}
			return c.setType(e, c.ptrs.To(t))
		}
		if !c.requireLvalue(e.X) {
			return c.setType(e, c.ptrs.To(t))
		}
		c.markAddrTaken(e.X)
		return c.setType(e, c.ptrs.To(t))
	case token.MUL:
		t := c.checkExpr(e.X)
		if t.Kind != ctypes.Pointer {
			c.errorf(e.TokPos, "cannot dereference non-pointer type %s", t)
			return c.setType(e, ctypes.IntType)
		}
		if t.Elem.Kind == ctypes.Void {
			c.errorf(e.TokPos, "cannot dereference void*")
			return c.setType(e, ctypes.IntType)
		}
		return c.setType(e, t.Elem)
	case token.SUB, token.NOT:
		t := c.checkExpr(e.X)
		if !t.IsScalar() {
			c.errorf(e.TokPos, "invalid operand type %s", t)
		}
		return c.setType(e, t)
	case token.LNOT:
		c.checkExpr(e.X)
		return c.setType(e, ctypes.IntType)
	case token.INC, token.DEC:
		t := c.checkExpr(e.X)
		c.requireLvalue(e.X)
		return c.setType(e, t)
	}
	c.errorf(e.TokPos, "unsupported unary operator %s", e.Op)
	return ctypes.IntType
}

func (c *Checker) checkBinary(e *ast.Binary) *ctypes.Type {
	xt := c.checkExpr(e.X)
	yt := c.checkExpr(e.Y)
	switch e.Op {
	case token.LAND, token.LOR,
		token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return c.setType(e, ctypes.IntType)
	case token.ADD, token.SUB:
		// Pointer arithmetic: ptr ± int, and ptr - ptr.
		if xt.Kind == ctypes.Pointer && yt.IsInteger() {
			return c.setType(e, xt)
		}
		if e.Op == token.ADD && xt.IsInteger() && yt.Kind == ctypes.Pointer {
			return c.setType(e, yt)
		}
		if e.Op == token.SUB && xt.Kind == ctypes.Pointer && yt.Kind == ctypes.Pointer {
			return c.setType(e, ctypes.LongType)
		}
		fallthrough
	default:
		if xt.Kind == ctypes.Pointer || yt.Kind == ctypes.Pointer {
			c.errorf(e.TokPos, "invalid pointer operands to %s", e.Op)
			return c.setType(e, ctypes.IntType)
		}
		// Usual arithmetic conversions, coarsely.
		t := xt
		if yt.Kind == ctypes.Double || xt.Kind == ctypes.Double {
			t = ctypes.DoubleType
		} else if yt.Kind == ctypes.Float || xt.Kind == ctypes.Float {
			t = ctypes.FloatType
		} else if yt.Kind == ctypes.Long || xt.Kind == ctypes.Long {
			t = ctypes.LongType
		} else {
			t = ctypes.IntType
		}
		return c.setType(e, t)
	}
}

func (c *Checker) checkAssign(e *ast.Assign) *ctypes.Type {
	lt := c.checkExpr(e.LHS)
	rt := c.checkExpr(e.RHS)
	if !c.requireLvalue(e.LHS) {
		return c.setType(e, lt)
	}
	if e.Op == token.ASSIGN {
		c.checkAssignable(lt, rt, e.RHS)
	} else {
		op := e.Op.CompoundOp()
		if lt.Kind == ctypes.Pointer {
			if (op != token.ADD && op != token.SUB) || !rt.IsInteger() {
				c.errorf(e.TokPos, "invalid compound assignment to pointer")
			}
		} else if !lt.IsScalar() {
			c.errorf(e.TokPos, "invalid compound assignment to %s", lt)
		}
	}
	return c.setType(e, lt)
}

func (c *Checker) checkCall(e *ast.Call) *ctypes.Type {
	ft := c.checkExpr(e.Fun)
	// Calling through a function pointer, or a function designator that
	// decayed to one.
	if ft.Kind == ctypes.Pointer && ft.Elem.Kind == ctypes.Func {
		ft = ft.Elem
	}
	if ft.Kind != ctypes.Func {
		c.errorf(e.TokPos, "called object is not a function (type %s)", ft)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return c.setType(e, ctypes.IntType)
	}
	if len(e.Args) < len(ft.Params) || (len(e.Args) > len(ft.Params) && !ft.Variadic) {
		c.errorf(e.TokPos, "wrong number of arguments: have %d, want %d", len(e.Args), len(ft.Params))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(ft.Params) {
			c.checkAssignable(ft.Params[i], at, a)
		}
	}
	// Record the direct call edge for recursion detection.
	if id, ok := e.Fun.(*ast.Ident); ok && c.curFunc != nil {
		if callee := c.prog.FuncMap[id.Name]; callee != nil {
			c.addCallEdge(c.curFunc, callee)
		}
	}
	return c.setType(e, ft.Result())
}

func (c *Checker) checkMember(e *ast.Member) *ctypes.Type {
	xt := c.checkExprNoDecay(e.X)
	st := xt
	if e.Arrow {
		xt = c.decay(xt)
		if xt.Kind != ctypes.Pointer {
			c.errorf(e.TokPos, "-> on non-pointer type %s", xt)
			return c.setType(e, ctypes.IntType)
		}
		st = xt.Elem
	}
	if st.Kind != ctypes.Struct {
		c.errorf(e.TokPos, "member access on non-struct type %s", st)
		return c.setType(e, ctypes.IntType)
	}
	if !st.Complete {
		c.errorf(e.TokPos, "member access on incomplete struct %s", st.Tag)
		return c.setType(e, ctypes.IntType)
	}
	f, ok := st.Field(e.Name)
	if !ok {
		c.errorf(e.TokPos, "%s has no member %s", st, e.Name)
		return c.setType(e, ctypes.IntType)
	}
	return c.setType(e, f.Type)
}

// requireLvalue reports whether e denotes assignable storage and records
// an error otherwise.
func (c *Checker) requireLvalue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if _, isConst := c.prog.ConstOf(e); isConst {
			c.errorf(e.Pos(), "enum constant %s is not an lvalue", e.Name)
			return false
		}
		if o := c.prog.ObjOf(e); o != nil && (o.Kind == FuncObj || o.Kind == BuiltinObj) {
			c.errorf(e.Pos(), "function %s is not an lvalue", e.Name)
			return false
		}
		return true
	case *ast.Index, *ast.Member:
		return true
	case *ast.Unary:
		if e.Op == token.MUL {
			return true
		}
	}
	c.errorf(e.Pos(), "expression is not an lvalue")
	return false
}

// markAddrTaken records that &e exposes the root object of e.
func (c *Checker) markAddrTaken(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		if o := c.prog.ObjOf(e); o != nil {
			o.AddrTaken = true
		}
	case *ast.Member:
		if !e.Arrow {
			c.markAddrTaken(e.X)
		}
	case *ast.Index:
		// The array object is already store-resident; if the base is a
		// pointer, the pointee is heap/other storage and needs no mark.
		if t := c.prog.TypeOf(e.X); t != nil && t.Kind == ctypes.Array {
			c.markAddrTaken(e.X)
		}
	}
}

// checkAssignable checks rt-to-lt assignment compatibility under the
// subset's rules: arithmetic conversions are implicit; pointers convert
// to and from void* and between compatible pointee types; the integer
// constant 0 converts to any pointer; pointer<->integer conversions are
// rejected (the paper's analyses exclude them).
func (c *Checker) checkAssignable(lt, rt *ctypes.Type, rhs ast.Expr) {
	if lt == nil || rt == nil {
		return
	}
	if lt.IsScalar() && rt.IsScalar() {
		return
	}
	if lt.Kind == ctypes.Pointer {
		if rt.Kind == ctypes.Pointer {
			return // any pointer-to-pointer conversion is tolerated
		}
		if isNullConst(rhs, c.prog) {
			return
		}
		c.errorf(rhs.Pos(), "cannot assign %s to pointer type %s (pointer/non-pointer casts are outside the subset)", rt, lt)
		return
	}
	if rt.Kind == ctypes.Pointer {
		c.errorf(rhs.Pos(), "cannot assign pointer type %s to %s", rt, lt)
		return
	}
	if lt.Kind == ctypes.Struct && rt == lt {
		return // struct assignment by value
	}
	if !ctypes.Equal(lt, rt) {
		c.errorf(rhs.Pos(), "cannot assign %s to %s", rt, lt)
	}
}

// checkCast validates an explicit cast under the same pointer/integer
// separation rule.
func (c *Checker) checkCast(to, from *ctypes.Type, e *ast.Cast) {
	if to.IsScalar() && from.IsScalar() {
		return
	}
	if to.Kind == ctypes.Pointer && from.Kind == ctypes.Pointer {
		return
	}
	if to.Kind == ctypes.Pointer && isNullConst(e.X, c.prog) {
		return
	}
	if to.Kind == ctypes.Void {
		return // (void)expr discards the value
	}
	c.errorf(e.TokPos, "cast between %s and %s is outside the subset", from, to)
}

func isNullConst(e ast.Expr, prog *Program) bool {
	v, ok := constFold(e, prog)
	return ok && v == 0
}

// ---------------------------------------------------------------------------
// Direct-call recursion marking

func (c *Checker) addCallEdge(from, to *Function) {
	if c.callGraph == nil {
		c.callGraph = make(map[*Function][]*Function)
	}
	c.callGraph[from] = append(c.callGraph[from], to)
}

// markRecursion finds functions on direct-call cycles (Tarjan-free
// simple DFS with colors; the graphs are tiny).
func (c *Checker) markRecursion() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Function]int)
	var stack []*Function
	var visit func(f *Function)
	visit = func(f *Function) {
		color[f] = gray
		stack = append(stack, f)
		for _, g := range c.callGraph[f] {
			switch color[g] {
			case white:
				visit(g)
			case gray:
				// Everything from g to the top of the stack is on a cycle.
				for i := len(stack) - 1; i >= 0; i-- {
					stack[i].Recursive = true
					if stack[i] == g {
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[f] = black
	}
	for _, f := range c.prog.Funcs {
		if color[f] == white {
			visit(f)
		}
	}
}
