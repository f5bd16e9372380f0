package vdg

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"aliaslab/internal/ast"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/paths"
	"aliaslab/internal/sema"
	"aliaslab/internal/slab"
	"aliaslab/internal/token"
)

// Options configures VDG construction.
type Options struct {
	// NoSSA keeps every scalar local in the store instead of lifting
	// non-addressed scalars to pure dataflow values. Ablation for the
	// paper's §5.1.1 "program representation" discussion.
	NoSSA bool

	// SingleHeapBase names all heap storage with one base location
	// instead of one per allocation site. Ablation for §5.1.1 "handling
	// of heap allocation sites".
	SingleHeapBase bool

	// RecursiveLocalsSingle treats address-taken locals of recursive
	// procedures as single-instance (strongly updateable) base locations
	// rather than summary locations. This mirrors the top-instance
	// behaviour of Cooper's scheme (paper footnote 4); it is safe only
	// when such addresses do not escape down recursive calls, which the
	// corpus verifies. Default false = the paper's second (weak) scheme.
	RecursiveLocalsSingle bool

	// Diagnostics instruments the graph for the pointer-bug checkers
	// (internal/checkers): null pointer constants and zero-initialized
	// pointer globals point to the <null> marker location, uninitialized
	// pointer locals point to <uninit>, free/fclose become KFree kill
	// events, allocations are kept alive even when unused, and branches
	// guarded by pointer tests filter marker referents. The resulting
	// pair sets over-approximate the plain analysis; never enable this
	// for the paper's precision experiments.
	Diagnostics bool
}

// BuildError is a construction-time error (unsupported construct).
type BuildError struct {
	File string
	Pos  token.Pos
	Msg  string
}

func (e *BuildError) Error() string { return e.Pos.In(e.File) + ": " + e.Msg }

// Build constructs the whole-program VDG for a checked program.
func Build(prog *sema.Program, opts Options) (*Graph, []*BuildError) {
	b := &builder{
		g: &Graph{
			Prog:       prog,
			Universe:   paths.NewUniverse(),
			FuncOf:     make(map[*sema.Function]*FuncGraph),
			FuncByBase: make(map[*paths.Base]*FuncGraph),
			BaseOf:     make(map[*sema.Object]*paths.Base),
			// About one input per checked expression (0.67 to 1.15 on
			// the corpus and the first 200 generated units); emit
			// appends past that.
			inputs: make([]*Input, 0, prog.Exprs()),
		},
		prog:      prog,
		opts:      opts,
		funcBases: make(map[*sema.Function]*paths.Base),
		strBases:  make(map[*ast.StringLit]*paths.Base),
		refs:      make([]value, prog.ObjectIDs()),
		vals:      make([][]*Output, prog.ObjectIDs()),
		envs:      slab.Slab[value]{Size: 1024},
		t:         newTable(prog.Exprs()),
		ptrs:      make(ctypes.PointerCache),
	}
	// Create function graphs and bases up front so calls can refer to
	// them in any order.
	for _, fn := range prog.Funcs {
		fg := &FuncGraph{Fn: fn, Graph: b.g}
		b.g.Funcs = append(b.g.Funcs, fg)
		b.g.FuncOf[fn] = fg
		base := b.g.Universe.NewBase(paths.FuncBase, fn.Name, false, false)
		b.funcBases[fn] = base
		b.g.FuncByBase[base] = fg
	}
	for _, fn := range prog.Funcs {
		if fn.Body != nil {
			b.buildFuncIsolated(fn)
		}
	}
	if mainFn := prog.FuncMap["main"]; mainFn != nil {
		b.g.Entry = b.g.FuncOf[mainFn]
	}
	b.g.VarValues = make(map[*sema.Object][]*Output, len(b.valObjs))
	for _, obj := range b.valObjs {
		b.g.VarValues[obj] = b.vals[obj.ID]
	}
	return b.g, b.errs
}

// TestHookBuildFunc, when non-nil, runs before each procedure is
// built. Tests use it to inject per-procedure panics and prove the
// isolation boundary; it must stay nil in production code.
var TestHookBuildFunc func(fnName string)

// buildFuncIsolated builds one procedure behind a recover boundary: a
// panic while translating one function becomes a BuildError on that
// function, and the remaining procedures still build. The panicking
// function's graph is left empty or partial — harmless, because a unit
// with build errors is rejected by the driver before any analysis
// runs.
func (b *builder) buildFuncIsolated(fn *sema.Function) {
	defer func() {
		if r := recover(); r != nil {
			b.errorf(fn.Object.Pos, "internal error building %s: %v", fn.Name, r)
		}
	}()
	if TestHookBuildFunc != nil {
		TestHookBuildFunc(fn.Name)
	}
	b.buildFunc(fn)
}

type builder struct {
	g    *Graph
	prog *sema.Program
	opts Options
	errs []*BuildError

	funcBases map[*sema.Function]*paths.Base
	strBases  map[*ast.StringLit]*paths.Base
	ptrs      ctypes.PointerCache
	heapBase  *paths.Base // when SingleHeapBase
	heapSeq   int

	// refs caches, by sema.Object.ID, the KAddr value of each variable
	// and function the function being built refers to; buildFunc clears
	// it.
	refs []value

	// vals collects Graph.VarValues by sema.Object.ID, and valObjs the
	// objects with values, until Build fills the map.
	vals    [][]*Output
	valObjs []*sema.Object

	// envs is the chunked store of flow-state environments, and
	// valLists that of the VarValues lists.
	envs     slab.Slab[value]
	valLists slab.Slab[*Output]

	// t is the value table of the function being built.
	t table
}

func (b *builder) errorf(pos token.Pos, format string, args ...any) {
	b.errs = append(b.errs, &BuildError{File: b.prog.Name, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// storeResident reports whether obj lives in the store (has a base
// location) rather than being a pure dataflow value.
func (b *builder) storeResident(obj *sema.Object) bool {
	if obj.Kind == sema.GlobalVar {
		return true
	}
	if b.opts.NoSSA {
		return true
	}
	return obj.AddrTaken || obj.Type.IsAggregate()
}

// baseOf returns (creating on demand) the base location of a
// store-resident variable.
func (b *builder) baseOf(obj *sema.Object) *paths.Base {
	if base, ok := b.g.BaseOf[obj]; ok {
		return base
	}
	name := obj.Name
	local := false
	summary := false
	if obj.Owner != nil {
		name = obj.Owner.Name + "." + obj.Name
		local = true
		if obj.Owner.Recursive && !b.opts.RecursiveLocalsSingle {
			// A local of a recursive procedure may have many live
			// instances; the weak scheme gives it one summary location
			// (paper footnote 4, second scheme).
			summary = true
		}
	}
	base := b.g.Universe.NewBase(paths.VarBase, name, local, summary)
	b.g.BaseOf[obj] = base
	return base
}

// heapBaseFor returns the base location for an allocation site.
func (b *builder) heapBaseFor(callName string, pos token.Pos) *paths.Base {
	if b.opts.SingleHeapBase {
		if b.heapBase == nil {
			b.heapBase = b.g.Universe.NewBase(paths.HeapBase, "heap", false, true)
		}
		return b.heapBase
	}
	b.heapSeq++
	name := fmt.Sprintf("%s@%d:%d#%d", callName, pos.Line, pos.Col, b.heapSeq)
	return b.g.Universe.NewBase(paths.HeapBase, name, false, true)
}

// ---------------------------------------------------------------------------
// Flow state

// flowState is the builder's abstract machine state at a program point:
// the current SSA value of each dataflow variable, indexed by its
// sema.Object.Slot (0: no value yet), and the current store.
type flowState struct {
	env       []value
	store     value
	reachable bool
}

// clone copies s; the copy's environment is carved from envs.
func (s *flowState) clone(envs *slab.Slab[value]) flowState {
	env := envs.Carve(len(s.env))[:len(s.env)]
	copy(env, s.env)
	return flowState{env: env, store: s.store, reachable: s.reachable}
}

// loopCtx accumulates the states flowing to a loop's break and continue
// targets.
type loopCtx struct {
	breaks    []flowState
	continues []flowState
}

type retSnap struct {
	value value // 0 for void returns
	store value
}

// fnBuilder builds one function body.
type fnBuilder struct {
	b   *builder
	g   *Graph
	fg  *FuncGraph
	cur flowState

	loops        []*loopCtx
	loopIsSwitch []bool // parallels loops; switches take breaks only
	rets         []retSnap

	// vars maps each slot of the function to its object, and order
	// lists the slots of the dataflow (not store-resident) variables in
	// declaration order: position, then name. Merge points and loop
	// headers create gamma nodes walking order, so node creation, and
	// with it the path-intern order that fixes the rendering order of
	// every output, is the same from build to build.
	vars  []*sema.Object
	order []int

	// nullRef and uninitRef cache the KAddr values of the diagnostics
	// marker locations (<null>, <uninit>).
	nullRef, uninitRef value

	// storeParam is the store formal and ret the return sink (0 when no
	// return path is reachable).
	storeParam value
	ret        int32
}

func (b *builder) buildFunc(fn *sema.Function) {
	fg := b.g.FuncOf[fn]
	fb := &fnBuilder{b: b, g: b.g, fg: fg}
	b.t.reset()
	clear(b.refs)
	fb.vars = make([]*sema.Object, fn.Slots)
	for _, o := range fn.Params {
		fb.vars[o.Slot] = o
	}
	for _, o := range fn.Locals {
		fb.vars[o.Slot] = o
	}
	fb.order = make([]int, 0, fn.Slots)
	for slot, o := range fb.vars {
		if o != nil && !b.storeResident(o) {
			fb.order = append(fb.order, slot)
		}
	}
	slices.SortFunc(fb.order, func(i, j int) int {
		x, y := fb.vars[i], fb.vars[j]
		if c := cmp.Compare(x.Pos.Line, y.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Pos.Col, y.Pos.Col); c != 0 {
			return c
		}
		return strings.Compare(x.Name, y.Name)
	})
	fb.cur = fb.emptyState(true)

	// Store formal.
	sp := fb.node(op{kind: KStoreParam, pos: fn.Object.Pos}, 0)
	fb.storeParam = fb.output(sp, nil, true)
	fb.cur.store = fb.storeParam

	// Value formals. Store-resident parameters are copied into their
	// storage at entry (C's by-value parameter semantics).
	for _, p := range fn.Params {
		pn := fb.node(op{kind: KParam, pos: p.Pos, obj: p}, 0)
		out := fb.output(pn, p.Type, false)
		b.t.params = append(b.t.params, out)
		if b.storeResident(p) {
			addr := fb.addrOfObj(p, p.Pos)
			fb.update(addr, out, p.Pos)
		} else {
			fb.cur.env[p.Slot] = out
		}
		fb.recordVar(p, out)
	}

	// Global initializers run before main's body. Under diagnostics,
	// zero initialization of pointer globals is modeled first (C
	// guarantees it; the explicit initializers below would strongly
	// update the markers away anyway, but skipping initialized globals
	// keeps the graph small).
	if fn.Name == "main" {
		fb.seedGlobalZeroInits()
		fb.emitGlobalInits()
	}

	fb.stmt(fn.Body)

	// Falling off the end is an implicit return (no value).
	if fb.cur.reachable {
		fb.rets = append(fb.rets, retSnap{store: fb.cur.store})
	}
	fb.finishReturns()
	fb.emit()
}

// finishReturns merges all return snapshots into the KReturn sink.
func (fb *fnBuilder) finishReturns() {
	if len(fb.rets) == 0 {
		return // no reachable return: callers never resume
	}
	pos := fb.fg.Fn.Object.Pos
	var store value
	if len(fb.rets) == 1 {
		store = fb.rets[0].store
	} else {
		gamma := fb.node(op{kind: KGamma, pos: pos}, len(fb.rets))
		store = fb.output(gamma, nil, true)
		for _, r := range fb.rets {
			fb.connect(gamma, r.store)
		}
	}
	resultType := fb.fg.Fn.Type.Result()
	arity := 1
	if resultType.Kind != ctypes.Void {
		arity = 2
	}
	ret := fb.node(op{kind: KReturn, pos: pos}, arity)
	fb.connect(ret, store)

	if resultType.Kind != ctypes.Void {
		var vals []value
		for _, r := range fb.rets {
			if r.value != 0 {
				vals = append(vals, r.value)
			}
		}
		var v value
		switch len(vals) {
		case 0:
			// Non-void function with only valueless returns (checker
			// reports it); produce an opaque value.
			v = fb.unknown(resultType, pos)
		case 1:
			v = vals[0]
		default:
			gamma := fb.node(op{kind: KGamma, pos: pos}, len(vals))
			v = fb.output(gamma, resultType, false)
			for _, x := range vals {
				fb.connect(gamma, x)
			}
		}
		fb.connect(ret, v)
	}
	fb.ret = ret
}

// emitGlobalInits writes initialized globals into the store at program
// start (only initializers that exist; zero initialization adds no
// points-to pairs).
func (fb *fnBuilder) emitGlobalInits() {
	for _, obj := range fb.b.prog.Globals {
		d := obj.Decl
		if d == nil || (d.Init == nil && d.InitList == nil) {
			continue
		}
		addr := fb.addrOfObj(obj, obj.Pos)
		if d.Init != nil {
			if v := fb.expr(d.Init); v != 0 {
				fb.update(addr, v, d.Init.Pos())
			}
			continue
		}
		idx := 0
		fb.initAggregate(addr, obj.Type, d.InitList, &idx, d.TokPos)
	}
}

// initAggregate assigns a flattened brace-initializer into storage
// addressed by addr of the given type, consuming elements from elems.
func (fb *fnBuilder) initAggregate(addr value, typ *ctypes.Type, elems []ast.Expr, idx *int, pos token.Pos) {
	switch typ.Kind {
	case ctypes.Array:
		// All elements write through the collapsed [*] operator.
		elemAddr := fb.indexAddr(addr, typ.Elem, pos)
		n := typ.Len
		if n < 0 {
			n = len(elems) - *idx
		}
		for i := 0; i < n && *idx < len(elems); i++ {
			fb.initAggregate(elemAddr, typ.Elem, elems, idx, pos)
		}
	case ctypes.Struct:
		if typ.Union {
			// Initializing a union initializes its first member.
			if len(typ.Fields) > 0 && *idx < len(elems) {
				fa := fb.fieldAddr(addr, typ, typ.Fields[0].Name, pos)
				fb.initAggregate(fa, typ.Fields[0].Type, elems, idx, pos)
			}
			return
		}
		for _, f := range typ.Fields {
			if *idx >= len(elems) {
				return
			}
			fa := fb.fieldAddr(addr, typ, f.Name, pos)
			fb.initAggregate(fa, f.Type, elems, idx, pos)
		}
	default:
		if *idx < len(elems) {
			e := elems[*idx]
			v := fb.expr(e)
			*idx++
			if v != 0 {
				fb.update(addr, fb.maybeNull(v, e, typ, pos), pos)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// State merging

// emptyState returns a state with no variable values and no store.
func (fb *fnBuilder) emptyState(reachable bool) flowState {
	return flowState{env: fb.b.envs.Carve(len(fb.vars))[:len(fb.vars)], reachable: reachable}
}

// merge combines alternative flow states at a join point, creating
// gamma nodes where values differ.
func (fb *fnBuilder) merge(pos token.Pos, states ...flowState) flowState {
	var buf [4]flowState // most joins have two or three arms
	live := buf[:0]
	for _, s := range states {
		if s.reachable {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return fb.emptyState(false)
	case 1:
		return live[0].clone(&fb.b.envs)
	}

	out := fb.emptyState(true)

	// Store.
	same := true
	for _, s := range live[1:] {
		if s.store != live[0].store {
			same = false
			break
		}
	}
	if same {
		out.store = live[0].store
	} else {
		gamma := fb.node(op{kind: KGamma, pos: pos}, len(live))
		out.store = fb.output(gamma, nil, true)
		for _, s := range live {
			fb.connect(gamma, s.store)
		}
	}

	// Environment: keep variables present in every live state.
	for _, slot := range fb.order {
		v0 := live[0].env[slot]
		if v0 == 0 {
			continue
		}
		inAll := true
		allSame := true
		for _, s := range live[1:] {
			v := s.env[slot]
			if v == 0 {
				inAll = false
				break
			}
			if v != v0 {
				allSame = false
			}
		}
		if !inAll {
			continue
		}
		if allSame {
			out.env[slot] = v0
			continue
		}
		gamma := fb.node(op{kind: KGamma, pos: pos}, len(live))
		gout := fb.output(gamma, fb.vars[slot].Type, false)
		for _, s := range live {
			fb.connect(gamma, s.env[slot])
		}
		out.env[slot] = gout
	}
	return out
}

// loopHeader replaces the current state with gamma placeholders (one per
// store and env variable, the latter by slot) whose back edges are
// filled in by closeLoop.
type loopHeader struct {
	storeGamma int32
	envGammas  []int32 // by slot; 0 where the variable had no value
}

func (fb *fnBuilder) openLoop(pos token.Pos) *loopHeader {
	h := &loopHeader{envGammas: make([]int32, len(fb.vars))}
	gamma := fb.node(op{kind: KGamma, pos: pos}, 2)
	out := fb.output(gamma, nil, true)
	fb.connect(gamma, fb.cur.store)
	h.storeGamma = gamma
	fb.cur.store = out
	for _, slot := range fb.order {
		v := fb.cur.env[slot]
		if v == 0 {
			continue
		}
		gn := fb.node(op{kind: KGamma, pos: pos}, 2)
		gout := fb.output(gn, fb.vars[slot].Type, false)
		fb.connect(gn, v)
		h.envGammas[slot] = gn
		fb.cur.env[slot] = gout
	}
	return h
}

// closeLoop wires the back-edge state into the header gammas, in the
// order openLoop created them.
func (fb *fnBuilder) closeLoop(h *loopHeader, back flowState) {
	if !back.reachable {
		return // loop body never reaches the back edge
	}
	fb.connect(h.storeGamma, back.store)
	for _, slot := range fb.order {
		if gn, v := h.envGammas[slot], back.env[slot]; gn != 0 && v != 0 {
			fb.connect(gn, v)
		}
	}
}

// ---------------------------------------------------------------------------
// Statements

func (fb *fnBuilder) stmt(s ast.Stmt) {
	if !fb.cur.reachable {
		return // skip unreachable code entirely (the paper's dead code removal)
	}
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			fb.stmt(st)
		}
	case *ast.Empty:
	case *ast.ExprStmt:
		fb.expr(s.X)
	case *ast.DeclStmt:
		fb.declStmt(s)
	case *ast.If:
		fb.ifStmt(s)
	case *ast.While:
		fb.whileStmt(s)
	case *ast.For:
		fb.forStmt(s)
	case *ast.Switch:
		fb.switchStmt(s)
	case *ast.Return:
		var v value
		if s.Value != nil {
			v = fb.expr(s.Value)
			v = fb.maybeNull(v, s.Value, fb.fg.Fn.Type.Result(), s.TokPos)
		}
		fb.rets = append(fb.rets, retSnap{value: v, store: fb.cur.store})
		fb.cur.reachable = false
	case *ast.Break:
		if len(fb.loops) == 0 {
			fb.b.errorf(s.TokPos, "break outside loop or switch")
		} else {
			lc := fb.loops[len(fb.loops)-1]
			lc.breaks = append(lc.breaks, fb.cur.clone(&fb.b.envs))
		}
		fb.cur.reachable = false
	case *ast.Continue:
		// Continue targets the innermost *loop*; switch contexts are
		// marked and skipped.
		found := false
		for i := len(fb.loops) - 1; i >= 0; i-- {
			if !fb.loopIsSwitch[i] {
				fb.loops[i].continues = append(fb.loops[i].continues, fb.cur.clone(&fb.b.envs))
				found = true
				break
			}
		}
		if !found {
			fb.b.errorf(s.TokPos, "continue outside loop")
		}
		fb.cur.reachable = false
	default:
		fb.b.errorf(s.Pos(), "unsupported statement %T", s)
	}
}

func (fb *fnBuilder) declStmt(s *ast.DeclStmt) {
	obj := fb.b.prog.DeclObj[s.Decl]
	if obj == nil {
		return
	}
	d := s.Decl
	if obj.Kind == sema.GlobalVar {
		// A static local: storage initialized at program start (emitted
		// with the global initializers), not on each entry.
		return
	}
	if fb.b.storeResident(obj) {
		addr := fb.addrOfObj(obj, d.TokPos)
		if d.Init != nil {
			if v := fb.expr(d.Init); v != 0 {
				nv := fb.maybeNull(v, d.Init, obj.Type, d.TokPos)
				fb.update(addr, nv, d.TokPos)
				fb.recordVar(obj, nv)
			}
		} else if d.InitList != nil {
			idx := 0
			fb.initAggregate(addr, obj.Type, d.InitList, &idx, d.TokPos)
		} else {
			fb.seedLocalUninit(obj, addr, d.TokPos)
		}
		return
	}
	if d.Init != nil {
		if v := fb.expr(d.Init); v != 0 {
			nv := fb.maybeNull(v, d.Init, obj.Type, d.TokPos)
			fb.cur.env[obj.Slot] = nv
			fb.recordVar(obj, nv)
			return
		}
	}
	// Uninitialized (or void-initialized) dataflow variable: an opaque
	// undefined value (the <uninit> marker under diagnostics).
	fb.cur.env[obj.Slot] = fb.uninitValue(obj, d.TokPos)
}

func (fb *fnBuilder) ifStmt(s *ast.If) {
	fb.expr(s.Cond)
	pre := fb.cur.clone(&fb.b.envs)

	fb.refineGuard(s.Cond, true, s.TokPos)
	fb.stmt(s.Then)
	thenState := fb.cur

	fb.cur = pre // pre is not read again, so the else branch may own it
	fb.refineGuard(s.Cond, false, s.TokPos)
	if s.Else != nil {
		fb.stmt(s.Else)
	}
	elseState := fb.cur

	fb.cur = fb.merge(s.TokPos, thenState, elseState)
}

func (fb *fnBuilder) whileStmt(s *ast.While) {
	// do-while is modeled with the same (sound) may-skip shape.
	h := fb.openLoop(s.TokPos)
	fb.expr(s.Cond)
	condState := fb.cur.clone(&fb.b.envs)

	lc := &loopCtx{}
	fb.pushLoop(lc, false)
	fb.refineGuard(s.Cond, true, s.TokPos) // the body runs only when the condition held
	fb.stmt(s.Body)
	bodyEnd := fb.cur
	fb.popLoop()

	back := fb.merge(s.TokPos, append(lc.continues, bodyEnd)...)
	fb.closeLoop(h, back)

	fb.cur = fb.merge(s.TokPos, append(lc.breaks, condState)...)
}

func (fb *fnBuilder) forStmt(s *ast.For) {
	if s.Init != nil {
		fb.stmt(s.Init)
	}
	h := fb.openLoop(s.TokPos)
	if s.Cond != nil {
		fb.expr(s.Cond)
	}
	condState := fb.cur.clone(&fb.b.envs)

	lc := &loopCtx{}
	fb.pushLoop(lc, false)
	fb.refineGuard(s.Cond, true, s.TokPos) // the body runs only when the condition held
	fb.stmt(s.Body)
	bodyEnd := fb.cur
	fb.popLoop()

	// continue jumps to the post expression.
	fb.cur = fb.merge(s.TokPos, append(lc.continues, bodyEnd)...)
	if s.Post != nil && fb.cur.reachable {
		fb.expr(s.Post)
	}
	fb.closeLoop(h, fb.cur)

	exits := append([]flowState{}, lc.breaks...)
	if s.Cond != nil {
		exits = append(exits, condState)
	}
	// "for(;;)" with no condition only exits through breaks.
	fb.cur = fb.merge(s.TokPos, exits...)
}

func (fb *fnBuilder) switchStmt(s *ast.Switch) {
	fb.expr(s.Tag)
	entry := fb.cur.clone(&fb.b.envs)

	lc := &loopCtx{}
	fb.pushLoop(lc, true)

	hasDefault := false
	var fall flowState
	fall.reachable = false
	for _, cs := range s.Cases {
		if len(cs.Values) == 0 {
			hasDefault = true
		}
		for _, v := range cs.Values {
			// Case labels are constants; evaluate for completeness.
			_ = v
		}
		fb.cur = fb.merge(cs.TokPos, entry, fall)
		for _, st := range cs.Body {
			fb.stmt(st)
		}
		fall = fb.cur
	}
	fb.popLoop()

	exits := append([]flowState{}, lc.breaks...)
	exits = append(exits, fall)
	if !hasDefault {
		exits = append(exits, entry)
	}
	fb.cur = fb.merge(s.TokPos, exits...)
}

// loop stack helpers; loopIsSwitch parallels loops and marks switch
// contexts (targets for break but not continue).
func (fb *fnBuilder) pushLoop(lc *loopCtx, isSwitch bool) {
	fb.loops = append(fb.loops, lc)
	fb.loopIsSwitch = append(fb.loopIsSwitch, isSwitch)
}

func (fb *fnBuilder) popLoop() {
	fb.loops = fb.loops[:len(fb.loops)-1]
	fb.loopIsSwitch = fb.loopIsSwitch[:len(fb.loopIsSwitch)-1]
}
