package vdg

import (
	"fmt"
	"sort"

	"aliaslab/internal/ast"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/paths"
	"aliaslab/internal/sema"
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
	Pos token.Pos
	Msg string
}

func (e *BuildError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Build constructs the whole-program VDG for a checked program.
func Build(prog *sema.Program, opts Options) (*Graph, []*BuildError) {
	b := &builder{
		g: &Graph{
			Prog:       prog,
			Universe:   paths.NewUniverse(),
			FuncOf:     make(map[*sema.Function]*FuncGraph),
			FuncByBase: make(map[*paths.Base]*FuncGraph),
			BaseOf:     make(map[*sema.Object]*paths.Base),
			VarValues:  make(map[*sema.Object][]*Output),
		},
		prog:      prog,
		opts:      opts,
		funcBases: make(map[*sema.Function]*paths.Base),
		strBases:  make(map[*ast.StringLit]*paths.Base),
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
	// A recovered per-procedure panic leaves that function half-built;
	// the unit is already doomed (errs is non-empty), so don't run the
	// graph-wide passes over inconsistent nodes.
	if !b.panicked {
		SimplifyGammas(b.g)
		RemoveDeadNodes(b.g)
		ClassifyIndirect(b.g)
	}
	return b.g, b.errs
}

// TestHookBuildFunc, when non-nil, runs before each procedure is
// built. Tests use it to inject per-procedure panics and prove the
// isolation boundary; it must stay nil in production code.
var TestHookBuildFunc func(fnName string)

// buildFuncIsolated builds one procedure behind a recover boundary: a
// panic while translating one function becomes a BuildError on that
// function, and the remaining procedures still build. The graph nodes
// created before the panic are left in place — harmless, because a
// unit with build errors is rejected by the driver before any
// analysis runs.
func (b *builder) buildFuncIsolated(fn *sema.Function) {
	defer func() {
		if r := recover(); r != nil {
			b.panicked = true
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
	heapBase  *paths.Base // when SingleHeapBase
	heapSeq   int

	// panicked records that a per-procedure panic was recovered; the
	// graph may then contain a half-built function.
	panicked bool
}

func (b *builder) errorf(pos token.Pos, format string, args ...any) {
	b.errs = append(b.errs, &BuildError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
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
// the current SSA value of each dataflow variable, and the current store.
type flowState struct {
	env       map[*sema.Object]*Output
	store     *Output
	reachable bool
}

func (s *flowState) clone() flowState {
	env := make(map[*sema.Object]*Output, len(s.env))
	for k, v := range s.env {
		env[k] = v
	}
	return flowState{env: env, store: s.store, reachable: s.reachable}
}

// loopCtx accumulates the states flowing to a loop's break and continue
// targets.
type loopCtx struct {
	breaks    []flowState
	continues []flowState
}

type retSnap struct {
	value *Output // nil for void returns
	store *Output
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

	addrCache map[*sema.Object]*Output // KAddr per object
	funcRefs  map[*sema.Function]*Output

	// markerRefs caches the KAddr outputs of the diagnostics marker
	// locations (<null>, <uninit>) per function.
	markerRefs map[*paths.Path]*Output
}

func (b *builder) buildFunc(fn *sema.Function) {
	fg := b.g.FuncOf[fn]
	fb := &fnBuilder{
		b:          b,
		g:          b.g,
		fg:         fg,
		addrCache:  make(map[*sema.Object]*Output),
		funcRefs:   make(map[*sema.Function]*Output),
		markerRefs: make(map[*paths.Path]*Output),
	}
	fb.cur = flowState{env: make(map[*sema.Object]*Output), reachable: true}

	// Store formal.
	sp := b.g.NewNode(fg, KStoreParam, fn.Object.Pos)
	fg.StoreParam = b.g.AddOutput(sp, nil, true)
	fb.cur.store = fg.StoreParam

	// Value formals. Store-resident parameters are copied into their
	// storage at entry (C's by-value parameter semantics).
	for _, p := range fn.Params {
		pn := b.g.NewNode(fg, KParam, p.Pos)
		pn.Obj = p
		out := b.g.AddOutput(pn, p.Type, false)
		fg.ParamOuts = append(fg.ParamOuts, out)
		if b.storeResident(p) {
			addr := fb.addrOfObj(p, p.Pos)
			fb.update(addr, out, p.Pos)
		} else {
			fb.cur.env[p] = out
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
}

// finishReturns merges all return snapshots into the KReturn sink.
func (fb *fnBuilder) finishReturns() {
	if len(fb.rets) == 0 {
		return // no reachable return: callers never resume
	}
	pos := fb.fg.Fn.Object.Pos
	var store *Output
	if len(fb.rets) == 1 {
		store = fb.rets[0].store
	} else {
		gamma := fb.g.NewNode(fb.fg, KGamma, pos)
		store = fb.g.AddOutput(gamma, nil, true)
		for _, r := range fb.rets {
			fb.g.Connect(gamma, r.store)
		}
	}
	ret := fb.g.NewNode(fb.fg, KReturn, pos)
	fb.g.Connect(ret, store)

	resultType := fb.fg.Fn.Type.Result()
	if resultType.Kind != ctypes.Void {
		var vals []*Output
		for _, r := range fb.rets {
			if r.value != nil {
				vals = append(vals, r.value)
			}
		}
		var value *Output
		switch len(vals) {
		case 0:
			// Non-void function with only valueless returns (checker
			// reports it); produce an opaque value.
			n := fb.g.NewNode(fb.fg, KUnknown, pos)
			value = fb.g.AddOutput(n, resultType, false)
		case 1:
			value = vals[0]
		default:
			gamma := fb.g.NewNode(fb.fg, KGamma, pos)
			value = fb.g.AddOutput(gamma, resultType, false)
			for _, v := range vals {
				fb.g.Connect(gamma, v)
			}
		}
		fb.g.Connect(ret, value)
	}
	fb.fg.Return = ret
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
			v := fb.expr(d.Init)
			if v != nil {
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
func (fb *fnBuilder) initAggregate(addr *Output, typ *ctypes.Type, elems []ast.Expr, idx *int, pos token.Pos) {
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
			if v != nil {
				fb.update(addr, fb.maybeNull(v, e, typ, pos), pos)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// State merging

// orderedEnv returns env's keys in declaration order (position, then
// name). Merge points and loop headers create gamma nodes while
// walking the environment; iterating the map directly would make node
// creation order vary between builds of the same source, and with it
// the path-intern order that fixes the rendering order of every
// output — the sort keeps that output byte-identical from run to run.
func orderedEnv(env map[*sema.Object]*Output) []*sema.Object {
	objs := make([]*sema.Object, 0, len(env))
	for obj := range env {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool {
		a, b := objs[i].Pos, objs[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return objs[i].Name < objs[j].Name
	})
	return objs
}

// merge combines alternative flow states at a join point, creating
// gamma nodes where values differ.
func (fb *fnBuilder) merge(pos token.Pos, states ...flowState) flowState {
	var live []flowState
	for _, s := range states {
		if s.reachable {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return flowState{env: make(map[*sema.Object]*Output), reachable: false}
	case 1:
		return live[0].clone()
	}

	out := flowState{env: make(map[*sema.Object]*Output), reachable: true}

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
		gamma := fb.g.NewNode(fb.fg, KGamma, pos)
		out.store = fb.g.AddOutput(gamma, nil, true)
		for _, s := range live {
			fb.g.Connect(gamma, s.store)
		}
	}

	// Environment: keep variables present in every live state.
	for _, obj := range orderedEnv(live[0].env) {
		v0 := live[0].env[obj]
		inAll := true
		allSame := true
		for _, s := range live[1:] {
			v, ok := s.env[obj]
			if !ok {
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
			out.env[obj] = v0
			continue
		}
		gamma := fb.g.NewNode(fb.fg, KGamma, pos)
		gout := fb.g.AddOutput(gamma, obj.Type, false)
		for _, s := range live {
			fb.g.Connect(gamma, s.env[obj])
		}
		out.env[obj] = gout
	}
	return out
}

// loopHeader replaces the current state with gamma placeholders (one per
// store and env variable) whose back edges are filled in by loopClose.
type loopHeader struct {
	storeGamma *Node
	envGammas  map[*sema.Object]*Node
}

func (fb *fnBuilder) openLoop(pos token.Pos) *loopHeader {
	h := &loopHeader{envGammas: make(map[*sema.Object]*Node)}
	gamma := fb.g.NewNode(fb.fg, KGamma, pos)
	out := fb.g.AddOutput(gamma, nil, true)
	fb.g.Connect(gamma, fb.cur.store)
	h.storeGamma = gamma
	fb.cur.store = out
	for _, obj := range orderedEnv(fb.cur.env) {
		gn := fb.g.NewNode(fb.fg, KGamma, pos)
		gout := fb.g.AddOutput(gn, obj.Type, false)
		fb.g.Connect(gn, fb.cur.env[obj])
		h.envGammas[obj] = gn
		fb.cur.env[obj] = gout
	}
	return h
}

// closeLoop wires the back-edge state into the header gammas.
func (fb *fnBuilder) closeLoop(h *loopHeader, back flowState) {
	if !back.reachable {
		return // loop body never reaches the back edge
	}
	fb.g.Connect(h.storeGamma, back.store)
	for obj, gn := range h.envGammas {
		if v, ok := back.env[obj]; ok {
			fb.g.Connect(gn, v)
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
		var v *Output
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
			lc.breaks = append(lc.breaks, fb.cur.clone())
		}
		fb.cur.reachable = false
	case *ast.Continue:
		// Continue targets the innermost *loop*; switch contexts are
		// marked and skipped.
		found := false
		for i := len(fb.loops) - 1; i >= 0; i-- {
			if !fb.loopIsSwitch[i] {
				fb.loops[i].continues = append(fb.loops[i].continues, fb.cur.clone())
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
			if v := fb.expr(d.Init); v != nil {
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
		if v := fb.expr(d.Init); v != nil {
			nv := fb.maybeNull(v, d.Init, obj.Type, d.TokPos)
			fb.cur.env[obj] = nv
			fb.recordVar(obj, nv)
			return
		}
	}
	// Uninitialized (or void-initialized) dataflow variable: an opaque
	// undefined value (the <uninit> marker under diagnostics).
	fb.cur.env[obj] = fb.uninitValue(obj, d.TokPos)
}

func (fb *fnBuilder) ifStmt(s *ast.If) {
	fb.expr(s.Cond)
	pre := fb.cur.clone()

	fb.refineGuard(s.Cond, true, s.TokPos)
	fb.stmt(s.Then)
	thenState := fb.cur

	fb.cur = pre.clone()
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
	condState := fb.cur.clone()

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
	condState := fb.cur.clone()

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
	entry := fb.cur.clone()

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
