package core

import (
	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// flowIn implements the per-node transfer functions of [Ruf95,
// Figure 1]: one (input, pair) arrival against one node. The pair
// arrives packed; it is decoded only where a path's structure matters,
// so pass-through nodes move keys without touching the universe.
func (a *insensitive) flowIn(in *vdg.Input, k Key) {
	n := in.Node
	switch n.Kind {
	case vdg.KLookup:
		a.lookupFlow(n, in, k)
	case vdg.KUpdate:
		a.updateFlow(n, in, k)
	case vdg.KCall:
		a.callFlow(n, in, k)
	case vdg.KReturn:
		a.returnFlow(n, in, k)
	case vdg.KGamma:
		a.flowOut(n.Outputs[0], k)
	case vdg.KPrimop:
		if n.Transparent {
			if n.Op == vdg.OpChecked && IsMarkerRef(a.ref(k)) {
				// A null guard proved the value non-null on this branch:
				// the marker referents do not pass the check.
				return
			}
			a.flowOut(n.Outputs[0], k)
		}
	case vdg.KAlloc:
		// realloc: the old block's pairs flow through.
		a.flowOut(n.Outputs[0], k)
	case vdg.KFree:
		// Deallocation is identity on the store (the kill is interpreted
		// by the checkers, not the points-to domain — removing pairs
		// would be unsound under may-aliasing).
		if in.Index == 1 {
			a.flowOut(n.Outputs[0], k)
		}
	case vdg.KFieldAddr:
		if k.EmptyPath() {
			ref := a.extendField(n, a.ref(k))
			a.flowOut(n.Outputs[0], PackKey(paths.EmptyID, ref.ID()))
		}
	case vdg.KIndexAddr:
		if k.EmptyPath() {
			a.flowOut(n.Outputs[0], PackKey(paths.EmptyID, a.u.Index(a.ref(k)).ID()))
		}
	case vdg.KExtract:
		want := paths.Op{Field: n.Field, Union: n.Transparent}
		path := a.path(k)
		if op, ok := path.FirstOp(); ok && op.Overlaps(want) {
			tail := a.u.TailAfterFirst(path)
			a.flowOut(n.Outputs[0], PackKey(tail.ID(), k.RefID()))
		}
	}
}

// path and ref decode one half of a packed pair.
func (a *insensitive) path(k Key) *paths.Path { return a.u.ByID(k.PathID()) }
func (a *insensitive) ref(k Key) *paths.Path  { return a.u.ByID(k.RefID()) }

// extendField applies a member operator; union members use the
// overlapping operator (the builder marks union accesses on the node).
func (a *insensitive) extendField(n *vdg.Node, p *paths.Path) *paths.Path {
	if n.Transparent { // union member
		return a.u.UnionField(p, n.Field)
	}
	return a.u.Field(p, n.Field)
}

// lookupFlow: a new location dereferences every store pair it may
// observe; a new store pair is observed by every location.
func (a *insensitive) lookupFlow(n *vdg.Node, in *vdg.Input, k Key) {
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location input
		if !k.EmptyPath() {
			return
		}
		rl := a.ref(k)
		for _, ks := range a.keysAt(n.StoreIn()) {
			if ps := a.path(ks); paths.Dom(rl, ps) {
				a.flowOut(out, PackKey(a.u.Subtract(ps, rl).ID(), ks.RefID()))
			}
		}
	case 1: // store input
		ps := a.path(k)
		for _, kl := range a.keysAt(n.Loc()) {
			if !kl.EmptyPath() {
				continue
			}
			if rl := a.ref(kl); paths.Dom(rl, ps) {
				a.flowOut(out, PackKey(a.u.Subtract(ps, rl).ID(), k.RefID()))
			}
		}
	}
}

// updateFlow implements strong updates: a store pair passes through
// only via location referents that do not definitely overwrite it, and
// store pairs are blocked entirely until the first location arrives
// (the dual-worklist behaviour of [CWZ90]).
func (a *insensitive) updateFlow(n *vdg.Node, in *vdg.Input, k Key) {
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location input
		if !k.EmptyPath() {
			return
		}
		rl := a.ref(k)
		for _, kv := range a.keysAt(n.Value()) {
			a.flowOut(out, PackKey(a.u.Append(rl, a.path(kv)).ID(), kv.RefID()))
		}
		for _, ks := range a.keysAt(n.StoreIn()) {
			if !paths.StrongDom(rl, a.path(ks)) {
				a.flowOut(out, ks)
			}
		}
	case 1: // store input
		var ps *paths.Path // decoded on the first location referent
		for _, kl := range a.keysAt(n.Loc()) {
			if !kl.EmptyPath() {
				continue
			}
			if ps == nil {
				ps = a.path(k)
			}
			if !paths.StrongDom(a.ref(kl), ps) {
				a.flowOut(out, k)
			}
		}
	case 2: // value input
		pv := a.path(k)
		for _, kl := range a.keysAt(n.Loc()) {
			if !kl.EmptyPath() {
				continue
			}
			a.flowOut(out, PackKey(a.u.Append(a.ref(kl), pv).ID(), k.RefID()))
		}
	}
}

// callFlow: actuals propagate to the formals of every callee; a new
// function value registers a call edge.
func (a *insensitive) callFlow(n *vdg.Node, in *vdg.Input, k Key) {
	switch in.Index {
	case 0: // function input
		if !k.EmptyPath() {
			return
		}
		ref := a.ref(k)
		base := ref.Base()
		if base == nil || ref.Depth() != 0 {
			return
		}
		callee := n.Fn.Graph.FuncByBase[base]
		if callee == nil {
			return
		}
		a.linkEdge(n, callee)
	case 1: // store input
		for _, callee := range a.res.Callees[n] {
			a.flowOut(callee.StoreParam, k)
		}
	default: // actuals
		argIdx := in.Index - 2
		for _, callee := range a.res.Callees[n] {
			if argIdx < len(callee.ParamOuts) {
				a.flowOut(callee.ParamOuts[argIdx], k)
			}
		}
	}
}

// linkEdge records a call → callee edge and, when it is new,
// repropagates both of its directions: existing actuals and store flow
// forward to the callee's formals, and the callee's existing returns
// flow back to this call site. The edge is recorded first, so the
// emissions below see it and do not re-trigger it.
func (a *insensitive) linkEdge(n *vdg.Node, callee *vdg.FuncGraph) {
	for _, c := range a.res.Callees[n] {
		if c == callee {
			return
		}
	}
	a.res.Callees[n] = append(a.res.Callees[n], callee)
	a.res.Callers[callee] = append(a.res.Callers[callee], n)

	for _, k := range a.keysAt(n.StoreIn()) {
		a.flowOut(callee.StoreParam, k)
	}
	for i, argIn := range vdg.CallArgs(n) {
		if i >= len(callee.ParamOuts) {
			break
		}
		for _, k := range a.keysAt(argIn.Src) {
			a.flowOut(callee.ParamOuts[i], k)
		}
	}

	if rs := callee.ReturnStore(); rs != nil {
		for _, k := range a.keysAt(rs) {
			a.flowOut(vdg.CallStoreOut(n), k)
		}
	}
	if rv := callee.ReturnValue(); rv != nil {
		if res := vdg.CallResultOut(n); res != nil {
			for _, k := range a.keysAt(rv) {
				a.flowOut(res, k)
			}
		}
	}
}

// returnFlow: values and stores reaching a function's return sink
// flow to the corresponding outputs at every call site.
func (a *insensitive) returnFlow(n *vdg.Node, in *vdg.Input, k Key) {
	fg := n.Fn
	switch in.Index {
	case 0: // store
		for _, call := range a.res.Callers[fg] {
			a.flowOut(vdg.CallStoreOut(call), k)
		}
	case 1: // value
		for _, call := range a.res.Callers[fg] {
			if res := vdg.CallResultOut(call); res != nil {
				a.flowOut(res, k)
			}
		}
	}
}
