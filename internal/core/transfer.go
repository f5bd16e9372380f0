package core

import (
	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// flowIn implements the per-node transfer functions of [Ruf95,
// Figure 1]: one (input, pair) arrival against one node.
func (a *insensitive) flowIn(in *vdg.Input, pair Pair) {
	n := in.Node
	switch n.Kind {
	case vdg.KLookup:
		a.lookupFlow(n, in, pair)
	case vdg.KUpdate:
		a.updateFlow(n, in, pair)
	case vdg.KCall:
		a.callFlow(n, in, pair)
	case vdg.KReturn:
		a.returnFlow(n, in, pair)
	case vdg.KGamma:
		a.flowOut(n.Outputs[0], pair)
	case vdg.KPrimop:
		if n.Transparent {
			if n.Op == vdg.OpChecked && IsMarkerRef(pair.Ref) {
				// A null guard proved the value non-null on this branch:
				// the marker referents do not pass the check.
				return
			}
			a.flowOut(n.Outputs[0], pair)
		}
	case vdg.KAlloc:
		// realloc: the old block's pairs flow through.
		a.flowOut(n.Outputs[0], pair)
	case vdg.KFree:
		// Deallocation is identity on the store (the kill is interpreted
		// by the checkers, not the points-to domain — removing pairs
		// would be unsound under may-aliasing).
		if in.Index == 1 {
			a.flowOut(n.Outputs[0], pair)
		}
	case vdg.KFieldAddr:
		if pair.Path.IsEmptyOffset() {
			ref := a.extendField(n, pair.Ref)
			a.flowOut(n.Outputs[0], Pair{Path: pair.Path, Ref: ref})
		}
	case vdg.KIndexAddr:
		if pair.Path.IsEmptyOffset() {
			a.flowOut(n.Outputs[0], Pair{Path: pair.Path, Ref: a.g.Universe.Index(pair.Ref)})
		}
	case vdg.KExtract:
		want := paths.Op{Field: n.Field, Union: n.Transparent}
		if op, ok := pair.Path.FirstOp(); ok && op.Overlaps(want) {
			tail := a.g.Universe.TailAfterFirst(pair.Path)
			a.flowOut(n.Outputs[0], Pair{Path: tail, Ref: pair.Ref})
		}
	}
}

// extendField applies a member operator; union members use the
// overlapping operator (the builder marks union accesses on the node).
func (a *insensitive) extendField(n *vdg.Node, p *paths.Path) *paths.Path {
	if n.Transparent { // union member
		return a.g.Universe.UnionField(p, n.Field)
	}
	return a.g.Universe.Field(p, n.Field)
}

// lookupFlow: a new location dereferences every store pair it may
// observe; a new store pair is observed by every location.
func (a *insensitive) lookupFlow(n *vdg.Node, in *vdg.Input, pair Pair) {
	u := a.g.Universe
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location input
		if !pair.Path.IsEmptyOffset() {
			return
		}
		rl := pair.Ref
		for _, ps := range a.pairsAt(n.StoreIn()) {
			if paths.Dom(rl, ps.Path) {
				a.flowOut(out, Pair{Path: u.Subtract(ps.Path, rl), Ref: ps.Ref})
			}
		}
	case 1: // store input
		for _, pl := range a.pairsAt(n.Loc()) {
			if !pl.Path.IsEmptyOffset() {
				continue
			}
			if paths.Dom(pl.Ref, pair.Path) {
				a.flowOut(out, Pair{Path: u.Subtract(pair.Path, pl.Ref), Ref: pair.Ref})
			}
		}
	}
}

// updateFlow implements strong updates: a store pair passes through
// only via location referents that do not definitely overwrite it, and
// store pairs are blocked entirely until the first location arrives
// (the dual-worklist behaviour of [CWZ90]).
func (a *insensitive) updateFlow(n *vdg.Node, in *vdg.Input, pair Pair) {
	u := a.g.Universe
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location input
		if !pair.Path.IsEmptyOffset() {
			return
		}
		rl := pair.Ref
		for _, pv := range a.pairsAt(n.Value()) {
			a.flowOut(out, Pair{Path: u.Append(rl, pv.Path), Ref: pv.Ref})
		}
		for _, ps := range a.pairsAt(n.StoreIn()) {
			if !paths.StrongDom(rl, ps.Path) {
				a.flowOut(out, ps)
			}
		}
	case 1: // store input
		for _, pl := range a.pairsAt(n.Loc()) {
			if !pl.Path.IsEmptyOffset() {
				continue
			}
			if !paths.StrongDom(pl.Ref, pair.Path) {
				a.flowOut(out, pair)
			}
		}
	case 2: // value input
		for _, pl := range a.pairsAt(n.Loc()) {
			if !pl.Path.IsEmptyOffset() {
				continue
			}
			a.flowOut(out, Pair{Path: u.Append(pl.Ref, pair.Path), Ref: pair.Ref})
		}
	}
}

// callFlow: actuals propagate to the formals of every callee; a new
// function value registers a call edge.
func (a *insensitive) callFlow(n *vdg.Node, in *vdg.Input, pair Pair) {
	switch in.Index {
	case 0: // function input
		if !pair.Path.IsEmptyOffset() {
			return
		}
		base := pair.Ref.Base()
		if base == nil || pair.Ref.Depth() != 0 {
			return
		}
		callee := n.Fn.Graph.FuncByBase[base]
		if callee == nil {
			return
		}
		a.linkEdge(n, callee)
	case 1: // store input
		for _, callee := range a.res.Callees[n] {
			a.flowOut(callee.StoreParam, pair)
		}
	default: // actuals
		argIdx := in.Index - 2
		for _, callee := range a.res.Callees[n] {
			if argIdx < len(callee.ParamOuts) {
				a.flowOut(callee.ParamOuts[argIdx], pair)
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

	for _, pair := range a.pairsAt(n.StoreIn()) {
		a.flowOut(callee.StoreParam, pair)
	}
	for i, argIn := range vdg.CallArgs(n) {
		if i >= len(callee.ParamOuts) {
			break
		}
		for _, pair := range a.pairsAt(argIn.Src) {
			a.flowOut(callee.ParamOuts[i], pair)
		}
	}

	if rs := callee.ReturnStore(); rs != nil {
		for _, pair := range a.pairsAt(rs) {
			a.flowOut(vdg.CallStoreOut(n), pair)
		}
	}
	if rv := callee.ReturnValue(); rv != nil {
		if res := vdg.CallResultOut(n); res != nil {
			for _, pair := range a.pairsAt(rv) {
				a.flowOut(res, pair)
			}
		}
	}
}

// returnFlow: values and stores reaching a function's return sink
// flow to the corresponding outputs at every call site.
func (a *insensitive) returnFlow(n *vdg.Node, in *vdg.Input, pair Pair) {
	fg := n.Fn
	switch in.Index {
	case 0: // store
		for _, call := range a.res.Callers[fg] {
			a.flowOut(vdg.CallStoreOut(call), pair)
		}
	case 1: // value
		for _, call := range a.res.Callers[fg] {
			if res := vdg.CallResultOut(call); res != nil {
				a.flowOut(res, pair)
			}
		}
	}
}
