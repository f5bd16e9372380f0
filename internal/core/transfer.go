package core

import (
	"aliaslab/internal/paths"
	"aliaslab/internal/slab"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// The transfer functions of [Ruf95, Figure 1], written once for both
// analyses. A fact on an output is a packed pair (a Key) plus a
// qualifier: the qualifier is nil under the context-insensitive
// analysis and an interned assumption set under the context-sensitive
// one (Figure 5). The CS analysis differs from CI only in the hooks the
// rules call, which sensitive.go implements and which are the identity
// under CI:
//
//   - union joins the qualifiers of a location and a store or value
//     fact at a lookup or an update;
//   - locAssumptions (§4.2 optimization 1) drops a single-referent
//     location's qualifier;
//   - ciUnmodifiable (§4.2 optimization 2) passes a store pair no CI
//     location of an update can modify;
//   - formalAssumption gives a fact entering a callee a fresh
//     assumption on the formal;
//   - returnAssumptions (propagate-return) maps a returned fact's
//     assumptions onto a call site;
//
// plus two steps the rules take only under CS: indexReturn files a
// returned fact under its assumptions, and retriggerReturns re-runs
// propagate-return when a new actual can satisfy them. The hooks that
// run under CI inline to nothing there, and the CS-only steps are
// guarded at their call sites. The one call CI pays that separate CI
// rules did not is factsAt, once per rule application: it does not
// inline, because it holds CS's call to snapshot.
//
// A pair arrives packed and is decoded only where a path's structure
// matters, so pass-through nodes move keys without touching the
// universe.

// analysis is the state of one solve, CI or CS.
type analysis struct {
	g  *vdg.Graph
	u  *paths.Universe
	st *solver.Stats

	// callees and callers are the call graph discovered so far; they
	// are the result's own maps.
	callees map[*vdg.Node][]*vdg.FuncGraph
	callers map[*vdg.FuncGraph][]*vdg.Node

	// The CI store: pair sets by Output.ID and the key-only engine.
	// slice, when non-nil, restricts the solve to a set of outputs (see
	// AnalyzeDemand): pairs land only on slice members, so seeding and
	// propagation never touch the rest of the graph.
	sets  []*PairSet
	slice map[*vdg.Output]bool
	eng   *solver.Engine[workItem]

	// setSlab and keySlab hold the CI pair sets and the keys of the
	// sets still small enough to scan (see pairSetSmall), so such a set
	// costs no allocation of its own.
	setSlab slab.Slab[PairSet]
	keySlab slab.Slab[Key]

	// cs is the CS qualifier state, nil under CI.
	cs *sensitive
}

// flowOut is the meet: it adds the fact (k, q) to the set on out and
// queues it at every consumer when it is new. Under CS the meet is
// qualifiedFlowOut; the CI meet follows. Outside a slice the pair is
// dropped before the meet, so the engine counts only the work a sliced
// solve actually performed.
func (a *analysis) flowOut(out *vdg.Output, k Key, q *ASet) {
	if a.cs != nil {
		a.qualifiedFlowOut(out, k, q)
		return
	}
	if a.slice != nil && !a.slice[out] {
		return
	}
	a.st.Meets++
	s := a.sets[out.ID]
	if s == nil {
		s = a.setSlab.Alloc()
		s.u, s.keys = a.u, a.keySlab.Carve(4)
		a.sets[out.ID] = s
	} else if s.index == nil && len(s.keys) == cap(s.keys) {
		s.keys = a.keySlab.Grow(s.keys, 0)
	}
	if !s.AddKey(k) {
		return
	}
	a.st.PairInserts++
	for _, in := range out.Consumers {
		a.eng.Push(workItem{in: in.ID, key: k})
	}
}

// factsAt returns the facts on src: their keys and, under CS, each
// key's qualifier at the same index (nil under CI). Under CI the keys
// are the set's own, which only ever grow at the end, so a rule that
// adds to src while it reads sees the facts present when it began.
// Under CS both are a snapshot in the solver's buffers, which the next
// call overwrites; no rule holds two at once.
func (a *analysis) factsAt(src *vdg.Output) (keys []Key, quals []*ASet) {
	if a.cs != nil {
		return a.cs.snapshot(src)
	}
	if s := a.sets[src.ID]; s != nil {
		keys = s.keys
	}
	return keys, nil
}

// qualAt returns the qualifier of the i-th fact of a factsAt result.
func qualAt(quals []*ASet, i int) *ASet {
	if quals == nil {
		return nil
	}
	return quals[i]
}

// path and ref decode one half of a packed pair.
func (a *analysis) path(k Key) *paths.Path { return a.u.ByID(k.PathID()) }
func (a *analysis) ref(k Key) *paths.Path  { return a.u.ByID(k.RefID()) }

// seed makes every base-location constant point to its location
// (within a slice, flowOut drops the constants outside it).
func (a *analysis) seed(q *ASet) {
	for _, fg := range a.g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KAddr || n.Kind == vdg.KAlloc {
				a.flowOut(n.Outputs[0], PackKey(paths.EmptyID, n.Path.ID()), q)
			}
		}
	}
}

// flowIn applies the transfer function of in's node to one arriving
// fact (k, q).
func (a *analysis) flowIn(in *vdg.Input, k Key, q *ASet) {
	n := in.Node
	switch n.Kind {
	case vdg.KLookup:
		a.lookupFlow(n, in, k, q)
	case vdg.KUpdate:
		a.updateFlow(n, in, k, q)
	case vdg.KCall:
		a.callFlow(n, in, k, q)
	case vdg.KReturn:
		a.returnFlow(n, in, k, q)
	case vdg.KGamma:
		a.flowOut(n.Outputs[0], k, q)
	case vdg.KPrimop:
		if n.Transparent {
			if n.Op == vdg.OpChecked && IsMarkerRef(a.ref(k)) {
				// A null guard proved the value non-null on this branch:
				// the marker referents do not pass the check.
				return
			}
			a.flowOut(n.Outputs[0], k, q)
		}
	case vdg.KAlloc:
		// realloc: the old block's pairs flow through.
		a.flowOut(n.Outputs[0], k, q)
	case vdg.KFree:
		// Deallocation is identity on the store (the kill is interpreted
		// by the checkers, not the points-to domain — removing pairs
		// would be unsound under may-aliasing).
		if in.Index == 1 {
			a.flowOut(n.Outputs[0], k, q)
		}
	case vdg.KFieldAddr:
		if k.EmptyPath() {
			ref := a.extendField(n, a.ref(k))
			a.flowOut(n.Outputs[0], PackKey(paths.EmptyID, ref.ID()), q)
		}
	case vdg.KIndexAddr:
		if k.EmptyPath() {
			a.flowOut(n.Outputs[0], PackKey(paths.EmptyID, a.u.Index(a.ref(k)).ID()), q)
		}
	case vdg.KExtract:
		want := paths.Op{Field: n.Field, Union: n.Transparent}
		path := a.path(k)
		if op, ok := path.FirstOp(); ok && op.Overlaps(want) {
			tail := a.u.TailAfterFirst(path)
			a.flowOut(n.Outputs[0], PackKey(tail.ID(), k.RefID()), q)
		}
	}
}

// extendField applies a member operator; union members use the
// overlapping operator (the builder marks union accesses on the node).
func (a *analysis) extendField(n *vdg.Node, p *paths.Path) *paths.Path {
	if n.Transparent { // union member
		return a.u.UnionField(p, n.Field)
	}
	return a.u.Field(p, n.Field)
}

// lookupFlow: a new location dereferences every store pair it may
// observe; a new store pair is observed by every location.
func (a *analysis) lookupFlow(n *vdg.Node, in *vdg.Input, k Key, q *ASet) {
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location input
		if !k.EmptyPath() {
			return
		}
		rl := a.ref(k)
		al := a.locAssumptions(n, q)
		keys, quals := a.factsAt(n.StoreIn())
		for i, ks := range keys {
			if ps := a.path(ks); paths.Dom(rl, ps) {
				a.flowOut(out, PackKey(a.u.Subtract(ps, rl).ID(), ks.RefID()), a.union(al, qualAt(quals, i)))
			}
		}
	case 1: // store input
		ps := a.path(k)
		keys, quals := a.factsAt(n.Loc())
		for i, kl := range keys {
			if !kl.EmptyPath() {
				continue
			}
			if rl := a.ref(kl); paths.Dom(rl, ps) {
				al := a.locAssumptions(n, qualAt(quals, i))
				a.flowOut(out, PackKey(a.u.Subtract(ps, rl).ID(), k.RefID()), a.union(al, q))
			}
		}
	}
}

// updateFlow implements strong updates: a store pair passes through
// only via location referents that do not definitely overwrite it, and
// store pairs are blocked entirely until the first location arrives
// (the dual-worklist behaviour of [CWZ90]).
func (a *analysis) updateFlow(n *vdg.Node, in *vdg.Input, k Key, q *ASet) {
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location input
		if !k.EmptyPath() {
			return
		}
		rl := a.ref(k)
		al := a.locAssumptions(n, q)
		keys, quals := a.factsAt(n.Value())
		for i, kv := range keys {
			a.flowOut(out, PackKey(a.u.Append(rl, a.path(kv)).ID(), kv.RefID()), a.union(al, qualAt(quals, i)))
		}
		keys, quals = a.factsAt(n.StoreIn())
		for i, ks := range keys {
			if a.ciUnmodifiable(n, ks) {
				// Optimization 2 handles these on arrival; re-emitting
				// per location would only add redundant assumptions.
				continue
			}
			if !paths.StrongDom(rl, a.path(ks)) {
				a.flowOut(out, ks, a.union(al, qualAt(quals, i)))
			}
		}
	case 1: // store input
		if a.ciUnmodifiable(n, k) {
			a.flowOut(out, k, q)
			return
		}
		var ps *paths.Path // decoded on the first location referent
		keys, quals := a.factsAt(n.Loc())
		for i, kl := range keys {
			if !kl.EmptyPath() {
				continue
			}
			if ps == nil {
				ps = a.path(k)
			}
			if !paths.StrongDom(a.ref(kl), ps) {
				a.flowOut(out, k, a.union(a.locAssumptions(n, qualAt(quals, i)), q))
			}
		}
	case 2: // value input
		pv := a.path(k)
		keys, quals := a.factsAt(n.Loc())
		for i, kl := range keys {
			if !kl.EmptyPath() {
				continue
			}
			al := a.locAssumptions(n, qualAt(quals, i))
			a.flowOut(out, PackKey(a.u.Append(a.ref(kl), pv).ID(), k.RefID()), a.union(al, q))
		}
	}
}

// callFlow: actuals propagate to the formals of every callee; a new
// function value registers a call edge. Function values themselves
// stay context-insensitive, as in the paper (§4.1: assumptions on
// function values were not implemented; verified harmless).
func (a *analysis) callFlow(n *vdg.Node, in *vdg.Input, k Key, q *ASet) {
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
		callee := a.g.FuncByBase[base]
		if callee == nil {
			return
		}
		a.linkEdge(n, callee)
	case 1: // store input
		for _, callee := range a.callees[n] {
			a.flowOut(callee.StoreParam, k, a.formalAssumption(callee.StoreParam, k, q))
			if a.cs != nil {
				// A new store pair may satisfy return assumptions that
				// were previously unsatisfiable at this call site
				// (Figure 5).
				a.retriggerReturns(n, callee.StoreParam, k)
			}
		}
	default: // actuals
		argIdx := in.Index - 2
		for _, callee := range a.callees[n] {
			if argIdx < len(callee.ParamOuts) {
				formal := callee.ParamOuts[argIdx]
				a.flowOut(formal, k, a.formalAssumption(formal, k, q))
				if a.cs != nil {
					a.retriggerReturns(n, formal, k)
				}
			}
		}
	}
}

// linkEdge records a call → callee edge and, when it is new,
// repropagates both of its directions: existing actuals and store flow
// forward to the callee's formals, and the callee's existing returns
// flow back to this call site. The edge is recorded first, so the
// emissions below see it and do not re-trigger it.
func (a *analysis) linkEdge(n *vdg.Node, callee *vdg.FuncGraph) {
	for _, c := range a.callees[n] {
		if c == callee {
			return
		}
	}
	a.callees[n] = append(a.callees[n], callee)
	a.callers[callee] = append(a.callers[callee], n)

	keys, quals := a.factsAt(n.StoreIn())
	for i, k := range keys {
		a.flowOut(callee.StoreParam, k, a.formalAssumption(callee.StoreParam, k, qualAt(quals, i)))
	}
	for j, argIn := range vdg.CallArgs(n) {
		if j >= len(callee.ParamOuts) {
			break
		}
		formal := callee.ParamOuts[j]
		keys, quals := a.factsAt(argIn.Src)
		for i, k := range keys {
			a.flowOut(formal, k, a.formalAssumption(formal, k, qualAt(quals, i)))
		}
	}

	if rs := callee.ReturnStore(); rs != nil {
		a.returnAll(n, vdg.CallStoreOut(n), rs)
	}
	if rv := callee.ReturnValue(); rv != nil {
		if res := vdg.CallResultOut(n); res != nil {
			a.returnAll(n, res, rv)
		}
	}
}

// returnAll returns every fact on a callee's return source src to
// target at call site n.
func (a *analysis) returnAll(n *vdg.Node, target, src *vdg.Output) {
	keys, quals := a.factsAt(src)
	for i, k := range keys {
		for _, x := range a.returnAssumptions(n, qualAt(quals, i)) {
			a.flowOut(target, k, x)
		}
	}
}

// returnFlow: values and stores reaching a function's return sink
// flow to the corresponding outputs at every call site, under each
// caller qualifier that satisfies their assumptions there.
func (a *analysis) returnFlow(n *vdg.Node, in *vdg.Input, k Key, q *ASet) {
	if a.cs != nil {
		a.indexReturn(k, q, in.Index == 0)
	}
	for _, call := range a.callers[n.Fn] {
		if target := returnTarget(call, in.Index == 0); target != nil {
			for _, x := range a.returnAssumptions(call, q) {
				a.flowOut(target, k, x)
			}
		}
	}
}

// returnTarget is the output at call site call that a callee's return
// store (isStore) or return value flows to; nil when the call has no
// result output.
func returnTarget(call *vdg.Node, isStore bool) *vdg.Output {
	if isStore {
		return vdg.CallStoreOut(call)
	}
	return vdg.CallResultOut(call)
}
