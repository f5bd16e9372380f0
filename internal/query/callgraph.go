// Package query answers MayAlias/PointsTo questions about one unit
// without running the whole-program fixpoint. A query resolves its
// expressions to VDG outputs (anchors), computes the backward-closed
// slice of outputs that can influence them, and runs the CI solver
// (core.AnalyzeDemand) seeded with only that slice. A per-engine memo
// keeps every solved slice, so overlapping queries pay for new outputs
// only; the server's whole-unit LRU sits above this.
package query

import (
	"aliaslab/internal/vdg"
)

// CallGraph is a sound syntactic over-approximation of the call edges
// the CI fixpoint can ever discover, computed without any points-to
// solving. The demand slice is closed against these edges; because the
// solver's dynamically discovered edges are a subset (function-base
// pairs only originate at function KAddr seeds and flow through the
// value kinds traced here), closing against the over-approximation
// keeps the slice backward-closed for the exhaustive run too.
type CallGraph struct {
	callees map[*vdg.Node][]*vdg.FuncGraph
	callers map[*vdg.FuncGraph][]*vdg.Node

	// Escaping holds functions whose address reaches anything other
	// than a call's function input — stored in a variable, a field, the
	// heap, or passed as an argument. Open calls (those whose function
	// value is loaded or merged from such places) conservatively target
	// every escaping function.
	escaping []*vdg.FuncGraph
}

// Callees returns the functions call node n may invoke.
func (cg *CallGraph) Callees(n *vdg.Node) []*vdg.FuncGraph { return cg.callees[n] }

// Callers returns the call nodes that may invoke fg.
func (cg *CallGraph) Callers(fg *vdg.FuncGraph) []*vdg.Node { return cg.callers[fg] }

// traceInfo is the per-output state of the function-value reachability
// fixpoint: the function constants that may flow to the output through
// value-transparent nodes, and whether the output is "open" (fed by a
// store load, a merge across procedures, or anything else the syntactic
// trace cannot see through).
type traceInfo struct {
	fns  []*vdg.FuncGraph
	open bool
}

// BuildCallGraph computes the syntactic call graph of g.
//
// Soundness argument, matched against the CI solver's callFlow: a
// call edge n→f is registered only when a pair (ε, fn-base) with a
// depth-0 root path reaches n's function input. Such pairs are born exclusively at the
// KAddr nodes of function references and are forwarded unchanged only
// by KGamma, transparent KPrimop, and KAlloc (realloc passthrough) —
// KFieldAddr/KIndexAddr rewrite the referent to an extended path (no
// longer a depth-0 root), KConst/KUnknown/opaque primops never carry
// pairs, and every remaining kind (lookup, extract, formals, call
// outputs) is treated as open. An open function input yields every
// escaping function, which over-approximates whatever the store may
// hold: a non-escaping function's address never reaches storage, so it
// cannot come back out of a load.
func BuildCallGraph(g *vdg.Graph) *CallGraph {
	cg := &CallGraph{
		callees: make(map[*vdg.Node][]*vdg.FuncGraph),
		callers: make(map[*vdg.FuncGraph][]*vdg.Node),
	}

	// Escaping functions, in deterministic (node creation) order.
	escaped := make(map[*vdg.FuncGraph]bool)
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind != vdg.KAddr || n.Path == nil {
				continue
			}
			fn := g.FuncByBase[n.Path.Base()]
			if fn == nil || escaped[fn] {
				continue
			}
			for _, in := range n.Outputs[0].Consumers {
				if in.Node.Kind == vdg.KCall && in.Index == 0 {
					continue
				}
				escaped[fn] = true
				cg.escaping = append(cg.escaping, fn)
				break
			}
		}
	}

	// Collect the outputs reachable backward from any call's function
	// input through value-transparent kinds, then iterate the union
	// fixpoint over that subgraph.
	info := make(map[*vdg.Output]*traceInfo)
	var order []*vdg.Output // deterministic (reach-DFS) iteration order
	var calls []*vdg.Node
	var reach func(o *vdg.Output)
	reach = func(o *vdg.Output) {
		if _, ok := info[o]; ok {
			return
		}
		ti := &traceInfo{}
		info[o] = ti
		order = append(order, o)
		n := o.Node
		switch n.Kind {
		case vdg.KAddr:
			if n.Path != nil {
				if fn := g.FuncByBase[n.Path.Base()]; fn != nil {
					ti.fns = []*vdg.FuncGraph{fn}
				}
			}
		case vdg.KGamma, vdg.KAlloc:
			for _, in := range n.Inputs {
				reach(in.Src)
			}
		case vdg.KPrimop:
			if n.Transparent {
				for _, in := range n.Inputs {
					reach(in.Src)
				}
			}
		case vdg.KConst, vdg.KUnknown:
			// No pairs ever reach these outputs: closed, empty.
		default:
			ti.open = true
		}
	}
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KCall && len(n.Inputs) > 0 {
				calls = append(calls, n)
				reach(n.Inputs[0].Src)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, o := range order {
			ti := info[o]
			n := o.Node
			if !(n.Kind == vdg.KGamma || n.Kind == vdg.KAlloc || (n.Kind == vdg.KPrimop && n.Transparent)) {
				continue
			}
			for _, in := range n.Inputs {
				src := info[in.Src]
				if src == nil {
					continue
				}
				if src.open && !ti.open {
					ti.open = true
					changed = true
				}
				for _, fn := range src.fns {
					if !hasFunc(ti.fns, fn) {
						ti.fns = append(ti.fns, fn)
						changed = true
					}
				}
			}
		}
	}

	for _, n := range calls {
		ti := info[n.Inputs[0].Src]
		targets := append([]*vdg.FuncGraph(nil), ti.fns...)
		if ti.open {
			for _, fn := range cg.escaping {
				if !hasFunc(targets, fn) {
					targets = append(targets, fn)
				}
			}
		}
		cg.callees[n] = targets
		for _, fn := range targets {
			cg.callers[fn] = append(cg.callers[fn], n)
		}
	}
	return cg
}

func hasFunc(fns []*vdg.FuncGraph, fn *vdg.FuncGraph) bool {
	for _, f := range fns {
		if f == fn {
			return true
		}
	}
	return false
}
