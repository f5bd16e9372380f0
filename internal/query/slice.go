package query

import (
	"aliaslab/internal/vdg"
)

// Slice is a backward-closed set of VDG outputs: every output whose
// pairs can influence a member (through intra-procedural edges or call
// edges of the syntactic CallGraph) is itself a member. On such a set
// the demand solve computes exactly the exhaustive fixpoint restricted
// to the set — oracle.CheckDemand asserts this corpus-wide.
type Slice struct {
	Outputs    map[*vdg.Output]bool
	Procedures map[*vdg.FuncGraph]bool
}

// SliceFor closes the anchor outputs backward. The closure rules mirror
// what the CI transfer functions (core/transfer.go) read and emit:
//
//   - Every input source of a member's node joins: transfers read
//     sibling inputs (lookup/update read their location, store, and
//     value inputs) and forward arriving pairs, so anything feeding the
//     node can influence its outputs.
//   - A call's outputs pull in the potential callees' return store and
//     return value (returnFlow/linkEdge emit those to the call
//     site), plus — via the plain input rule — the call's function
//     input chain, so the demand solve rediscovers the call edges.
//   - A formal (KParam output or the store formal) pulls in, at every
//     potential caller, the matching actual (or store) source and the
//     caller's function input source (callFlow forwards actuals to
//     formals only after the edge is discovered).
func SliceFor(g *vdg.Graph, cg *CallGraph, anchors []*vdg.Output) *Slice {
	s := &Slice{
		Outputs:    make(map[*vdg.Output]bool),
		Procedures: make(map[*vdg.FuncGraph]bool),
	}
	var work []*vdg.Output
	add := func(o *vdg.Output) {
		if o == nil || s.Outputs[o] {
			return
		}
		s.Outputs[o] = true
		s.Procedures[o.Node.Fn] = true
		work = append(work, o)
	}
	for _, o := range anchors {
		add(o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		n := o.Node

		for _, in := range n.Inputs {
			add(in.Src)
		}

		switch n.Kind {
		case vdg.KCall:
			for _, callee := range cg.Callees(n) {
				if o == vdg.CallStoreOut(n) {
					add(callee.ReturnStore())
				} else if res := vdg.CallResultOut(n); res != nil && o == res {
					add(callee.ReturnValue())
				}
			}
		case vdg.KStoreParam:
			for _, call := range cg.Callers(n.Fn) {
				add(call.Inputs[0].Src)
				if len(call.Inputs) > 1 {
					add(call.Inputs[1].Src)
				}
			}
		case vdg.KParam:
			idx := -1
			for i, po := range n.Fn.ParamOuts {
				if po == o {
					idx = i
					break
				}
			}
			if idx >= 0 {
				for _, call := range cg.Callers(n.Fn) {
					add(call.Inputs[0].Src)
					if 2+idx < len(call.Inputs) {
						add(call.Inputs[2+idx].Src)
					}
				}
			}
		}
	}
	return s
}
