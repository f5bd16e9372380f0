package backend

import (
	"fmt"
	"strings"

	"aliaslab/internal/core"
	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// CellID names one constraint variable. Cell 0 is the single shared
// store cell; every non-store VDG output gets its own cell.
type CellID = int32

// StoreCell is the constraint variable holding the flow-insensitive
// store: all store outputs of the VDG map to this one cell, which is
// exactly the "one global store, no kills" abstraction of the Weihl
// baseline. Collapsing the store this way is what makes the extracted
// system flow-insensitive — the CI analysis's per-program-point store
// values all become lower bounds on the same variable, so the least
// solution is a pointwise superset of the CI fixpoint.
const StoreCell CellID = 0

// Seed asserts an unconditional lower bound: pair ∈ cell. Emitted for
// KAddr and KAlloc outputs (the paper's base-location constants).
type Seed struct {
	Cell CellID
	Pair core.Pair
}

// Copy asserts Dst ⊇ Src. Checked copies mirror the CI guard-refinement
// filter: pairs whose referent is a diagnostics marker (null/uninit) do
// not cross the edge. Emitted for gamma inputs, transparent primop
// inputs, and realloc pass-through inputs.
type Copy struct {
	Src, Dst CellID
	Checked  bool
}

// XformKind discriminates path-transforming constraints.
type XformKind int

const (
	// XField is &(*p).f: ε-offset referents extend by the member
	// operator (union members use the overlapping operator).
	XField XformKind = iota
	// XIndex is &p[i]: ε-offset referents extend by [*].
	XIndex
	// XExtract projects a member out of an aggregate value: pairs whose
	// offset path begins with an overlapping operator re-root at ε.
	XExtract
)

// Xform asserts Dst ⊇ f(Src) for a per-pair path transform f.
type Xform struct {
	Kind     XformKind
	Src, Dst CellID
	// Field is the member name (XField/XExtract); Union marks union
	// members, which use the overlapping operator.
	Field string
	Union bool
}

// Apply runs the transform on one pair, reporting whether it produced
// an output pair. The semantics are literally the CI transfer functions
// of the corresponding node kinds, minus flow.
func (x Xform) Apply(u *paths.Universe, p core.Pair) (core.Pair, bool) {
	switch x.Kind {
	case XField:
		if !p.Path.IsEmptyOffset() {
			return core.Pair{}, false
		}
		if x.Union {
			return core.Pair{Path: p.Path, Ref: u.UnionField(p.Ref, x.Field)}, true
		}
		return core.Pair{Path: p.Path, Ref: u.Field(p.Ref, x.Field)}, true
	case XIndex:
		if !p.Path.IsEmptyOffset() {
			return core.Pair{}, false
		}
		return core.Pair{Path: p.Path, Ref: u.Index(p.Ref)}, true
	case XExtract:
		want := paths.Op{Field: x.Field, Union: x.Union}
		if op, ok := p.Path.FirstOp(); ok && op.Overlaps(want) {
			return core.Pair{Path: u.TailAfterFirst(p.Path), Ref: p.Ref}, true
		}
		return core.Pair{}, false
	}
	return core.Pair{}, false
}

// Load asserts Dst ⊇ deref(Loc, store): for every ε-offset referent ℓ
// of Loc and every store pair (q, r) with Dom(ℓ, q), the pair
// (q − ℓ, r) is in Dst. Emitted for KLookup.
type Load struct {
	Loc, Dst CellID
}

// Store asserts store ⊇ write(Loc, Val): for every ε-offset referent ℓ
// of Loc and every value pair (q, r), the pair (ℓ·q, r) is in the
// store. There is no strong-update kill — dropping the kill is the
// second precision loss (after store collapsing) that puts the
// flow-insensitive solutions above CI. Emitted for KUpdate.
type Store struct {
	Loc, Val CellID
}

// Call asserts dynamic interprocedural flow: for every ε-offset,
// depth-0 function referent of Fn, the call's actuals flow to the
// callee's formals and the callee's return value flows to the call's
// result. The store needs no constraint — caller and callee store are
// the same cell. The flow edges themselves are materialized by the
// solver when referents arrive (Andersen adds inclusion edges,
// Steensgaard unifies), which is why the callee lists live in the
// solvers, not here.
type Call struct {
	Node *vdg.Node
	Fn   CellID
}

// Constraints is the inclusion-constraint system extracted from one
// whole-program VDG. Both flow-insensitive backends solve this same
// system; they differ only in whether Copy edges are directed
// (Andersen) or unified (Steensgaard).
type Constraints struct {
	Graph *vdg.Graph

	// NumCells is the number of constraint variables (cell 0 is the
	// store).
	NumCells int
	// CellOf maps every live VDG output, by Output.ID, to its cell; all
	// store outputs map to StoreCell. Slots of outputs on deleted nodes
	// are never read.
	CellOf []CellID

	Seeds  []Seed
	Copies []Copy
	Xforms []Xform
	Loads  []Load
	Stores []Store
	Calls  []Call
}

// Count returns the total number of extracted constraints, the value
// reported as solver.Stats.Constraints.
func (c *Constraints) Count() int {
	return len(c.Seeds) + len(c.Copies) + len(c.Xforms) + len(c.Loads) + len(c.Stores) + len(c.Calls)
}

// Extract walks every node of g and emits its constraint system. The
// walk is creation-ordered, so cell numbering and constraint order are
// deterministic.
func Extract(g *vdg.Graph) *Constraints {
	c := &Constraints{
		Graph:    g,
		CellOf:   make([]CellID, g.OutputIDs()),
		NumCells: 1, // cell 0: the store
	}
	g.Outputs(func(o *vdg.Output) {
		if o.IsStore {
			c.CellOf[o.ID] = StoreCell
			return
		}
		c.CellOf[o.ID] = CellID(c.NumCells)
		c.NumCells++
	})

	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			c.extractNode(n)
		}
	}
	return c
}

// extractNode emits the constraints of one node. Kinds absent from the
// switch contribute nothing: KParam/KStoreParam cells are written by
// call flow, KConst/KUnknown carry no pairs, KReturn flow is implicit
// in call handling, and every store-to-store transfer (update and free
// pass-through, store gammas, call/return store plumbing) is the
// identity on the shared store cell.
func (c *Constraints) extractNode(n *vdg.Node) {
	switch n.Kind {
	case vdg.KAddr, vdg.KAlloc:
		out := c.CellOf[n.Outputs[0].ID]
		c.Seeds = append(c.Seeds, Seed{Cell: out, Pair: core.Pair{Path: c.Graph.Universe.Empty(), Ref: n.Path}})
		// realloc: the old block's pairs pass through.
		for _, in := range n.Inputs {
			c.copyEdge(in.Src, n.Outputs[0], false)
		}
	case vdg.KGamma:
		for _, in := range n.Inputs {
			c.copyEdge(in.Src, n.Outputs[0], false)
		}
	case vdg.KPrimop:
		if n.Transparent {
			for _, in := range n.Inputs {
				c.copyEdge(in.Src, n.Outputs[0], n.Op == vdg.OpChecked)
			}
		}
	case vdg.KFieldAddr:
		c.Xforms = append(c.Xforms, Xform{
			Kind: XField, Src: c.CellOf[n.Inputs[0].Src.ID], Dst: c.CellOf[n.Outputs[0].ID],
			Field: n.Field, Union: n.Transparent,
		})
	case vdg.KIndexAddr:
		c.Xforms = append(c.Xforms, Xform{
			Kind: XIndex, Src: c.CellOf[n.Inputs[0].Src.ID], Dst: c.CellOf[n.Outputs[0].ID],
		})
	case vdg.KExtract:
		c.Xforms = append(c.Xforms, Xform{
			Kind: XExtract, Src: c.CellOf[n.Inputs[0].Src.ID], Dst: c.CellOf[n.Outputs[0].ID],
			Field: n.Field, Union: n.Transparent,
		})
	case vdg.KLookup:
		c.Loads = append(c.Loads, Load{Loc: c.CellOf[n.Loc().ID], Dst: c.CellOf[n.Outputs[0].ID]})
	case vdg.KUpdate:
		c.Stores = append(c.Stores, Store{Loc: c.CellOf[n.Loc().ID], Val: c.CellOf[n.Value().ID]})
	case vdg.KCall:
		c.Calls = append(c.Calls, Call{Node: n, Fn: c.CellOf[vdg.CallFunc(n).Src.ID]})
	}
}

// copyEdge emits Dst ⊇ Src unless both endpoints are the store cell
// (store-to-store flow is the identity under the collapsed store).
func (c *Constraints) copyEdge(src, dst *vdg.Output, checked bool) {
	s, d := c.CellOf[src.ID], c.CellOf[dst.ID]
	if s == StoreCell && d == StoreCell {
		return
	}
	c.Copies = append(c.Copies, Copy{Src: s, Dst: d, Checked: checked})
}

// Strings renders the constraint system deterministically for tests and
// debugging. Cells are renamed in first-appearance order (the store
// cell is "S", others "c0", "c1", …), so the rendering is stable under
// unrelated shifts in VDG node numbering.
func (c *Constraints) Strings() []string {
	names := make(map[CellID]string)
	name := func(id CellID) string {
		if id == StoreCell {
			return "S"
		}
		if s, ok := names[id]; ok {
			return s
		}
		s := fmt.Sprintf("c%d", len(names))
		names[id] = s
		return s
	}
	var out []string
	for _, s := range c.Seeds {
		out = append(out, fmt.Sprintf("%s ⊇ {%s}", name(s.Cell), s.Pair.Ref))
	}
	for _, cp := range c.Copies {
		op := "⊇"
		if cp.Checked {
			op = "⊇?" // checked: marker referents filtered
		}
		out = append(out, fmt.Sprintf("%s %s %s", name(cp.Dst), op, name(cp.Src)))
	}
	for _, x := range c.Xforms {
		var f string
		switch x.Kind {
		case XField:
			dot := "."
			if x.Union {
				dot = ".u/"
			}
			f = fmt.Sprintf("field(%s%s, %s)", dot, x.Field, name(x.Src))
		case XIndex:
			f = fmt.Sprintf("index(%s)", name(x.Src))
		case XExtract:
			dot := "."
			if x.Union {
				dot = ".u/"
			}
			f = fmt.Sprintf("extract(%s%s, %s)", dot, x.Field, name(x.Src))
		}
		out = append(out, fmt.Sprintf("%s ⊇ %s", name(x.Dst), f))
	}
	for _, l := range c.Loads {
		out = append(out, fmt.Sprintf("%s ⊇ load(%s, S)", name(l.Dst), name(l.Loc)))
	}
	for _, s := range c.Stores {
		out = append(out, fmt.Sprintf("S ⊇ store(%s, %s)", name(s.Loc), name(s.Val)))
	}
	for _, cl := range c.Calls {
		out = append(out, fmt.Sprintf("call(%s)", name(cl.Fn)))
	}
	return out
}

// String joins Strings with newlines.
func (c *Constraints) String() string { return strings.Join(c.Strings(), "\n") }
