// Package steensgaard implements the unification (equality-based)
// points-to backend: Steensgaard's near-linear analysis over the same
// constraint extraction the Andersen backend solves.
//
// Where Andersen turns each copy constraint into a directed inclusion
// edge, unification merges the two cells outright — a union-find
// operation — so the entire static copy structure collapses in one
// near-linear pass before any pair propagates. The remaining complex
// constraints (transforms, loads, stores, dynamic calls) then run on
// the drastically smaller merged system; dynamically discovered call
// edges unify actual with formal and return with result the same way.
//
// Treating a subset constraint as an equality adds the reverse
// inclusion to the system, and unification cannot honor the checked
// (guard-refinement) filter, which drops it. Both changes only enlarge
// the constraint system, so by Tarski the least solution is a pointwise
// superset of Andersen's — the cheapest and least precise point of the
// repository's four-backend frontier, which the oracle asserts as
// Steensgaard ⊇ Andersen on every output.
package steensgaard

import (
	"aliaslab/internal/backend"
	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/vdg"
)

// Analyze solves the unified constraint system of g to its least
// fixpoint with no resource limits.
func Analyze(g *vdg.Graph) *core.Result {
	return AnalyzeBudgeted(g, limits.Budget{})
}

// AnalyzeBudgeted is Analyze under a resource budget.
func AnalyzeBudgeted(g *vdg.Graph, budget limits.Budget) *core.Result {
	cons := backend.Extract(g)
	s := &analysis{sys: backend.NewSystem(cons, budget)}
	s.sys.OnCallee = s.onCallee

	// The single unification pass: every static copy, checked or not,
	// merges its endpoints. Sets are still empty here, so each union is
	// a pure pointer operation.
	for _, cp := range cons.Copies {
		s.unify(cp.Src, cp.Dst)
	}

	s.sys.Seed()
	out := s.sys.Eng.Run(func(ar backend.Arrival) {
		s.sys.Complex(s.sys.Find(ar.Cell), ar.Key)
	})
	return s.sys.Result(out)
}

type analysis struct {
	sys *backend.System
}

func (s *analysis) unify(a, b backend.CellID) {
	if _, merged := s.sys.Merge(a, b); merged {
		s.sys.St.Unions++
	}
}

// onCallee unifies interprocedural flow for a newly discovered call
// edge: actual ≡ formal and return value ≡ call result. The store is
// already one shared cell.
func (s *analysis) onCallee(n *vdg.Node, callee *vdg.FuncGraph) {
	cellOf := s.sys.Cons.CellOf
	for i, argIn := range vdg.CallArgs(n) {
		if i >= len(callee.ParamOuts) {
			break
		}
		s.unify(cellOf[argIn.Src.ID], cellOf[callee.ParamOuts[i].ID])
	}
	if rv := callee.ReturnValue(); rv != nil {
		if res := vdg.CallResultOut(n); res != nil {
			s.unify(cellOf[rv.ID], cellOf[res.ID])
		}
	}
}
