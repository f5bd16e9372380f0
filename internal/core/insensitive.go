package core

import (
	"aliaslab/internal/limits"
	"aliaslab/internal/paths"
	"aliaslab/internal/slab"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// Result is the output of the context-insensitive analysis: a points-to
// pair set for every node output, plus the discovered call graph.
type Result struct {
	Graph *vdg.Graph
	Sets  map[*vdg.Output]*PairSet

	// Callees maps each call node to the function graphs its function
	// input may denote (discovered on the fly from function pairs).
	Callees map[*vdg.Node][]*vdg.FuncGraph
	// Callers is the inverse: the call nodes that may invoke a function.
	Callers map[*vdg.FuncGraph][]*vdg.Node

	// Engine is the solver-engine counter record of the run, in the
	// paper's terms: Steps counts flow-ins (transfer-function
	// applications), Meets flow-outs (meet operations) and PairInserts
	// the pairs actually added across all outputs.
	Engine solver.Stats

	// Stopped is non-nil when a resource budget halted the fixpoint
	// before convergence. The sets computed so far are then an
	// under-approximation of the fixpoint and must not be used as a
	// sound may-alias answer; callers degrade or report instead.
	Stopped *limits.Violation
}

// Pairs returns the pair set of o (possibly empty, never nil).
func (r *Result) Pairs(o *vdg.Output) *PairSet {
	if s, ok := r.Sets[o]; ok {
		return s
	}
	return &PairSet{}
}

// LocReferents returns the distinct locations the location input of a
// lookup/update node may denote.
func (r *Result) LocReferents(n *vdg.Node) []*paths.Path {
	return r.Pairs(n.Loc()).Referents()
}

// workItem is one (input, pair) arrival, as in the paper's worklist:
// the input by ID and the pair packed, so the queue holds no pointers.
type workItem struct {
	in  int
	key Key
}

// AnalyzeInsensitive runs the context-insensitive points-to analysis of
// [Ruf95, Figure 1] over the whole-program VDG, with no resource
// limits (it always runs to the fixpoint).
func AnalyzeInsensitive(g *vdg.Graph) *Result {
	return AnalyzeInsensitiveBudgeted(g, limits.Budget{})
}

// AnalyzeInsensitiveBudgeted is AnalyzeInsensitive under a resource
// budget: the engine checks the budget before every flow-in and stops
// with Result.Stopped set when a limit trips. Under the zero
// (unlimited) budget the result is identical to AnalyzeInsensitive.
func AnalyzeInsensitiveBudgeted(g *vdg.Graph, budget limits.Budget) *Result {
	return solveInsensitive(g, nil, budget)
}

// solveInsensitive runs the fixpoint, over the whole graph when slice
// is nil and over the slice's outputs otherwise.
func solveInsensitive(g *vdg.Graph, slice map[*vdg.Output]bool, budget limits.Budget) *Result {
	res := &Result{
		Graph:   g,
		Callees: make(map[*vdg.Node][]*vdg.FuncGraph),
		Callers: make(map[*vdg.FuncGraph][]*vdg.Node),
	}
	a := &analysis{
		g:       g,
		u:       g.Universe,
		callees: res.Callees,
		callers: res.Callers,
		sets:    make([]*PairSet, g.OutputCount()),
		slice:   slice,
		eng:     solver.New[workItem](budget),
		keySlab: slab.Slab[Key]{Size: 256},
	}
	a.st = a.eng.Stats()
	a.seed(nil)
	stopped := a.eng.Run(func(it workItem) { a.flowIn(g.Input(it.in), it.key, nil) })
	res.Sets = byOutput(g, a.sets)
	res.Stopped = stopped
	res.Engine = *a.st
	return res
}

// byOutput turns a solver table indexed by Output.ID into the result's
// map, presized to the table's non-nil entries.
func byOutput[S any](g *vdg.Graph, table []*S) map[*vdg.Output]*S {
	n := 0
	for _, s := range table {
		if s != nil {
			n++
		}
	}
	m := make(map[*vdg.Output]*S, n)
	g.Outputs(func(o *vdg.Output) {
		if s := table[o.ID]; s != nil {
			m[o] = s
		}
	})
	return m
}
