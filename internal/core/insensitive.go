package core

import (
	"aliaslab/internal/limits"
	"aliaslab/internal/paths"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// Metrics counts analysis work in the paper's terms: flow-in is one
// transfer-function application (processing one (input, pair) arrival);
// flow-out is one meet operation (attempting to add a pair to an
// output's set). It is derived from the engine's solver.Stats at the
// end of a run.
type Metrics struct {
	FlowIns  int
	FlowOuts int
	Pairs    int // pairs actually added across all outputs
}

// metricsFrom maps engine counters onto the paper's vocabulary.
func metricsFrom(st *solver.Stats) Metrics {
	return Metrics{FlowIns: st.Steps, FlowOuts: st.Meets, Pairs: st.PairInserts}
}

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

	Metrics Metrics

	// Engine is the solver-engine counter record of the run (steps,
	// meets, subsumption, worklist depth).
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

// insensitive is the analysis state of one context-insensitive solve.
// slice, when non-nil, restricts the solve to a set of outputs (see
// AnalyzeDemand): pairs land only on slice members, so seeding and
// propagation never touch the rest of the graph. sets holds the pair
// sets by Output.ID during the solve; Result.Sets is built from it at
// the end.
type insensitive struct {
	g     *vdg.Graph
	u     *paths.Universe
	slice map[*vdg.Output]bool
	sets  []*PairSet
	res   *Result
	eng   *solver.Engine[workItem]
	st    *solver.Stats
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
	a := &insensitive{
		g:     g,
		u:     g.Universe,
		slice: slice,
		sets:  make([]*PairSet, g.OutputIDs()),
		res: &Result{
			Graph:   g,
			Callees: make(map[*vdg.Node][]*vdg.FuncGraph),
			Callers: make(map[*vdg.FuncGraph][]*vdg.Node),
		},
		eng: solver.New[workItem](solver.Config{Budget: budget}),
	}
	a.st = a.eng.Stats()

	// Seed: every base-location constant points to its location (within
	// a slice, flowOut drops the constants outside it).
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KAddr || n.Kind == vdg.KAlloc {
				a.flowOut(n.Outputs[0], PackKey(paths.EmptyID, n.Path.ID()))
			}
		}
	}

	out := a.eng.Run(func(it workItem) { a.flowIn(g.Input(it.in), it.key) })
	n := 0
	for _, s := range a.sets {
		if s != nil {
			n++
		}
	}
	a.res.Sets = make(map[*vdg.Output]*PairSet, n)
	g.Outputs(func(o *vdg.Output) {
		if s := a.sets[o.ID]; s != nil {
			a.res.Sets[o] = s
		}
	})
	a.res.Stopped = out.Stopped
	a.res.Engine = *a.st
	a.res.Metrics = metricsFrom(a.st)
	return a.res
}

// flowOut adds the packed pair k to the set on out; new pairs are
// queued at every consumer. Outside a slice the pair is dropped before
// the meet, so Metrics counts only the work a sliced solve actually
// performed.
func (a *insensitive) flowOut(out *vdg.Output, k Key) {
	if a.slice != nil && !a.slice[out] {
		return
	}
	a.st.Meets++
	s := a.sets[out.ID]
	if s == nil {
		s = NewPairSet(a.u)
		a.sets[out.ID] = s
	}
	if !s.AddKey(k) {
		return
	}
	a.st.PairInserts++
	for _, in := range out.Consumers {
		a.eng.Push(workItem{in: in.ID, key: k})
	}
}

// keysAt returns the current set on src, packed.
func (a *insensitive) keysAt(src *vdg.Output) []Key {
	if s := a.sets[src.ID]; s != nil {
		return s.keys
	}
	return nil
}

// The transfer functions themselves (flow-in per node kind, call-edge
// repropagation) live in transfer.go.
