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

	// Engine is the solver-engine counter record of the run (strategy,
	// steps, meets, subsumption, worklist depth).
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

// workItem is one (input, pair) arrival, as in the paper's worklist.
type workItem struct {
	in   *vdg.Input
	pair Pair
}

// topoPriority assigns each VDG input its scheduling key for the
// Priority strategy: creation order over functions, nodes, and inputs,
// which approximates a topological order of the acyclic core of the
// graph (earlier nodes feed later ones).
func topoPriority(g *vdg.Graph) map[*vdg.Input]int {
	pri := make(map[*vdg.Input]int)
	order := 0
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			for _, in := range n.Inputs {
				pri[in] = order
				order++
			}
		}
	}
	return pri
}

// engineConfig assembles the solver configuration shared by both
// analyses' item types.
func engineConfig[T any](g *vdg.Graph, strategy solver.Strategy, budget limits.Budget, maxSteps int, input func(T) *vdg.Input) solver.Config[T] {
	cfg := solver.Config[T]{Strategy: strategy, Budget: budget, MaxSteps: maxSteps}
	if strategy == solver.Priority {
		pri := topoPriority(g)
		cfg.Prio = func(item T) int { return pri[input(item)] }
	}
	return cfg
}

// insensitive is the analysis state of one context-insensitive solve.
// slice, when non-nil, restricts the solve to a set of outputs (see
// AnalyzeDemand): pairs land only on slice members, so seeding and
// propagation never touch the rest of the graph.
type insensitive struct {
	g     *vdg.Graph
	slice map[*vdg.Output]bool
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
	return AnalyzeInsensitiveEngine(g, budget, solver.FIFO)
}

// AnalyzeInsensitiveEngine is the fully configured entry point: the
// analysis runs on the shared solver engine under the given budget and
// worklist strategy. Every strategy converges to the same fixpoint;
// FIFO is the reference discipline for golden outputs.
func AnalyzeInsensitiveEngine(g *vdg.Graph, budget limits.Budget, strategy solver.Strategy) *Result {
	return solveInsensitive(g, nil, budget, strategy)
}

// solveInsensitive runs the fixpoint, over the whole graph when slice
// is nil and over the slice's outputs otherwise.
func solveInsensitive(g *vdg.Graph, slice map[*vdg.Output]bool, budget limits.Budget, strategy solver.Strategy) *Result {
	a := &insensitive{
		g:     g,
		slice: slice,
		res: &Result{
			Graph:   g,
			Sets:    make(map[*vdg.Output]*PairSet),
			Callees: make(map[*vdg.Node][]*vdg.FuncGraph),
			Callers: make(map[*vdg.FuncGraph][]*vdg.Node),
		},
		eng: solver.New(engineConfig(g, strategy, budget, 0, func(it workItem) *vdg.Input { return it.in })),
	}
	a.st = a.eng.Stats()
	empty := g.Universe.Empty()

	// Seed: every base-location constant points to its location (within
	// a slice, flowOut drops the constants outside it).
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KAddr || n.Kind == vdg.KAlloc {
				a.flowOut(n.Outputs[0], Pair{Path: empty, Ref: n.Path})
			}
		}
	}

	out := a.eng.Run(func(it workItem) { a.flowIn(it.in, it.pair) })
	a.res.Stopped = out.Stopped
	a.res.Engine = *a.st
	a.res.Metrics = metricsFrom(a.st)
	return a.res
}

// flowOut adds pair to the set on out; new pairs are queued at every
// consumer. Outside a slice the pair is dropped before the meet, so
// Metrics counts only the work a sliced solve actually performed.
func (a *insensitive) flowOut(out *vdg.Output, pair Pair) {
	if a.slice != nil && !a.slice[out] {
		return
	}
	a.st.Meets++
	s, ok := a.res.Sets[out]
	if !ok {
		s = &PairSet{}
		a.res.Sets[out] = s
	}
	if !s.Add(pair) {
		return
	}
	a.st.PairInserts++
	for _, in := range out.Consumers {
		a.eng.Push(workItem{in: in, pair: pair})
	}
}

// pairsAt returns the current set on the source feeding in.
func (a *insensitive) pairsAt(src *vdg.Output) []Pair {
	if s, ok := a.res.Sets[src]; ok {
		return s.List()
	}
	return nil
}

// The transfer functions themselves (flow-in per node kind, call-edge
// repropagation) live in transfer.go.
