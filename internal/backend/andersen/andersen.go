// Package andersen implements the inclusion-constraint (subset-based)
// points-to backend: Andersen's analysis recast over the VDG's
// constraint extraction.
//
// Copy constraints become directed edges of a constraint graph and the
// solver runs difference propagation on the shared worklist engine:
// only newly added pairs cross an edge, never whole sets. The classic
// scaling hazard of inclusion solving — long chains and cycles of copy
// edges churning the same pairs — is countered with online cycle
// detection: a union-find over cells plus periodic Tarjan passes
// collapse every strongly connected component of unchecked copy edges
// into one cell, since all members of a copy cycle provably converge to
// the same set. Checked (guard-refinement) edges are excluded from the
// cycle graph: collapsing through a filter would bypass it.
package andersen

import (
	"aliaslab/internal/backend"
	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/vdg"
)

// sccEvery is the cycle-detection cadence: a Tarjan pass runs after
// this many dynamically added edges (call-flow edges are the only ones
// that appear mid-solve and the only way new cycles form).
const sccEvery = 32

// Analyze solves the inclusion-constraint system of g to its least
// fixpoint with no resource limits.
func Analyze(g *vdg.Graph) *core.Result {
	return AnalyzeBudgeted(g, limits.Budget{})
}

// AnalyzeBudgeted is Analyze under a resource budget.
func AnalyzeBudgeted(g *vdg.Graph, budget limits.Budget) *core.Result {
	cons := backend.Extract(g)
	a := &analysis{
		sys:         backend.NewSystem(cons, budget),
		succ:        make([][]backend.CellID, cons.NumCells),
		succChecked: make([][]backend.CellID, cons.NumCells),
		edges:       make([]map[int64]bool, cons.NumCells),
	}
	a.sys.OnMerge = a.onMerge
	a.sys.OnCallee = a.onCallee

	for _, cp := range cons.Copies {
		a.addEdge(cp.Src, cp.Dst, cp.Checked, false)
	}
	// Static cycles (loop-carried gammas, mutual pass-through) collapse
	// before any pair exists, so their members never churn.
	a.collapse()

	a.sys.Seed()
	out := a.sys.Eng.Run(a.transfer)
	return a.sys.Result(out)
}

// analysis carries the Andersen-specific state: the copy-edge
// adjacency. Everything else lives in the shared backend.System.
type analysis struct {
	sys *backend.System

	// succ / succChecked are the outgoing copy edges per cell
	// (destination IDs may be stale after merges; Find normalizes at
	// propagation time). Checked edges carry the marker filter.
	succ        [][]backend.CellID
	succChecked [][]backend.CellID
	// edges dedupes (dst, checked) per source cell.
	edges []map[int64]bool

	// edgesSince counts dynamic edges since the last cycle-detection
	// pass.
	edgesSince int

	// Tarjan scratch, reused by every collapse pass: per-cell DFS index
	// and lowlink (-1 = unvisited), the on-stack marks, the component
	// stack, and the explicit DFS frames.
	index, low []int32
	onStack    []bool
	stack      []backend.CellID
	frames     []frame
}

// frame is one DFS activation of collapse: the cell and the position
// of the next outgoing edge to follow.
type frame struct {
	v  backend.CellID
	ei int
}

// transfer pushes one arrival across the cell's copy edges, then
// through the shared complex constraints.
func (a *analysis) transfer(ar backend.Arrival) {
	r := a.sys.Find(ar.Cell)
	k := ar.Key
	for _, d := range a.succ[r] {
		if a.sys.Find(d) == r {
			continue // collapsed into the cycle; now a self-edge
		}
		a.sys.AddKey(d, k)
	}
	if len(a.succChecked[r]) > 0 && !a.sys.IsMarkerKey(k) {
		for _, d := range a.succChecked[r] {
			if a.sys.Find(d) == r {
				continue
			}
			a.sys.AddKey(d, k)
		}
	}
	a.sys.Complex(r, k)
}

// addEdge inserts the copy edge src→dst. flush re-propagates the
// source's current pairs across the new edge (needed for edges added
// mid-solve; static edges precede all pairs) and triggers the periodic
// cycle-detection pass.
func (a *analysis) addEdge(src, dst backend.CellID, checked, flush bool) {
	s, d := a.sys.Find(src), a.sys.Find(dst)
	if s == d {
		// A self copy is a no-op: unchecked adds nothing, and a checked
		// filter only ever drops pairs, so it cannot constrain its own
		// source.
		return
	}
	key := int64(d) << 1
	if checked {
		key |= 1
	}
	if a.edges[s] == nil {
		a.edges[s] = make(map[int64]bool)
	}
	if a.edges[s][key] {
		return
	}
	a.edges[s][key] = true
	if checked {
		a.succChecked[s] = append(a.succChecked[s], d)
	} else {
		a.succ[s] = append(a.succ[s], d)
	}
	a.sys.St.EdgesAdded++
	if !flush {
		return
	}
	for _, k := range a.sys.Set(s).Keys() {
		if checked && a.sys.IsMarkerKey(k) {
			continue
		}
		a.sys.AddKey(d, k)
	}
	a.edgesSince++
	if a.edgesSince >= sccEvery {
		a.edgesSince = 0
		a.collapse()
	}
}

// onMerge moves the absorbed cell's adjacency to the kept
// representative. Incoming edges still naming the absorbed ID are
// redirected by Find at propagation time; the dedup map tolerates the
// resulting stale keys (a duplicate edge re-propagates idempotently).
func (a *analysis) onMerge(kept, absorbed backend.CellID) {
	a.succ[kept] = append(a.succ[kept], a.succ[absorbed]...)
	a.succChecked[kept] = append(a.succChecked[kept], a.succChecked[absorbed]...)
	a.succ[absorbed], a.succChecked[absorbed] = nil, nil
	if a.edges[absorbed] != nil {
		if a.edges[kept] == nil {
			a.edges[kept] = a.edges[absorbed]
		} else {
			for k := range a.edges[absorbed] {
				a.edges[kept][k] = true
			}
		}
		a.edges[absorbed] = nil
	}
}

// onCallee materializes interprocedural flow for a newly discovered
// call edge as ordinary copy edges: actual → formal and return value →
// call result. The store needs none — caller and callee store are the
// same cell.
func (a *analysis) onCallee(n *vdg.Node, callee *vdg.FuncGraph) {
	cellOf := a.sys.Cons.CellOf
	for i, argIn := range vdg.CallArgs(n) {
		if i >= len(callee.ParamOuts) {
			break
		}
		a.addEdge(cellOf[argIn.Src.ID], cellOf[callee.ParamOuts[i].ID], false, true)
	}
	if rv := callee.ReturnValue(); rv != nil {
		if res := vdg.CallResultOut(n); res != nil {
			a.addEdge(cellOf[rv.ID], cellOf[res.ID], false, true)
		}
	}
}

// collapse runs one iterative Tarjan pass over the unchecked copy
// edges of the current representatives and merges every multi-node
// strongly connected component into a single cell. Components pop in
// reverse topological order, and a popped component merges before any
// of its predecessors finish, so later edge normalization through Find
// lands on the merged representative.
func (a *analysis) collapse() {
	n := len(a.succ)
	if a.index == nil {
		a.index = make([]int32, n)
		a.low = make([]int32, n)
		a.onStack = make([]bool, n)
	}
	index, low, onStack := a.index, a.low, a.onStack
	for i := range index {
		index[i] = -1
	}
	stack, frames := a.stack[:0], a.frames[:0]
	defer func() { a.stack, a.frames = stack, frames }()
	var next int32

	for root := 0; root < n; root++ {
		rv := a.sys.Find(backend.CellID(root))
		if rv != backend.CellID(root) || index[rv] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: rv})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei == 0 {
				index[v], low[v] = next, next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			descended := false
			for f.ei < len(a.succ[v]) {
				w := a.sys.Find(a.succ[v][f.ei])
				f.ei++
				if w == v {
					continue
				}
				if index[w] == -1 {
					frames = append(frames, frame{v: w})
					descended = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if descended {
				continue
			}
			if low[v] == index[v] {
				// The component is the stack above and including v;
				// it merges in pop order, top first.
				base := len(stack) - 1
				for stack[base] != v {
					base--
				}
				scc := stack[base:]
				stack = stack[:base]
				for _, w := range scc {
					onStack[w] = false
				}
				if len(scc) > 1 {
					a.sys.St.SCCsCollapsed++
					kept := scc[len(scc)-1]
					for i := len(scc) - 2; i >= 0; i-- {
						kept, _ = a.sys.Merge(kept, scc[i])
					}
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
		}
	}
}
