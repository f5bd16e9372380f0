package backend

import (
	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/paths"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// Arrival is one (cell, pair) worklist item: the packed pair Key was
// just added to the set of Cell's representative and must now be
// pushed through every constraint attached to that cell.
type Arrival struct {
	Cell CellID
	Key  core.Key
}

// System is the solving state both flow-insensitive backends share: the
// per-cell pair sets, the union-find over cells, the complex-constraint
// attachments, and the worklist engine. The backends differ only in how
// they treat Copy constraints — Andersen turns them into directed
// inclusion edges (and collapses cycles of them), Steensgaard unifies
// their endpoints up front — so copy handling stays in the subpackages
// and everything else (seeds, transforms, loads, stores, dynamic call
// discovery) lives here, once.
type System struct {
	Cons *Constraints
	UF   *UnionFind
	Eng  *solver.Engine[Arrival]
	St   *solver.Stats

	// Sets holds one pair set per cell, indexed by representative;
	// absorbed cells' slots are nil after a merge.
	Sets []*core.PairSet

	// Complex-constraint attachments, indexed by the cell playing the
	// constraint's source role; moved to the kept representative on
	// merge. Values are indices into the Cons slices. Each kind's lists
	// start as capacity-limited carves of one array, so a merge's
	// append copies out.
	XformsFrom    [][]int32
	LoadsFrom     [][]int32
	StoresLocFrom [][]int32
	StoresValFrom [][]int32
	CallsFrom     [][]int32

	// Callees/Callers is the call graph discovered from function
	// referents during the solve, in the same shape as core.Result.
	Callees map[*vdg.Node][]*vdg.FuncGraph
	Callers map[*vdg.FuncGraph][]*vdg.Node

	// OnMerge, when set, runs after the union-find merge of absorbed
	// into kept and before set re-propagation; the Andersen backend
	// moves its copy-edge adjacency here.
	OnMerge func(kept, absorbed CellID)
	// OnCallee runs once per newly discovered (call, callee) edge; the
	// backend materializes actual→formal and return→result flow.
	OnCallee func(n *vdg.Node, callee *vdg.FuncGraph)

	// Dereference-scan scratch for Complex (see scanFor): the scans of
	// the current arrival, and each cell's scan, by cell ID, plus one.
	scans  []matchScan
	scanOf []int32
}

// matchScan caches one dereference scan of one arrival over an
// append-only key list: the results of the keys examined so far, in
// key order. Loads that scan the same list replay its matches instead
// of re-deriving them, and a list that grew since the last load only
// has its new keys examined.
type matchScan struct {
	cell    CellID
	n       int
	matches []core.Key
}

// attachments indexes the constraints cons by the cell cell(c) names:
// list i holds, in constraint order, the indices of the constraints
// attached to cell i. The lists are carved from one array.
func attachments[T any](cells int, cons []T, cell func(T) CellID) [][]int32 {
	lists := make([][]int32, cells)
	if len(cons) == 0 {
		return lists
	}
	count := make([]int32, cells)
	for _, c := range cons {
		count[cell(c)]++
	}
	backing := make([]int32, len(cons))
	off := int32(0)
	for i, n := range count {
		if n > 0 {
			lists[i] = backing[off : off : off+n]
			off += n
		}
	}
	for i, c := range cons {
		id := cell(c)
		lists[id] = append(lists[id], int32(i))
	}
	return lists
}

// NewSystem extracts nothing itself — it wraps an already-extracted
// constraint system with fresh solving state under the given budget.
func NewSystem(cons *Constraints, budget limits.Budget) *System {
	n := cons.NumCells
	s := &System{
		Cons:          cons,
		UF:            NewUnionFind(n),
		Sets:          core.NewPairSets(cons.Graph.Universe, n),
		XformsFrom:    attachments(n, cons.Xforms, func(x Xform) CellID { return x.Src }),
		LoadsFrom:     attachments(n, cons.Loads, func(l Load) CellID { return l.Loc }),
		StoresLocFrom: attachments(n, cons.Stores, func(st Store) CellID { return st.Loc }),
		StoresValFrom: attachments(n, cons.Stores, func(st Store) CellID { return st.Val }),
		CallsFrom:     attachments(n, cons.Calls, func(cl Call) CellID { return cl.Fn }),
		Callees:       make(map[*vdg.Node][]*vdg.FuncGraph),
		Callers:       make(map[*vdg.FuncGraph][]*vdg.Node),
	}
	s.Eng = solver.New[Arrival](solver.Config{Budget: budget})
	s.St = s.Eng.Stats()
	s.St.Constraints = cons.Count()
	return s
}

// Find returns the current representative of c.
func (s *System) Find(c CellID) CellID { return s.UF.Find(c) }

// Set returns the pair set of c's representative.
func (s *System) Set(c CellID) *core.PairSet { return s.Sets[s.UF.Find(c)] }

// AddKey adds the packed pair k to c's representative set, queuing an
// arrival when it is new. This is the flow-out of the constraint
// solvers.
func (s *System) AddKey(c CellID, k core.Key) {
	r := s.UF.Find(c)
	s.St.Meets++
	if !s.Sets[r].AddKey(k) {
		return
	}
	s.St.PairInserts++
	s.Eng.Push(Arrival{Cell: r, Key: k})
}

// Seed installs the unconditional lower bounds (address-of and
// allocation constants).
func (s *System) Seed() {
	for _, sd := range s.Cons.Seeds {
		s.AddKey(sd.Cell, core.KeyOf(sd.Pair))
	}
}

// IsMarkerKey reports whether the referent of k is a diagnostics
// marker location (see core.IsMarkerRef).
func (s *System) IsMarkerKey(k core.Key) bool {
	return core.IsMarkerRef(s.Cons.Graph.Universe.ByID(k.RefID()))
}

// Merge unifies the classes of a and b: attachments and pairs of the
// absorbed side move to the kept representative, and every pair of the
// merged set is re-enqueued (the merged cell's attachment set grew, so
// pairs processed before the merge must see the new constraints).
// Reports the kept representative and whether a merge happened.
func (s *System) Merge(a, b CellID) (CellID, bool) {
	kept, absorbed := s.UF.Union(a, b)
	if kept == absorbed {
		return kept, false
	}
	s.XformsFrom[kept] = append(s.XformsFrom[kept], s.XformsFrom[absorbed]...)
	s.LoadsFrom[kept] = append(s.LoadsFrom[kept], s.LoadsFrom[absorbed]...)
	s.StoresLocFrom[kept] = append(s.StoresLocFrom[kept], s.StoresLocFrom[absorbed]...)
	s.StoresValFrom[kept] = append(s.StoresValFrom[kept], s.StoresValFrom[absorbed]...)
	s.CallsFrom[kept] = append(s.CallsFrom[kept], s.CallsFrom[absorbed]...)
	s.XformsFrom[absorbed] = nil
	s.LoadsFrom[absorbed] = nil
	s.StoresLocFrom[absorbed] = nil
	s.StoresValFrom[absorbed] = nil
	s.CallsFrom[absorbed] = nil
	if s.OnMerge != nil {
		s.OnMerge(kept, absorbed)
	}
	old := s.Sets[absorbed]
	s.Sets[absorbed] = nil
	for _, k := range old.Keys() {
		s.St.Meets++
		if s.Sets[kept].AddKey(k) {
			s.St.PairInserts++
		}
	}
	for _, k := range s.Sets[kept].Keys() {
		s.Eng.Push(Arrival{Cell: kept, Key: k})
	}
	return kept, true
}

// Complex pushes one arrival (packed pair k, now in the set of
// representative r) through every non-copy constraint attached to r.
// The formulas are the CI transfer functions of internal/core minus
// kills and flow: the same Dom/Subtract dereference, the same Append
// write, the same ε-offset and depth-0 guards on dynamic call
// discovery.
func (s *System) Complex(r CellID, k core.Key) {
	u := s.Cons.Graph.Universe
	if xs := s.XformsFrom[r]; len(xs) > 0 {
		p := core.Decode(u, k)
		for _, xi := range xs {
			x := s.Cons.Xforms[xi]
			if q, ok := x.Apply(u, p); ok {
				s.AddKey(x.Dst, core.KeyOf(q))
			}
		}
	}
	storeRep := s.UF.Find(StoreCell)
	if k.EmptyPath() {
		rl := u.ByID(k.RefID())
		// A new location referent dereferences every store pair it may
		// observe (lookup): the store is matched once, and each load
		// attached here replays the matches.
		if lis := s.LoadsFrom[r]; len(lis) > 0 {
			sc := s.scanFor(storeRep)
			for _, li := range lis {
				keys := s.Sets[storeRep].Keys()
				for _, ks := range keys[sc.n:] {
					if ps := u.ByID(ks.PathID()); paths.Dom(rl, ps) {
						sc.matches = append(sc.matches, core.PackKey(u.Subtract(ps, rl).ID(), ks.RefID()))
					}
				}
				sc.n = len(keys)
				dst := s.Cons.Loads[li].Dst
				for _, m := range sc.matches {
					s.AddKey(dst, m)
				}
			}
			s.endScans()
		}
		// … and writes every value pair at its new target (update).
		for _, si := range s.StoresLocFrom[r] {
			st := s.Cons.Stores[si]
			for _, kv := range s.Sets[s.UF.Find(st.Val)].Keys() {
				s.AddKey(StoreCell, core.PackKey(u.Append(rl, u.ByID(kv.PathID())).ID(), kv.RefID()))
			}
		}
		// A new function referent resolves an indirect call.
		if len(s.CallsFrom[r]) > 0 && rl.Depth() == 0 {
			if base := rl.Base(); base != nil {
				if callee := s.Cons.Graph.FuncByBase[base]; callee != nil {
					for _, ci := range s.CallsFrom[r] {
						s.addCallEdge(s.Cons.Calls[ci].Node, callee)
					}
				}
			}
		}
	}
	// A new value pair is written through every known target of its
	// update's location.
	if vs := s.StoresValFrom[r]; len(vs) > 0 {
		pv := u.ByID(k.PathID())
		for _, si := range vs {
			st := s.Cons.Stores[si]
			for _, kl := range s.Sets[s.UF.Find(st.Loc)].Keys() {
				if !kl.EmptyPath() {
					continue
				}
				s.AddKey(StoreCell, core.PackKey(u.Append(u.ByID(kl.RefID()), pv).ID(), k.RefID()))
			}
		}
	}
	// A new store pair is observed by every lookup whose location may
	// reach it. Loads attach conceptually to the single store cell, so
	// this visits them all — the price of the collapsed store — but
	// each location representative's set is scanned once per arrival
	// and the loads sharing it replay the matches.
	if r == storeRep {
		ps := u.ByID(k.PathID())
		for _, l := range s.Cons.Loads {
			rep := s.UF.Find(l.Loc)
			keys := s.Sets[rep].Keys()
			if len(keys) == 0 {
				continue
			}
			sc := s.scanFor(rep)
			for _, kl := range keys[sc.n:] {
				if !kl.EmptyPath() {
					continue
				}
				if rl := u.ByID(kl.RefID()); paths.Dom(rl, ps) {
					sc.matches = append(sc.matches, core.PackKey(u.Subtract(ps, rl).ID(), k.RefID()))
				}
			}
			sc.n = len(keys)
			for _, m := range sc.matches {
				s.AddKey(l.Dst, m)
			}
		}
		s.endScans()
	}
}

// scanFor returns the current arrival's scan of cell c's set, starting
// an empty one on first use. The pointer is valid until the next
// scanFor.
//
// Replaying a scan issues exactly the AddKey calls of a fresh scan:
// a set's keys are append-only, so the matches of its first n keys do
// not change, and a load extends the scan to the keys present when it
// starts, just as a fresh scan of the set would read them. The
// matches replay in key order, and Subtract interns each new path at
// its first match, as the fresh scan did.
func (s *System) scanFor(c CellID) *matchScan {
	if s.scanOf == nil {
		s.scanOf = make([]int32, s.Cons.NumCells)
	}
	if i := s.scanOf[c]; i > 0 {
		return &s.scans[i-1]
	}
	if len(s.scans) < cap(s.scans) {
		s.scans = s.scans[:len(s.scans)+1] // reuse the slot's matches array
	} else {
		s.scans = append(s.scans, matchScan{})
	}
	sc := &s.scans[len(s.scans)-1]
	sc.cell, sc.n, sc.matches = c, 0, sc.matches[:0]
	s.scanOf[c] = int32(len(s.scans))
	return sc
}

// endScans drops the current arrival's scans.
func (s *System) endScans() {
	for _, sc := range s.scans {
		s.scanOf[sc.cell] = 0
	}
	s.scans = s.scans[:0]
}

// addCallEdge records call → callee once and hands the flow
// materialization to the backend.
func (s *System) addCallEdge(n *vdg.Node, callee *vdg.FuncGraph) {
	for _, c := range s.Callees[n] {
		if c == callee {
			return
		}
	}
	s.Callees[n] = append(s.Callees[n], callee)
	s.Callers[callee] = append(s.Callers[callee], n)
	s.OnCallee(n, callee)
}

// Result materializes the solved state in the shape the CI analysis
// produces, so checkers, reports, and the oracle consume any backend's
// solution unchanged. Outputs of one merged cell share one *PairSet,
// exactly as the Weihl baseline shares its global store set.
func (s *System) Result(out solver.Outcome) *core.Result {
	n := 0
	s.Cons.Graph.Outputs(func(o *vdg.Output) {
		if s.Set(s.Cons.CellOf[o.ID]).Len() > 0 {
			n++
		}
	})
	res := &core.Result{
		Graph:   s.Cons.Graph,
		Sets:    make(map[*vdg.Output]*core.PairSet, n),
		Callees: s.Callees,
		Callers: s.Callers,
		Stopped: out.Stopped,
	}
	s.Cons.Graph.Outputs(func(o *vdg.Output) {
		if set := s.Set(s.Cons.CellOf[o.ID]); set.Len() > 0 {
			res.Sets[o] = set
		}
	})
	res.Engine = *s.St
	res.Metrics = core.Metrics{FlowIns: s.St.Steps, FlowOuts: s.St.Meets, Pairs: s.St.PairInserts}
	return res
}
