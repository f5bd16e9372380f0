package core

import (
	"slices"

	"aliaslab/internal/limits"
	"aliaslab/internal/paths"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// SensitiveOptions configures the context-sensitive analysis.
type SensitiveOptions struct {
	// CI supplies the context-insensitive result used by the §4.2
	// pruning optimizations. When nil the optimizations are disabled
	// and the analysis runs in its unoptimized (much slower) form.
	CI *Result

	// MaxSteps aborts the analysis after this many flow-in applications
	// (0 = unlimited). The unoptimized algorithm is exponential; the
	// paper could only run it on the smallest examples.
	MaxSteps int

	// MaxAssumptions, when positive, bounds assumption-set sizes the way
	// [LR92]-style systems do (paper §4.2: such systems "must
	// arbitrarily choose which assumptions to discard when the bound is
	// reached"). Discarding assumptions soundly weakens a qualified
	// pair — it then holds in more contexts — so the bounded analysis
	// over-approximates the unbounded one, trading precision for a
	// polynomially bounded context space. Sets are truncated to their
	// first MaxAssumptions elements in canonical order.
	MaxAssumptions int

	// Budget adds resource limits (step/pair caps, wall-clock deadline)
	// checked before every flow-in, on top of MaxSteps. When the budget
	// trips, the analysis stops with Aborted and Stopped set. A
	// positive Budget.MaxAssumptions also enables widening, as if set
	// via the MaxAssumptions field above (the larger of the two wins
	// nothing — the smaller positive bound applies).
	Budget limits.Budget
}

// effectiveMaxAssumptions merges the two ways to request widening.
func (o SensitiveOptions) effectiveMaxAssumptions() int {
	k := o.MaxAssumptions
	if b := o.Budget.MaxAssumptions; b > 0 && (k <= 0 || b < k) {
		k = b
	}
	return k
}

// SensitiveResult is the output of the context-sensitive analysis.
type SensitiveResult struct {
	Graph *vdg.Graph
	QSets map[*vdg.Output]*QSet

	// Callees/Callers: the call graph. Function values are propagated
	// context-insensitively, as in the paper (§4.1: assumptions on
	// function values were not implemented; verified harmless).
	Callees map[*vdg.Node][]*vdg.FuncGraph
	Callers map[*vdg.FuncGraph][]*vdg.Node

	Metrics Metrics

	// Engine is the solver-engine counter record of the run.
	Engine solver.Stats

	// Aborted is set when MaxSteps or the budget was exhausted; results
	// are then an under-approximation of the fixpoint and must not be
	// used for precision comparisons or as a sound may-alias answer.
	Aborted bool

	// Stopped identifies the budget limit that aborted the analysis
	// (nil when the fixpoint converged, or when only the legacy
	// MaxSteps bound tripped).
	Stopped *limits.Violation

	// Widened reports that assumption-set widening was active: the
	// result is a sound over-approximation of the exact
	// context-sensitive fixpoint (but still at least as precise as the
	// context-insensitive one on stripped pairs).
	Widened bool
}

// QPairs returns the qualified pair set of o (possibly empty, never nil).
func (r *SensitiveResult) QPairs(o *vdg.Output) *QSet {
	if s, ok := r.QSets[o]; ok {
		return s
	}
	return &QSet{}
}

// Strip computes the ordinary points-to pairs on each output by removing
// assumption sets and deduplicating (§4.1, final paragraph). A QSet's
// plain pairs already are a PairSet, so each stripped set is a copy of
// it: the keys in the same order, the index as built. The copies share
// one key array, each capacity-limited to its own keys.
func (r *SensitiveResult) Strip() map[*vdg.Output]*PairSet {
	out := make(map[*vdg.Output]*PairSet, len(r.QSets))
	n := 0
	for _, qs := range r.QSets {
		n += len(qs.set.keys)
	}
	sets := make([]PairSet, 0, len(r.QSets))
	keys := make([]Key, 0, n)
	for o, qs := range r.QSets {
		l := len(keys)
		keys = append(keys, qs.set.keys...)
		sets = append(sets, PairSet{u: r.Graph.Universe, keys: keys[l:len(keys):len(keys)], index: slices.Clone(qs.set.index)})
		out[o] = &sets[len(sets)-1]
	}
	return out
}

// qItem is one (input, qualified-pair) arrival: the input by ID and
// the plain pair packed, so only the assumption set is a pointer.
type qItem struct {
	in  int
	key Key
	a   *ASet
}

// retEntry is one qualified pair at a function's return sink, tagged
// with which return input (store or value) it arrived on. Entries
// filed under one (formal, pair) need form a list in arrival order,
// linked through next (an index into sensitive.retEntries, -1 ends it).
type retEntry struct {
	q       QPair
	isStore bool
	next    int32
}

// retList is one need's entry list: the first and last entry indices.
type retList struct{ first, last int32 }

// sensitive is the analysis state of one context-sensitive solve. Like
// the CI solver it keeps its tables by dense ID: qsets by Output.ID
// (SensitiveResult.QSets is built from it at the end), the CI facts by
// Node.ID, retNeeds by the formal's Output.ID.
type sensitive struct {
	g    *vdg.Graph
	res  *SensitiveResult
	at   *ATable
	opts SensitiveOptions

	// maxAssumptions is the resolved widening threshold (0 = exact).
	maxAssumptions int

	eng *solver.Engine[qItem]
	st  *solver.Stats

	qsets []*QSet

	// Chunks the qsets come from (see newQSet): unused sets, and the
	// key and antichain arrays their first qsetCap pairs are carved
	// from.
	qslab   []QSet
	keySlab []Key
	oneSlab []*ASet

	// CI-derived node facts for the optimizations, nil without CI.
	singleLoc []bool          // lookup/update references ≤1 location
	ciLocRefs [][]*paths.Path // CI location referents per lookup/update

	// retNeeds indexes the qualified pairs at each function's return
	// sink by the (formal, pair) assumptions they carry, so that a new
	// actual pair at a call site only re-triggers propagate-return for
	// the return pairs whose assumptions it can newly satisfy (instead
	// of re-running every return pair, which dominates the running time
	// on recursion-heavy programs).
	retNeeds   []map[Key]retList
	retEntries []retEntry

	// Scratch reused across transfer functions: snap holds the
	// qpairsAt snapshot (no caller nests two), combos and spare the
	// assumption-set products of propagateReturn.
	snap          []QPair
	combos, spare []*ASet
}

// AnalyzeSensitive runs the maximally context-sensitive analysis of
// [Ruf95, Figure 5], qualified-pair propagation with assumption sets,
// using the context-insensitive result (when provided) to prune
// assumption introduction without affecting precision (§4.2).
func AnalyzeSensitive(g *vdg.Graph, opts SensitiveOptions) *SensitiveResult {
	a := &sensitive{
		g: g,
		res: &SensitiveResult{
			Graph:   g,
			Callees: make(map[*vdg.Node][]*vdg.FuncGraph),
			Callers: make(map[*vdg.FuncGraph][]*vdg.Node),
		},
		at:             NewATable(),
		opts:           opts,
		maxAssumptions: opts.effectiveMaxAssumptions(),
		eng:            solver.New[qItem](solver.Config{Budget: opts.Budget, MaxSteps: opts.MaxSteps}),
		qsets:          make([]*QSet, g.OutputIDs()),
		retNeeds:       make([]map[Key]retList, g.OutputIDs()),
	}
	a.st = a.eng.Stats()
	a.res.Widened = a.maxAssumptions > 0
	if opts.CI != nil {
		a.ciFacts(opts.CI)
	}

	empty := g.Universe.Empty()
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KAddr || n.Kind == vdg.KAlloc {
				a.flowOut(n.Outputs[0], QPair{P: Pair{Path: empty, Ref: n.Path}, A: a.at.EmptySet()})
			}
		}
	}

	u := g.Universe
	out := a.eng.Run(func(it qItem) {
		a.flowIn(g.Input(it.in), QPair{P: Decode(u, it.key), A: it.a})
	})
	n := 0
	for _, s := range a.qsets {
		if s != nil {
			n++
		}
	}
	a.res.QSets = make(map[*vdg.Output]*QSet, n)
	g.Outputs(func(o *vdg.Output) {
		if s := a.qsets[o.ID]; s != nil {
			a.res.QSets[o] = s
		}
	})
	a.res.Aborted = out.Aborted
	a.res.Stopped = out.Stopped
	a.res.Engine = *a.st
	a.res.Metrics = metricsFrom(a.st)
	return a.res
}

// ciFacts records, per lookup and update node, the CI location
// referents (the ε-path referents of its location input) and whether
// there is at most one. The referent lists share one backing array.
func (a *sensitive) ciFacts(ci *Result) {
	u := a.g.Universe
	a.singleLoc = make([]bool, a.g.NodeIDs())
	a.ciLocRefs = make([][]*paths.Path, a.g.NodeIDs())
	var refs []*paths.Path
	for _, fg := range a.g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind != vdg.KLookup && n.Kind != vdg.KUpdate {
				continue
			}
			l := len(refs)
			if s := ci.Sets[n.Loc()]; s != nil {
				for _, k := range s.keys {
					if k.EmptyPath() {
						refs = append(refs, u.ByID(k.RefID()))
					}
				}
			}
			a.singleLoc[n.ID] = len(refs)-l <= 1
			if len(refs) > l {
				a.ciLocRefs[n.ID] = refs[l:len(refs):len(refs)]
			}
		}
	}
}

// bound enforces the widening threshold by truncating oversized sets
// (a sound weakening: fewer assumptions means the pair holds more
// broadly).
func (a *sensitive) bound(s *ASet) *ASet {
	k := a.maxAssumptions
	if k <= 0 || s.Len() <= k {
		return s
	}
	return a.at.Make(s.Elems[:k]...)
}

func (a *sensitive) flowOut(out *vdg.Output, q QPair) {
	a.st.Meets++
	q.A = a.bound(q.A)
	s := a.qsets[out.ID]
	if s == nil {
		s = a.newQSet()
		a.qsets[out.ID] = s
	}
	k := KeyOf(q.P)
	added, dropped := s.addKey(k, q.A)
	if !added {
		a.st.SubsumeHits++
		return // subsumed: already holds under weaker assumptions
	}
	a.st.SubsumeDrops += dropped
	a.st.PairInserts++
	for _, in := range out.Consumers {
		a.eng.Push(qItem{in: in.ID, key: k, a: q.A})
	}
}

// qsetChunk is the number of sets in one chunk of newQSet, and
// qsetCap the number of pairs each holds before its first allocation
// (most outputs end the solve with at most four).
const qsetChunk, qsetCap = 64, 4

// newQSet hands out an empty set from the solver's chunks. Its key and
// antichain slices are capacity-limited carves, so the append that
// outgrows one copies out instead of writing into the next set's.
func (a *sensitive) newQSet() *QSet {
	if len(a.qslab) == 0 {
		a.qslab = make([]QSet, qsetChunk)
		a.keySlab = make([]Key, qsetChunk*qsetCap)
		a.oneSlab = make([]*ASet, qsetChunk*qsetCap)
	}
	s := &a.qslab[0]
	s.set.u = a.g.Universe
	s.set.keys = a.keySlab[:0:qsetCap]
	s.one = a.oneSlab[:0:qsetCap]
	a.qslab, a.keySlab, a.oneSlab = a.qslab[1:], a.keySlab[qsetCap:], a.oneSlab[qsetCap:]
	return s
}

// qpairsAt snapshots the qualified pairs on src into the solver's
// snapshot buffer, which the next call overwrites.
func (a *sensitive) qpairsAt(src *vdg.Output) []QPair {
	a.snap = a.snap[:0]
	if s := a.qsets[src.ID]; s != nil {
		a.snap = s.appendAll(a.snap)
	}
	return a.snap
}

func (a *sensitive) flowIn(in *vdg.Input, q QPair) {
	n := in.Node
	switch n.Kind {
	case vdg.KLookup:
		a.lookupFlow(n, in, q)
	case vdg.KUpdate:
		a.updateFlow(n, in, q)
	case vdg.KCall:
		a.callFlow(n, in, q)
	case vdg.KReturn:
		a.returnFlow(n, in, q)
	case vdg.KGamma:
		a.flowOut(n.Outputs[0], q)
	case vdg.KPrimop:
		if n.Transparent {
			if n.Op == vdg.OpChecked && IsMarkerRef(q.P.Ref) {
				return
			}
			a.flowOut(n.Outputs[0], q)
		}
	case vdg.KAlloc:
		a.flowOut(n.Outputs[0], q)
	case vdg.KFree:
		if in.Index == 1 {
			a.flowOut(n.Outputs[0], q)
		}
	case vdg.KFieldAddr:
		if q.P.Path.IsEmptyOffset() {
			var ref *paths.Path
			if n.Transparent {
				ref = a.g.Universe.UnionField(q.P.Ref, n.Field)
			} else {
				ref = a.g.Universe.Field(q.P.Ref, n.Field)
			}
			a.flowOut(n.Outputs[0], QPair{P: Pair{Path: q.P.Path, Ref: ref}, A: q.A})
		}
	case vdg.KIndexAddr:
		if q.P.Path.IsEmptyOffset() {
			a.flowOut(n.Outputs[0], QPair{P: Pair{Path: q.P.Path, Ref: a.g.Universe.Index(q.P.Ref)}, A: q.A})
		}
	case vdg.KExtract:
		want := paths.Op{Field: n.Field, Union: n.Transparent}
		if op, ok := q.P.Path.FirstOp(); ok && op.Overlaps(want) {
			tail := a.g.Universe.TailAfterFirst(q.P.Path)
			a.flowOut(n.Outputs[0], QPair{P: Pair{Path: tail, Ref: q.P.Ref}, A: q.A})
		}
	}
}

// locAssumptions implements §4.2 optimization 1: when the CI analysis
// proved the operation references a single location, the location is
// context-invariant and its assumptions need not be tracked.
func (a *sensitive) locAssumptions(n *vdg.Node, al *ASet) *ASet {
	if a.singleLoc != nil && a.singleLoc[n.ID] {
		return a.at.EmptySet()
	}
	return al
}

func (a *sensitive) lookupFlow(n *vdg.Node, in *vdg.Input, q QPair) {
	u := a.g.Universe
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location
		if !q.P.Path.IsEmptyOffset() {
			return
		}
		rl := q.P.Ref
		al := a.locAssumptions(n, q.A)
		for _, qs := range a.qpairsAt(n.StoreIn()) {
			if paths.Dom(rl, qs.P.Path) {
				a.flowOut(out, QPair{
					P: Pair{Path: u.Subtract(qs.P.Path, rl), Ref: qs.P.Ref},
					A: a.at.Union(al, qs.A),
				})
			}
		}
	case 1: // store
		for _, ql := range a.qpairsAt(n.Loc()) {
			if !ql.P.Path.IsEmptyOffset() {
				continue
			}
			if paths.Dom(ql.P.Ref, q.P.Path) {
				al := a.locAssumptions(n, ql.A)
				a.flowOut(out, QPair{
					P: Pair{Path: u.Subtract(q.P.Path, ql.P.Ref), Ref: q.P.Ref},
					A: a.at.Union(al, q.A),
				})
			}
		}
	}
}

// ciUnmodifiable implements §4.2 optimization 2: a store pair whose path
// cannot be modified by any CI-possible location of this update passes
// through without new location assumptions.
func (a *sensitive) ciUnmodifiable(n *vdg.Node, p *paths.Path) bool {
	if a.ciLocRefs == nil {
		return false
	}
	refs := a.ciLocRefs[n.ID]
	if len(refs) == 0 {
		// A CI-dead update: no referent ever reaches its location input,
		// so the CI analysis (and the exact CS analysis) block every
		// store pair at it — the [CWZ90] dual-worklist behaviour.
		// Passing pairs through here would push the optimized CS
		// solution outside CI's, breaking both the CS ⊆ CI lattice and
		// the §4.2 precision-neutrality claim. Found by corpusgen
		// differential testing on updates through never-assigned
		// pointers.
		return false
	}
	for _, r := range refs {
		if paths.Dom(r, p) {
			return false
		}
	}
	return true
}

func (a *sensitive) updateFlow(n *vdg.Node, in *vdg.Input, q QPair) {
	u := a.g.Universe
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location
		if !q.P.Path.IsEmptyOffset() {
			return
		}
		rl := q.P.Ref
		al := a.locAssumptions(n, q.A)
		for _, qv := range a.qpairsAt(n.Value()) {
			a.flowOut(out, QPair{
				P: Pair{Path: u.Append(rl, qv.P.Path), Ref: qv.P.Ref},
				A: a.at.Union(al, qv.A),
			})
		}
		for _, qs := range a.qpairsAt(n.StoreIn()) {
			if a.ciUnmodifiable(n, qs.P.Path) {
				// Optimization 2 handles these on arrival; re-emitting
				// per location would only add redundant assumptions.
				continue
			}
			if !paths.StrongDom(rl, qs.P.Path) {
				a.flowOut(out, QPair{P: qs.P, A: a.at.Union(al, qs.A)})
			}
		}
	case 1: // store
		if a.ciUnmodifiable(n, q.P.Path) {
			a.flowOut(out, q)
			return
		}
		for _, ql := range a.qpairsAt(n.Loc()) {
			if !ql.P.Path.IsEmptyOffset() {
				continue
			}
			if !paths.StrongDom(ql.P.Ref, q.P.Path) {
				al := a.locAssumptions(n, ql.A)
				a.flowOut(out, QPair{P: q.P, A: a.at.Union(al, q.A)})
			}
		}
	case 2: // value
		for _, ql := range a.qpairsAt(n.Loc()) {
			if !ql.P.Path.IsEmptyOffset() {
				continue
			}
			al := a.locAssumptions(n, ql.A)
			a.flowOut(out, QPair{
				P: Pair{Path: u.Append(ql.P.Ref, q.P.Path), Ref: q.P.Ref},
				A: a.at.Union(al, q.A),
			})
		}
	}
}

// callFlow introduces fresh assumption sets at call boundaries: a pair
// entering a callee holds only under the assumption that it held on the
// corresponding formal.
func (a *sensitive) callFlow(n *vdg.Node, in *vdg.Input, q QPair) {
	switch in.Index {
	case 0: // function values stay context-insensitive
		if !q.P.Path.IsEmptyOffset() || q.P.Ref.Depth() != 0 {
			return
		}
		callee := a.g.FuncByBase[q.P.Ref.Base()]
		if callee == nil {
			return
		}
		a.addCallEdge(n, callee)
	case 1: // store
		for _, callee := range a.res.Callees[n] {
			a.propagateToFormal(callee.StoreParam, q)
			// A new store pair may satisfy return assumptions that were
			// previously unsatisfiable at this call site (Figure 5).
			a.retriggerReturns(n, callee.StoreParam, q.P)
		}
	default: // actuals
		argIdx := in.Index - 2
		for _, callee := range a.res.Callees[n] {
			if argIdx < len(callee.ParamOuts) {
				a.propagateToFormal(callee.ParamOuts[argIdx], q)
				a.retriggerReturns(n, callee.ParamOuts[argIdx], q.P)
			}
		}
	}
}

// propagateToFormal enters a qualified pair into a callee: the caller's
// assumptions are replaced by the single assumption that the pair holds
// on the formal.
func (a *sensitive) propagateToFormal(formal *vdg.Output, q QPair) {
	a.flowOut(formal, QPair{P: q.P, A: a.at.Make(Assumption{Formal: formal, P: q.P})})
}

// reproplicateReturns re-runs propagate-return for every qualified pair
// currently at the callee's return sink, targeted at call site n (used
// when a whole new call edge appears).
func (a *sensitive) reproplicateReturns(n *vdg.Node, callee *vdg.FuncGraph) {
	if rs := callee.ReturnStore(); rs != nil {
		for _, q := range a.qpairsAt(rs) {
			a.propagateReturn(n, vdg.CallStoreOut(n), q)
		}
	}
	if rv := callee.ReturnValue(); rv != nil {
		if res := vdg.CallResultOut(n); res != nil {
			for _, q := range a.qpairsAt(rv) {
				a.propagateReturn(n, res, q)
			}
		}
	}
}

// retriggerReturns re-runs propagate-return at call site n for exactly
// the return pairs that carry an assumption (formal, pair) — the ones a
// new actual pair can newly satisfy.
func (a *sensitive) retriggerReturns(n *vdg.Node, formal *vdg.Output, pair Pair) {
	l, ok := a.retNeeds[formal.ID][KeyOf(pair)]
	if !ok {
		return
	}
	for i := l.first; i >= 0; i = a.retEntries[i].next {
		e := a.retEntries[i]
		if e.isStore {
			a.propagateReturn(n, vdg.CallStoreOut(n), e.q)
		} else if res := vdg.CallResultOut(n); res != nil {
			a.propagateReturn(n, res, e.q)
		}
	}
}

// indexReturn records a return-sink pair under every assumption it
// carries.
func (a *sensitive) indexReturn(q QPair, isStore bool) {
	for _, asm := range q.A.Elems {
		byPair := a.retNeeds[asm.Formal.ID]
		if byPair == nil {
			byPair = make(map[Key]retList)
			a.retNeeds[asm.Formal.ID] = byPair
		}
		i := int32(len(a.retEntries))
		a.retEntries = append(a.retEntries, retEntry{q: q, isStore: isStore, next: -1})
		k := KeyOf(asm.P)
		if l, ok := byPair[k]; ok {
			a.retEntries[l.last].next = i
			byPair[k] = retList{l.first, i}
		} else {
			byPair[k] = retList{i, i}
		}
	}
}

func (a *sensitive) addCallEdge(n *vdg.Node, callee *vdg.FuncGraph) {
	for _, c := range a.res.Callees[n] {
		if c == callee {
			return
		}
	}
	a.res.Callees[n] = append(a.res.Callees[n], callee)
	a.res.Callers[callee] = append(a.res.Callers[callee], n)

	for _, q := range a.qpairsAt(n.StoreIn()) {
		a.propagateToFormal(callee.StoreParam, q)
	}
	for i, argIn := range vdg.CallArgs(n) {
		if i >= len(callee.ParamOuts) {
			break
		}
		for _, q := range a.qpairsAt(argIn.Src) {
			a.propagateToFormal(callee.ParamOuts[i], q)
		}
	}
	a.reproplicateReturns(n, callee)
}

func (a *sensitive) returnFlow(n *vdg.Node, in *vdg.Input, q QPair) {
	fg := n.Fn
	a.indexReturn(q, in.Index == 0)
	for _, call := range a.res.Callers[fg] {
		switch in.Index {
		case 0:
			a.propagateReturn(call, vdg.CallStoreOut(call), q)
		case 1:
			if res := vdg.CallResultOut(call); res != nil {
				a.propagateReturn(call, res, q)
			}
		}
	}
}

// propagateReturn implements the paper's propagate-return: for each
// assumption on the returned pair, collect the assumption sets under
// which the assumed pair holds on the corresponding actual at this call
// site; the Cartesian product of those collections yields every caller
// assumption set sufficient to satisfy the callee's assumptions.
func (a *sensitive) propagateReturn(call *vdg.Node, target *vdg.Output, q QPair) {
	combos, spare := append(a.combos[:0], a.at.EmptySet()), a.spare[:0]
	defer func() { a.combos, a.spare = combos, spare }()
	for _, asm := range q.A.Elems {
		src := a.actualFor(call, asm.Formal)
		if src == nil {
			return // arity mismatch: unsatisfiable at this site
		}
		qs := a.qsets[src.ID]
		if qs == nil {
			return
		}
		sets := qs.Sets(asm.P)
		if len(sets) == 0 {
			return // the assumed pair does not hold at this call site
		}
		spare = spare[:0]
		for _, c := range combos {
			for _, s := range sets {
				spare = append(spare, a.at.Union(c, s))
			}
		}
		combos, spare = spare, combos
	}
	for _, c := range combos {
		a.flowOut(target, QPair{P: q.P, A: c})
	}
}

// actualFor maps a callee formal output to the feeding output at a call
// site (the store input for the store formal, argument i for parameter
// formal i), or nil when the call does not supply it.
func (a *sensitive) actualFor(call *vdg.Node, formal *vdg.Output) *vdg.Output {
	fn := formal.Node.Fn
	if formal.Node.Kind == vdg.KStoreParam {
		return call.StoreIn()
	}
	for i, po := range fn.ParamOuts {
		if po == formal {
			args := vdg.CallArgs(call)
			if i < len(args) {
				return args[i].Src
			}
			return nil
		}
	}
	return nil
}
