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
	// paper could only run it on the smallest examples. It is folded
	// into Budget.MaxSteps: the smaller positive cap applies, and a
	// trip reports a Steps violation either way.
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
	// checked before every flow-in. When the budget trips, the analysis
	// stops with Aborted and Stopped set.
	Budget limits.Budget
}

// budget folds MaxSteps into Budget: the smaller positive step cap
// applies.
func (o SensitiveOptions) budget() limits.Budget {
	b := o.Budget
	if o.MaxSteps > 0 && (b.MaxSteps <= 0 || o.MaxSteps < b.MaxSteps) {
		b.MaxSteps = o.MaxSteps
	}
	return b
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

	// Engine is the solver-engine counter record of the run.
	Engine solver.Stats

	// Aborted is set when MaxSteps or the budget was exhausted (exactly
	// when Stopped is non-nil); results are then an under-approximation
	// of the fixpoint and must not be used for precision comparisons or
	// as a sound may-alias answer.
	Aborted bool

	// Stopped identifies the limit that aborted the analysis (nil when
	// the fixpoint converged).
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
	key     Key
	a       *ASet
	isStore bool
	next    int32
}

// retList is one need's entry list: the first and last entry indices.
type retList struct{ first, last int32 }

// sensitive is the qualifier state of one context-sensitive solve: the
// assumption sets, the qualified sets, and what the CS hooks of the
// shared transfer functions (transfer.go) need. Like the CI solver it
// keeps its tables by dense ID: qsets by Output.ID
// (SensitiveResult.QSets is built from it at the end), the CI facts by
// Node.ID, retNeeds by the formal's Output.ID.
type sensitive struct {
	at             *ATable
	maxAssumptions int

	eng *solver.Engine[qItem]

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

	// Scratch reused across transfer functions: snapKeys and snapQuals
	// hold the factsAt snapshot (no rule holds two), combos and spare
	// the assumption-set products of returnAssumptions.
	snapKeys      []Key
	snapQuals     []*ASet
	combos, spare []*ASet
}

// AnalyzeSensitive runs the maximally context-sensitive analysis of
// [Ruf95, Figure 5], qualified-pair propagation with assumption sets,
// using the context-insensitive result (when provided) to prune
// assumption introduction without affecting precision (§4.2).
func AnalyzeSensitive(g *vdg.Graph, opts SensitiveOptions) *SensitiveResult {
	res := &SensitiveResult{
		Graph:   g,
		Callees: make(map[*vdg.Node][]*vdg.FuncGraph),
		Callers: make(map[*vdg.FuncGraph][]*vdg.Node),
		Widened: opts.MaxAssumptions > 0,
	}
	c := &sensitive{
		at:             NewATable(),
		maxAssumptions: opts.MaxAssumptions,
		eng:            solver.New[qItem](opts.budget()),
		qsets:          make([]*QSet, g.OutputCount()),
		retNeeds:       make([]map[Key]retList, g.OutputCount()),
	}
	a := &analysis{
		g:       g,
		u:       g.Universe,
		st:      c.eng.Stats(),
		callees: res.Callees,
		callers: res.Callers,
		cs:      c,
	}
	if opts.CI != nil {
		c.ciFacts(g, opts.CI)
	}
	a.seed(c.at.EmptySet())
	stopped := c.eng.Run(func(it qItem) { a.flowIn(g.Input(it.in), it.key, it.a) })
	res.QSets = byOutput(g, c.qsets)
	res.Aborted = stopped != nil
	res.Stopped = stopped
	res.Engine = *a.st
	return res
}

// ciFacts records, per lookup and update node, the CI location
// referents (the ε-path referents of its location input) and whether
// there is at most one. The referent lists share one backing array.
func (c *sensitive) ciFacts(g *vdg.Graph, ci *Result) {
	u := g.Universe
	c.singleLoc = make([]bool, g.NodeCount())
	c.ciLocRefs = make([][]*paths.Path, g.NodeCount())
	var refs []*paths.Path
	for _, fg := range g.Funcs {
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
			c.singleLoc[n.ID] = len(refs)-l <= 1
			if len(refs) > l {
				c.ciLocRefs[n.ID] = refs[l:len(refs):len(refs)]
			}
		}
	}
}

// bound enforces the widening threshold by truncating oversized sets
// (a sound weakening: fewer assumptions means the pair holds more
// broadly).
func (c *sensitive) bound(s *ASet) *ASet {
	k := c.maxAssumptions
	if k <= 0 || s.Len() <= k {
		return s
	}
	return c.at.Make(s.Elems[:k]...)
}

// qualifiedFlowOut is the CS meet: it adds the qualified pair (k, q)
// to the set on out unless a weaker assumption set already holds it
// there (subsumption), and queues it at every consumer when it
// survives.
func (a *analysis) qualifiedFlowOut(out *vdg.Output, k Key, q *ASet) {
	c := a.cs
	a.st.Meets++
	q = c.bound(q)
	s := c.qsets[out.ID]
	if s == nil {
		s = c.newQSet(a.u)
		c.qsets[out.ID] = s
	}
	added, dropped := s.addKey(k, q)
	if !added {
		a.st.SubsumeHits++
		return // subsumed: already holds under weaker assumptions
	}
	a.st.SubsumeDrops += dropped
	a.st.PairInserts++
	for _, in := range out.Consumers {
		c.eng.Push(qItem{in: in.ID, key: k, a: q})
	}
}

// qsetChunk is the number of sets in one chunk of newQSet, and
// qsetCap the number of pairs each holds before its first allocation
// (most outputs end the solve with at most four).
const qsetChunk, qsetCap = 64, 4

// newQSet hands out an empty set from the solver's chunks. Its key and
// antichain slices are capacity-limited carves, so the append that
// outgrows one copies out instead of writing into the next set's.
func (c *sensitive) newQSet(u *paths.Universe) *QSet {
	if len(c.qslab) == 0 {
		c.qslab = make([]QSet, qsetChunk)
		c.keySlab = make([]Key, qsetChunk*qsetCap)
		c.oneSlab = make([]*ASet, qsetChunk*qsetCap)
	}
	s := &c.qslab[0]
	s.set.u = u
	s.set.keys = c.keySlab[:0:qsetCap]
	s.one = c.oneSlab[:0:qsetCap]
	c.qslab, c.keySlab, c.oneSlab = c.qslab[1:], c.keySlab[qsetCap:], c.oneSlab[qsetCap:]
	return s
}

// snapshot copies the qualified pairs on src, packed, into the
// solver's snapshot buffers, which the next call overwrites. A rule
// may add to src while it reads the copy: on a recursive call an
// actual can be the callee's own formal, and an arrival there may
// displace an antichain entry the rule has yet to visit.
func (c *sensitive) snapshot(src *vdg.Output) ([]Key, []*ASet) {
	c.snapKeys, c.snapQuals = c.snapKeys[:0], c.snapQuals[:0]
	if s := c.qsets[src.ID]; s != nil {
		c.snapKeys, c.snapQuals = s.appendFacts(c.snapKeys, c.snapQuals)
	}
	return c.snapKeys, c.snapQuals
}

// The CS hooks of the shared transfer functions. Under CI (a.cs ==
// nil) each is the identity; each keeps its CS work out of line, so
// the CI test inlines into the rules. indexReturn and retriggerReturns
// run only under CS.

// union joins the qualifiers of the two facts a lookup or an update
// combines: the result holds only where both held.
func (a *analysis) union(x, y *ASet) *ASet {
	if a.cs == nil {
		return nil
	}
	return a.cs.at.Union(x, y)
}

// locAssumptions implements §4.2 optimization 1: when the CI analysis
// proved the operation references a single location, the location is
// context-invariant and its assumptions need not be tracked.
func (a *analysis) locAssumptions(n *vdg.Node, al *ASet) *ASet {
	if a.cs != nil && a.cs.singleLoc != nil && a.cs.singleLoc[n.ID] {
		return a.cs.at.EmptySet()
	}
	return al
}

// ciUnmodifiable implements §4.2 optimization 2: a store pair whose path
// cannot be modified by any CI-possible location of this update passes
// through without new location assumptions.
func (a *analysis) ciUnmodifiable(n *vdg.Node, k Key) bool {
	return a.cs != nil && a.cs.unmodifiable(n, a.u, k)
}

// unmodifiable reports whether no CI location referent of update n
// can modify the store pair k (false without CI facts).
func (c *sensitive) unmodifiable(n *vdg.Node, u *paths.Universe, k Key) bool {
	if c.ciLocRefs == nil {
		return false
	}
	refs := c.ciLocRefs[n.ID]
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
	p := u.ByID(k.PathID())
	for _, r := range refs {
		if paths.Dom(r, p) {
			return false
		}
	}
	return true
}

// formalAssumption is the qualifier of a fact entering a callee on
// formal. Under CS the caller's assumptions are replaced by the single
// assumption that the pair holds on the formal; under CI it is q.
func (a *analysis) formalAssumption(formal *vdg.Output, k Key, q *ASet) *ASet {
	if a.cs == nil {
		return q
	}
	return a.cs.formalAssumption(formal, a.u, k)
}

// formalAssumption interns {(formal, k)}.
func (c *sensitive) formalAssumption(formal *vdg.Output, u *paths.Universe, k Key) *ASet {
	return c.at.Make(Assumption{Formal: formal, P: Decode(u, k)})
}

// ciQualifier is the one qualifier a CI fact returns under.
var ciQualifier = []*ASet{nil}

// returnAssumptions implements the paper's propagate-return: the
// qualifiers under which a fact returned under q holds at call site
// call. Under CI it is q's one qualifier.
func (a *analysis) returnAssumptions(call *vdg.Node, q *ASet) []*ASet {
	if a.cs == nil {
		return ciQualifier
	}
	return a.cs.returnAssumptions(call, q)
}

// returnAssumptions collects, for each assumption on the returned
// pair, the assumption sets under which the assumed pair holds on the
// corresponding actual at this call site; the Cartesian product of
// those collections is every caller assumption set sufficient to
// satisfy the callee's assumptions. The result is the solver's buffer,
// valid until the next call.
func (c *sensitive) returnAssumptions(call *vdg.Node, q *ASet) []*ASet {
	combos, spare := append(c.combos[:0], c.at.EmptySet()), c.spare[:0]
	defer func() { c.combos, c.spare = combos, spare }()
	for _, asm := range q.Elems {
		src := actualFor(call, asm.Formal)
		if src == nil {
			return nil // arity mismatch: unsatisfiable at this site
		}
		qs := c.qsets[src.ID]
		if qs == nil {
			return nil
		}
		sets := qs.Sets(asm.P)
		if len(sets) == 0 {
			return nil // the assumed pair does not hold at this call site
		}
		spare = spare[:0]
		for _, x := range combos {
			for _, s := range sets {
				spare = append(spare, c.at.Union(x, s))
			}
		}
		combos, spare = spare, combos
	}
	return combos
}

// retriggerReturns re-runs propagate-return at call site n for exactly
// the return pairs that carry an assumption (formal, k) — the ones a
// new actual pair can newly satisfy. CS only.
func (a *analysis) retriggerReturns(n *vdg.Node, formal *vdg.Output, k Key) {
	c := a.cs
	l, ok := c.retNeeds[formal.ID][k]
	if !ok {
		return
	}
	for i := l.first; i >= 0; i = c.retEntries[i].next {
		e := c.retEntries[i]
		if target := returnTarget(n, e.isStore); target != nil {
			for _, x := range c.returnAssumptions(n, e.a) {
				a.flowOut(target, e.key, x)
			}
		}
	}
}

// indexReturn records a return-sink pair under every assumption it
// carries. CS only.
func (a *analysis) indexReturn(k Key, q *ASet, isStore bool) {
	c := a.cs
	for _, asm := range q.Elems {
		byPair := c.retNeeds[asm.Formal.ID]
		if byPair == nil {
			byPair = make(map[Key]retList)
			c.retNeeds[asm.Formal.ID] = byPair
		}
		i := int32(len(c.retEntries))
		c.retEntries = append(c.retEntries, retEntry{key: k, a: q, isStore: isStore, next: -1})
		ak := KeyOf(asm.P)
		if l, ok := byPair[ak]; ok {
			c.retEntries[l.last].next = i
			byPair[ak] = retList{l.first, i}
		} else {
			byPair[ak] = retList{i, i}
		}
	}
}

// actualFor maps a callee formal output to the feeding output at a call
// site (the store input for the store formal, argument i for parameter
// formal i), or nil when the call does not supply it.
func actualFor(call *vdg.Node, formal *vdg.Output) *vdg.Output {
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
