package query

import (
	"sort"
	"strings"
	"sync"

	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// Answer is the result of one query, rendered identically by the CLI
// (-format json), the server, and the facade. Every field is a
// deterministic function of (unit, query): referent lists and witnesses
// are canonically sorted, so memo hits, cache hits, and any -jobs width
// produce byte-identical answers.
type Answer struct {
	Query   string `json:"query"`
	Kind    string `json:"kind"`
	Verdict string `json:"verdict"` // mayalias: yes|no|unknown; pointsto: ok|unknown
	Reason  string `json:"reason,omitempty"`

	// Witness names an overlapping referent pair ("x ~ x.f") on a
	// mayalias yes.
	Witness string `json:"witness,omitempty"`

	// PointsTo lists the referent locations of a pointsto query.
	PointsTo []string `json:"points_to,omitempty"`

	Slice SliceStats `json:"slice"`
}

// stoppedReasonPrefix marks unknowns produced by a budget-stopped
// demand solve (see Degraded).
const stoppedReasonPrefix = "demand solve stopped: "

// Degraded reports whether the answer is an "unknown" forced by a
// tripped budget, as opposed to a semantic unknown (an expression with
// no live occurrence). Degraded answers are never memoized and should
// not be cached or treated as proofs by callers.
func (a Answer) Degraded() bool {
	return a.Verdict == "unknown" && strings.HasPrefix(a.Reason, stoppedReasonPrefix)
}

// SliceStats records what the demand solve touched, against the whole
// unit for scale. On a memo hit the slice numbers are those of the
// covering solve's accumulated footprint; Steps is 0 (no new work).
type SliceStats struct {
	Outputs         int  `json:"outputs"`
	TotalOutputs    int  `json:"total_outputs"`
	Procedures      int  `json:"procedures"`
	TotalProcedures int  `json:"total_procedures"`
	MemoHit         bool `json:"memo_hit"`
	Steps           int  `json:"steps"`
}

// Options configures an Engine.
type Options struct {
	// Budget bounds each demand solve; a tripped budget yields an
	// "unknown" verdict and installs nothing in the memo.
	Budget limits.Budget

	// Registry, when non-nil, receives the query counters
	// (query.slice.{outputs,procedures}, query.memo.{hits,misses}).
	Registry *obs.Registry
}

// Engine answers queries over one unit's VDG. It is safe for
// concurrent use; queries against overlapping slices share work through
// the memo. The memo holds the union of every solved slice: a solved
// backward-closed slice carries its exact final sets, so any later
// query whose anchors are all covered is answerable without solving.
type Engine struct {
	g    *vdg.Graph
	res  *resolver
	opts Options

	mu      sync.Mutex
	cg      *CallGraph
	covered map[*vdg.Output]bool
	sets    map[*vdg.Output]*core.PairSet
	// footprint of all solves so far, for memo-hit slice stats
	procs map[*vdg.FuncGraph]bool

	cSliceOutputs *obs.Counter
	cSliceProcs   *obs.Counter
	cMemoHits     *obs.Counter
	cMemoMisses   *obs.Counter
}

// New builds a query engine over g.
func New(g *vdg.Graph, opts Options) *Engine {
	e := &Engine{
		g:       g,
		res:     newResolver(g),
		opts:    opts,
		covered: make(map[*vdg.Output]bool),
		sets:    make(map[*vdg.Output]*core.PairSet),
		procs:   make(map[*vdg.FuncGraph]bool),
	}
	if reg := opts.Registry; reg != nil {
		// Volatile: totals depend on the query traffic the engine saw,
		// not on the unit alone.
		e.cSliceOutputs = reg.Counter("query.slice.outputs", obs.Volatile)
		e.cSliceProcs = reg.Counter("query.slice.procedures", obs.Volatile)
		e.cMemoHits = reg.Counter("query.memo.hits", obs.Volatile)
		e.cMemoMisses = reg.Counter("query.memo.misses", obs.Volatile)
	}
	return e
}

// MayAlias parses and answers mayalias(e1, e2).
func (e *Engine) MayAlias(e1, e2 string) (Answer, error) {
	q, err := Parse("mayalias(" + e1 + ", " + e2 + ")")
	if err != nil {
		return Answer{}, err
	}
	return e.Query(q)
}

// PointsTo parses and answers pointsto(expr).
func (e *Engine) PointsTo(expr string) (Answer, error) {
	q, err := Parse("pointsto(" + expr + ")")
	if err != nil {
		return Answer{}, err
	}
	return e.Query(q)
}

// QueryString parses and answers one query string.
func (e *Engine) QueryString(s string) (Answer, error) {
	q, err := Parse(s)
	if err != nil {
		return Answer{}, err
	}
	return e.Query(q)
}

// Resolve returns the anchor outputs of one expression (exported for
// the differential oracle and the metamorphic tests).
func (e *Engine) Resolve(x Expr) ([]*vdg.Output, error) { return e.res.anchors(x) }

// Query answers q. The error is reserved for malformed or unresolvable
// queries (unknown variable names); analysable queries always produce
// an Answer, degrading to verdict "unknown" when the expression has no
// live occurrence or the budget stopped the demand solve.
func (e *Engine) Query(q Query) (Answer, error) {
	anchors := make([][]*vdg.Output, len(q.Exprs))
	var all []*vdg.Output
	for i, x := range q.Exprs {
		a, err := e.res.anchors(x)
		if err != nil {
			return Answer{}, err
		}
		anchors[i] = a
		all = append(all, a...)
	}

	for i, a := range anchors {
		if len(a) == 0 {
			ans := emptyAnswer(q)
			ans.Reason = "no live occurrence of " + q.Exprs[i].String()
			e.mu.Lock()
			ans.Slice = e.memoStatsLocked()
			e.mu.Unlock()
			return ans, nil
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()

	st, stopped := e.ensureCoveredLocked(all)
	if stopped != nil {
		ans := emptyAnswer(q)
		ans.Reason = stoppedReasonPrefix + stopped.Error()
		ans.Slice = st
		return ans, nil
	}

	ans := Evaluate(q, anchors, func(o *vdg.Output) *core.PairSet {
		if s, ok := e.sets[o]; ok {
			return s
		}
		return &core.PairSet{}
	})
	ans.Slice = st
	return ans, nil
}

// ensureCoveredLocked makes every anchor's final set available in
// e.sets, solving a fresh backward slice on a memo miss. It reports
// the slice stats of this query and, on a budget trip, the violation
// (in which case nothing was installed).
func (e *Engine) ensureCoveredLocked(anchors []*vdg.Output) (SliceStats, *limits.Violation) {
	hit := true
	for _, o := range anchors {
		if !e.covered[o] {
			hit = false
			break
		}
	}
	if hit {
		if e.cMemoHits != nil {
			e.cMemoHits.Add(1)
		}
		return e.memoStatsLocked(), nil
	}
	if e.cMemoMisses != nil {
		e.cMemoMisses.Add(1)
	}

	if e.cg == nil {
		e.cg = BuildCallGraph(e.g)
	}
	sl := SliceFor(e.g, e.cg, anchors)
	res := core.AnalyzeDemand(e.g, core.DemandOptions{
		Slice:  sl.Outputs,
		Budget: e.opts.Budget,
	})
	st := SliceStats{
		Outputs:         len(sl.Outputs),
		TotalOutputs:    e.g.OutputCount(),
		Procedures:      len(sl.Procedures),
		TotalProcedures: len(e.g.Funcs),
		Steps:           res.Engine.Steps,
	}
	if e.cSliceOutputs != nil {
		e.cSliceOutputs.Add(int64(len(sl.Outputs)))
		e.cSliceProcs.Add(int64(len(sl.Procedures)))
	}
	if res.Stopped != nil {
		return st, res.Stopped
	}
	// A converged solve over a backward-closed slice yields the exact
	// whole-program sets for every output in it — install all of them,
	// not just the anchors, so overlapping queries hit.
	for o := range sl.Outputs {
		e.covered[o] = true
		if s, ok := res.Sets[o]; ok {
			e.sets[o] = s
		}
	}
	for fg := range sl.Procedures {
		e.procs[fg] = true
	}
	return st, nil
}

// memoStatsLocked reports the accumulated memo footprint (used for
// hits and for queries answered without solving).
func (e *Engine) memoStatsLocked() SliceStats {
	return SliceStats{
		Outputs:         len(e.covered),
		TotalOutputs:    e.g.OutputCount(),
		Procedures:      len(e.procs),
		TotalProcedures: len(e.g.Funcs),
		MemoHit:         true,
		Steps:           0,
	}
}

func emptyAnswer(q Query) Answer {
	ans := Answer{Query: q.String(), Kind: q.Kind.String(), Verdict: "unknown"}
	return ans
}

// Evaluate computes the answer content (verdict, witness, points-to
// list) from per-expression anchor sets and a pair-set lookup. It is
// exported so the metamorphic suite can evaluate the same query against
// exhaustive or backend (Andersen/Steensgaard) results and check
// monotonicity; the engine itself evaluates against its memo.
func Evaluate(q Query, anchors [][]*vdg.Output, pairs func(*vdg.Output) *core.PairSet) Answer {
	ans := Answer{Query: q.String(), Kind: q.Kind.String()}
	switch q.Kind {
	case KindPointsTo:
		refs := referentsOf(anchors[0], pairs)
		ans.Verdict = "ok"
		ans.PointsTo = make([]string, 0, len(refs))
		for _, r := range refs {
			ans.PointsTo = append(ans.PointsTo, r.String())
		}
		sort.Strings(ans.PointsTo)
	case KindMayAlias:
		r1 := referentsOf(anchors[0], pairs)
		r2 := referentsOf(anchors[1], pairs)
		witness := ""
		for _, a := range r1 {
			if core.IsMarkerRef(a) {
				continue
			}
			for _, b := range r2 {
				if core.IsMarkerRef(b) {
					continue
				}
				if !paths.Dom(a, b) && !paths.Dom(b, a) {
					continue
				}
				w := witnessString(a, b)
				if witness == "" || w < witness {
					witness = w
				}
			}
		}
		if witness != "" {
			ans.Verdict = "yes"
			ans.Witness = witness
		} else {
			ans.Verdict = "no"
		}
	}
	return ans
}

// referentsOf unions the referent sets of the anchors, deduplicated,
// in deterministic (anchor ID, first-appearance) order.
func referentsOf(anchors []*vdg.Output, pairs func(*vdg.Output) *core.PairSet) []*paths.Path {
	seen := make(map[*paths.Path]bool)
	var refs []*paths.Path
	for _, o := range anchors {
		for _, r := range pairs(o).Referents() {
			if !seen[r] {
				seen[r] = true
				refs = append(refs, r)
			}
		}
	}
	return refs
}

// witnessString renders an overlapping referent pair canonically
// (lexicographically ordered sides).
func witnessString(a, b *paths.Path) string {
	s1, s2 := a.String(), b.String()
	if s2 < s1 {
		s1, s2 = s2, s1
	}
	if s1 == s2 {
		return s1
	}
	return s1 + " ~ " + s2
}
