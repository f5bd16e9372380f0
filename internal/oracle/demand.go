package oracle

import (
	"fmt"

	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/query"
	"aliaslab/internal/vdg"
)

// DemandOptions configures CheckDemand.
type DemandOptions struct {
	// MaxPairs caps the sampled anchor pairs per unit (0 = the default
	// of 40). Sampling is a deterministic stride over the variable
	// pairs, so the same unit always checks the same queries.
	MaxPairs int
}

func (o DemandOptions) maxPairs() int {
	if o.MaxPairs > 0 {
		return o.MaxPairs
	}
	return 40
}

// CheckDemand asserts the demand-driven query engine's correctness
// contract on one unit, against the exhaustive CI fixpoint:
//
//   - per-output equality on the slice: for sampled variable pairs
//     (the anchor sets a mayalias query would use), the demand solve
//     over the backward-closed slice computes exactly the exhaustive
//     sets for EVERY output in the slice — not only the anchors;
//   - confinement: the demand solve writes nothing outside its slice;
//   - end-to-end agreement: the memoizing query engine's answer equals
//     the answer evaluated over the exhaustive sets, for both query
//     kinds, including on memo hits.
//
// Violations carry the query so a failing unit delta-debugs into a
// reproducer (the population test shrinks the source with corpusgen).
func CheckDemand(name string, u *driver.Unit, opts DemandOptions) []Violation {
	var vs []Violation
	add := func(invariant, format string, args ...any) {
		vs = append(vs, Violation{Program: name, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	exh := core.AnalyzeInsensitive(u.Graph)
	eng := query.New(u.Graph, query.Options{})
	cg := query.BuildCallGraph(u.Graph)
	exprs := query.VarExprs(u.Graph, 0)

	resolve := func(x query.Expr) []*vdg.Output {
		a, err := eng.Resolve(x)
		if err != nil {
			add("demand-resolve", "resolve %s: %v", x, err)
			return nil
		}
		return a
	}

	checkPair := func(x1, x2 query.Expr) {
		a1, a2 := resolve(x1), resolve(x2)
		anchors := append(append([]*vdg.Output(nil), a1...), a2...)
		if len(anchors) == 0 {
			return
		}
		sl := query.SliceFor(u.Graph, cg, anchors)
		dem := core.AnalyzeDemand(u.Graph, core.DemandOptions{Slice: sl.Outputs})
		if dem.Stopped != nil {
			add("demand-converges", "unbudgeted demand solve stopped: %v", dem.Stopped)
			return
		}
		// Equality on the whole slice, both directions.
		for o := range sl.Outputs {
			ds, es := dem.Pairs(o), exh.Pairs(o)
			for _, k := range es.Keys() {
				if !ds.HasKey(k) {
					add("demand-equals-exhaustive-on-slice",
						"query (%s, %s): exhaustive pair %v on %s node at %s missing from demand solve",
						x1, x2, es.Pair(k), o.Node.Kind, o.Node.Pos)
					return
				}
			}
			for _, k := range ds.Keys() {
				if !es.HasKey(k) {
					add("demand-subset-exhaustive",
						"query (%s, %s): demand pair %v on %s node at %s not in exhaustive fixpoint",
						x1, x2, ds.Pair(k), o.Node.Kind, o.Node.Pos)
					return
				}
			}
		}
		// Confinement: nothing written outside the slice.
		for o, s := range dem.Sets {
			if !sl.Outputs[o] && s.Len() > 0 {
				add("demand-confined-to-slice",
					"query (%s, %s): demand solve wrote %d pairs outside its slice (%s node at %s)",
					x1, x2, s.Len(), o.Node.Kind, o.Node.Pos)
				return
			}
		}
		// End-to-end: the memoizing engine (possibly answering from a
		// previous pair's slice) agrees with the exhaustive evaluation.
		// An expression with no live occurrence answers "unknown" by
		// design, so the comparison needs both sides anchored.
		if len(a1) > 0 && len(a2) > 0 {
			q := query.Query{Kind: query.KindMayAlias, Exprs: []query.Expr{x1, x2}}
			got, err := eng.Query(q)
			if err != nil {
				add("demand-answers", "%s: %v", q, err)
				return
			}
			want := query.Evaluate(q, [][]*vdg.Output{a1, a2}, exh.Pairs)
			if got.Verdict != want.Verdict || got.Witness != want.Witness {
				add("demand-answer-equals-exhaustive", "%s: demand %s(%s) vs exhaustive %s(%s)",
					q, got.Verdict, got.Witness, want.Verdict, want.Witness)
			}
		}
		for k, x := range []query.Expr{x1, x2} {
			a := a1
			if k == 1 {
				a = a2
			}
			if len(a) == 0 {
				continue
			}
			pq := query.Query{Kind: query.KindPointsTo, Exprs: []query.Expr{x}}
			got, err := eng.Query(pq)
			if err != nil {
				add("demand-answers", "%s: %v", pq, err)
				continue
			}
			want := query.Evaluate(pq, [][]*vdg.Output{a}, exh.Pairs)
			if fmt.Sprint(got.PointsTo) != fmt.Sprint(want.PointsTo) {
				add("demand-answer-equals-exhaustive", "%s: demand %v vs exhaustive %v",
					pq, got.PointsTo, want.PointsTo)
			}
		}
	}

	// Deterministic stride sample over the variable pairs.
	n := len(exprs)
	total := n * (n + 1) / 2
	stride := 1
	if max := opts.maxPairs(); total > max {
		stride = (total + max - 1) / max
	}
	idx := 0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if idx%stride == 0 {
				checkPair(exprs[i], exprs[j])
			}
			idx++
			if len(vs) > 0 {
				return vs // first failing query is the reproducer
			}
		}
	}
	return vs
}
