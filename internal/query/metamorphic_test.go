package query_test

import (
	"encoding/json"
	"testing"

	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/query"
	"aliaslab/internal/vdg"
)

// maxMetamorphicExprs caps the variable list per unit so the pair
// loops stay affordable across the whole corpus.
const maxMetamorphicExprs = 12

// MayAlias must be symmetric: swapping the expressions changes the
// canonical query string but never the verdict or the witness.
func TestMayAliasSymmetric(t *testing.T) {
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := query.New(u.Graph, query.Options{})
		exprs := query.VarExprs(u.Graph, maxMetamorphicExprs)
		for i := 0; i < len(exprs); i++ {
			for j := i + 1; j < len(exprs); j++ {
				ab, err := e.Query(query.Query{Kind: query.KindMayAlias, Exprs: []query.Expr{exprs[i], exprs[j]}})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ba, err := e.Query(query.Query{Kind: query.KindMayAlias, Exprs: []query.Expr{exprs[j], exprs[i]}})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ab.Verdict != ba.Verdict || ab.Witness != ba.Witness {
					t.Errorf("%s: mayalias(%s,%s)=%s(%s) but mayalias(%s,%s)=%s(%s)",
						name, exprs[i], exprs[j], ab.Verdict, ab.Witness,
						exprs[j], exprs[i], ba.Verdict, ba.Witness)
				}
			}
		}
	}
}

// MayAlias must be reflexive: an expression with at least one referent
// trivially aliases itself.
func TestMayAliasReflexive(t *testing.T) {
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := query.New(u.Graph, query.Options{})
		for _, x := range query.VarExprs(u.Graph, 0) {
			pt, err := e.Query(query.Query{Kind: query.KindPointsTo, Exprs: []query.Expr{x}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			self, err := e.Query(query.Query{Kind: query.KindMayAlias, Exprs: []query.Expr{x, x}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if pt.Verdict == "ok" && len(pt.PointsTo) > 0 && self.Verdict != "yes" {
				t.Errorf("%s: pointsto(%s)=%v but mayalias(%s,%s)=%s",
					name, x, pt.PointsTo, x, x, self.Verdict)
			}
		}
	}
}

// Widening monotonicity: a "yes" under the demand CI sets must stay
// "yes" under Andersen, and a "yes" under Andersen must stay "yes"
// under Steensgaard (CI ⊆ Andersen ⊆ Steensgaard per output, so alias
// answers can only widen from no to yes along the chain).
func TestMayAliasMonotoneUnderWidening(t *testing.T) {
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := query.New(u.Graph, query.Options{})
		and := andersen.Analyze(u.Graph)
		st := steensgaard.Analyze(u.Graph)
		exprs := query.VarExprs(u.Graph, maxMetamorphicExprs)
		for i := 0; i < len(exprs); i++ {
			for j := i; j < len(exprs); j++ {
				q := query.Query{Kind: query.KindMayAlias, Exprs: []query.Expr{exprs[i], exprs[j]}}
				a1, err1 := e.Resolve(exprs[i])
				a2, err2 := e.Resolve(exprs[j])
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: resolve: %v %v", name, err1, err2)
				}
				if len(a1) == 0 || len(a2) == 0 {
					continue
				}
				ci, err := e.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				anchors := [][]*vdg.Output{a1, a2}
				av := query.Evaluate(q, anchors, and.Pairs).Verdict
				sv := query.Evaluate(q, anchors, st.Pairs).Verdict
				if ci.Verdict == "yes" && av != "yes" {
					t.Errorf("%s: %s: CI yes but Andersen %s", name, q, av)
				}
				if av == "yes" && sv != "yes" {
					t.Errorf("%s: %s: Andersen yes but Steensgaard %s", name, q, sv)
				}
			}
		}
	}
}

// Memo-hit answers must be byte-identical to cold answers: a fresh
// engine (cold solve) and a warmed engine (second query answered from
// the memo) render the same JSON apart from the slice stats, and
// concurrent queries on one shared engine agree with both.
func TestMemoHitByteIdentical(t *testing.T) {
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exprs := query.VarExprs(u.Graph, maxMetamorphicExprs)
		if len(exprs) < 2 {
			continue
		}
		q := query.Query{Kind: query.KindMayAlias, Exprs: []query.Expr{exprs[0], exprs[1]}}

		cold := query.New(u.Graph, query.Options{})
		first, err := cold.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := cold.Query(q) // memo hit on the same engine
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !second.Slice.MemoHit && first.Verdict != "unknown" {
			t.Errorf("%s: %s: repeat query did not hit the memo", name, q)
		}
		first.Slice, second.Slice = query.SliceStats{}, query.SliceStats{}
		fb, _ := json.Marshal(first)
		sb, _ := json.Marshal(second)
		if string(fb) != string(sb) {
			t.Errorf("%s: memo hit differs from cold:\n%s\n%s", name, fb, sb)
		}

		// Concurrent queries on one fresh engine answer identically: one
		// goroutine solves under the engine's lock, the others wait for
		// it and answer from the memo. This is the engine's documented
		// concurrency contract — several engines over one unit would
		// share its path universe, which is not safe for concurrent use.
		shared := query.New(u.Graph, query.Options{})
		results := make([]query.Answer, 4)
		done := make(chan int)
		for w := 0; w < 4; w++ {
			go func(w int) {
				ans, qerr := shared.Query(q)
				if qerr == nil {
					ans.Slice = query.SliceStats{}
					results[w] = ans
				}
				done <- w
			}(w)
		}
		for w := 0; w < 4; w++ {
			<-done
		}
		for w := 1; w < 4; w++ {
			wb, _ := json.Marshal(results[w])
			if string(wb) != string(fb) {
				t.Errorf("%s: worker %d answer differs:\n%s\n%s", name, w, wb, fb)
			}
		}
	}
}

// The demand answer is always an under-approximation question: every
// demand referent must appear in the exhaustive fixpoint's referents
// (and, on converged slices, vice versa — that stronger equality is
// oracle.CheckDemand's job).
func TestDemandPointsToSubsetOfExhaustive(t *testing.T) {
	for _, name := range corpus.Names() {
		u, err := corpus.Load(name, vdg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exh := core.AnalyzeInsensitive(u.Graph)
		e := query.New(u.Graph, query.Options{})
		for _, x := range query.VarExprs(u.Graph, 0) {
			q := query.Query{Kind: query.KindPointsTo, Exprs: []query.Expr{x}}
			got, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			anchors, _ := e.Resolve(x)
			want := query.Evaluate(q, [][]*vdg.Output{anchors}, exh.Pairs)
			wantSet := make(map[string]bool, len(want.PointsTo))
			for _, r := range want.PointsTo {
				wantSet[r] = true
			}
			for _, r := range got.PointsTo {
				if !wantSet[r] {
					t.Errorf("%s: pointsto(%s): demand referent %s not in exhaustive answer %v",
						name, x, r, want.PointsTo)
				}
			}
		}
	}
}
