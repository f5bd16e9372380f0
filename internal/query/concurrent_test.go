package query_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/query"
	"aliaslab/internal/vdg"
)

// renderSets reads every pair set of res through each PairSet read
// path — key iteration with decoding, List, Sorted, Has, Referents —
// and renders what it saw.
func renderSets(g *vdg.Graph, res *core.Result) string {
	var sb strings.Builder
	g.Outputs(func(o *vdg.Output) {
		s := res.Pairs(o)
		if s.Len() == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s:", o)
		for _, k := range s.Keys() {
			fmt.Fprintf(&sb, " %s", s.Pair(k))
		}
		for i, p := range s.List() {
			if !s.Has(p) || s.Pair(s.Keys()[i]) != p {
				fmt.Fprintf(&sb, " LIST-MISMATCH@%d", i)
			}
		}
		fmt.Fprintf(&sb, " | %v | %v\n", s.Sorted(), s.Referents())
	})
	return sb.String()
}

// TestConcurrentResultReaders has eight goroutines read one solved
// result through every PairSet read path while they share one query
// engine over the same graph. Under -race it fails if a read fills a
// decode cache lazily or reads the universe's ID table unsynchronised
// against a demand solve.
func TestConcurrentResultReaders(t *testing.T) {
	const workers = 8
	u, err := corpus.Load("bc", vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The reference comes from a second, identical solve, so the
	// workers are the first to read res.
	serial := core.AnalyzeInsensitive(u.Graph)
	big := 0
	for _, s := range serial.Sets {
		if s.Len() > 16 {
			big++
		}
	}
	if big == 0 {
		t.Fatal("no pair set outgrows the scan threshold; the test would not read an index")
	}
	want := renderSets(u.Graph, serial)
	res := core.AnalyzeInsensitive(u.Graph)

	exprs := query.VarExprs(u.Graph, workers+1)
	if len(exprs) < workers+1 {
		t.Fatalf("only %d variable expressions", len(exprs))
	}
	queryOf := func(w int) query.Query {
		return query.Query{Kind: query.KindMayAlias, Exprs: []query.Expr{exprs[w], exprs[w+1]}}
	}
	ref := query.New(u.Graph, query.Options{})
	wantAns := make([]string, workers)
	for w := range wantAns {
		ans, err := ref.Query(queryOf(w))
		if err != nil {
			t.Fatal(err)
		}
		ans.Slice = query.SliceStats{}
		b, _ := json.Marshal(ans)
		wantAns[w] = string(b)
	}

	shared := query.New(u.Graph, query.Options{})
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if got := renderSets(u.Graph, res); got != want {
				errs[w] = "concurrent read of the solved result differs from the serial one"
				return
			}
			ans, err := shared.Query(queryOf(w))
			if err != nil {
				errs[w] = err.Error()
				return
			}
			ans.Slice = query.SliceStats{}
			if b, _ := json.Marshal(ans); string(b) != wantAns[w] {
				errs[w] = fmt.Sprintf("answer %s, want %s", b, wantAns[w])
				return
			}
			if got := renderSets(u.Graph, res); got != want {
				errs[w] = "read after the query differs from the serial one"
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
}
