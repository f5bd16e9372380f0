package experiments_test

// Tests of the solver-engine plumbing through the batch layer: counter
// determinism, ledger accounting, and the opt-in JSON engine block.

import (
	"bytes"
	"strings"
	"testing"

	"aliaslab/internal/corpus"
	"aliaslab/internal/experiments"
	"aliaslab/internal/limits"
)

// TestEngineStatsDeterministic: two sequential runs of the same corpus
// batch produce identical engine counters on every unit — the counters
// are a pure function of the analysis, with no hidden iteration-order
// or timing dependence.
func TestEngineStatsDeterministic(t *testing.T) {
	run := func() []*experiments.ProgramResult {
		rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{WithCS: true, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	for i := range a {
		if a[i].CI.Engine != b[i].CI.Engine {
			t.Errorf("%s: CI engine stats differ across identical runs:\n  %+v\n  %+v", a[i].Name, a[i].CI.Engine, b[i].CI.Engine)
		}
		if a[i].CS.Engine != b[i].CS.Engine {
			t.Errorf("%s: CS engine stats differ across identical runs:\n  %+v\n  %+v", a[i].Name, a[i].CS.Engine, b[i].CS.Engine)
		}
	}
}

// TestLedgerMatchesEngineSteps: in a batch governed by a cap-less
// shared ledger, the pooled totals equal the exact sum of the per-run
// engine counters — the gate's in-loop charging plus the clean-drain
// flush account every item and every insert, no more, no less.
func TestLedgerMatchesEngineSteps(t *testing.T) {
	ledger := &limits.Ledger{}
	rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{
		WithCS: true,
		Jobs:   1,
		Budget: limits.Budget{}.Share(ledger),
	})
	if err != nil {
		t.Fatal(err)
	}
	var steps, pairs int
	for _, r := range rs {
		steps += r.CI.Engine.Steps + r.CS.Engine.Steps
		pairs += r.CI.Engine.PairInserts + r.CS.Engine.PairInserts
	}
	if got := ledger.Steps(); got != steps {
		t.Errorf("ledger pooled %d steps, per-unit engine counters sum to %d", got, steps)
	}
	if got := ledger.Pairs(); got != pairs {
		t.Errorf("ledger pooled %d pairs, per-unit engine counters sum to %d", got, pairs)
	}
}

// TestJSONEngineBlockOptIn: the default JSON bytes are unchanged by the
// engine feature, and the opt-in block appears only when requested.
func TestJSONEngineBlockOptIn(t *testing.T) {
	rs, err := experiments.RunBatch(corpus.Names()[:2], experiments.BatchOptions{WithCS: true, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var plain, withDefault, withStats bytes.Buffer
	if err := experiments.WriteJSON(&plain, rs); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteJSONWith(&withDefault, rs, experiments.JSONOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteJSONWith(&withStats, rs, experiments.JSONOptions{EngineStats: true}); err != nil {
		t.Fatal(err)
	}
	if plain.String() != withDefault.String() {
		t.Error("WriteJSONWith(zero options) differs from WriteJSON")
	}
	if strings.Contains(plain.String(), `"engine"`) {
		t.Error("default JSON carries the engine block without opt-in")
	}
	if !strings.Contains(withStats.String(), `"engine"`) || !strings.Contains(withStats.String(), `"steps": `) {
		t.Error("opt-in JSON is missing the engine block")
	}
}
