package aliaslab_test

// Regression test for the seed-11 vet reproducer: the diagnostics-
// instrumented CI solve of one generated unit does not converge in
// practical time (DESIGN §7), so a step budget must stop it cleanly and
// the facade must hand back a degraded (partial-solution) answer.

import (
	"context"
	"testing"
	"time"

	"aliaslab"
	"aliaslab/internal/core"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/limits"
	"aliaslab/internal/vdg"
)

// seed11Unit is the unit `corpusgen -n 1001 -seed 11 -dir d` writes as
// d/gen-s11-i0633.c.
func seed11Unit(t *testing.T) corpusgen.Program {
	t.Helper()
	p := corpusgen.Generate(11, 633, corpusgen.SweepKnobs(11, 633))
	if p.Name != "gen-s11-i0633" {
		t.Fatalf("unit name %q, want gen-s11-i0633", p.Name)
	}
	return p
}

func TestSeed11DiagnosticsSolveStopsUnderStepBudget(t *testing.T) {
	const maxSteps = 200000
	p := seed11Unit(t)

	plain, err := p.Load(vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := core.AnalyzeInsensitive(plain.Graph); res.Stopped != nil {
		t.Fatalf("plain solve stopped: %v", res.Stopped)
	}

	u, err := p.Load(vdg.Options{Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *core.Result, 1)
	go func() {
		done <- core.AnalyzeInsensitiveBudgeted(u.Graph, limits.Budget{MaxSteps: maxSteps})
	}()
	var res *core.Result
	select {
	case res = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("budgeted diagnostics solve did not return")
	}
	if res.Stopped == nil || res.Stopped.Reason != limits.Steps {
		t.Fatalf("diagnostics solve not stopped by the step budget: Stopped=%v after %d steps", res.Stopped, res.Engine.Steps)
	}
	if res.Engine.Steps != maxSteps {
		t.Fatalf("stopped after %d steps, want %d", res.Engine.Steps, maxSteps)
	}

	prog, err := aliaslab.ParseProgram(p.Name+".c", p.Source, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, degraded, err := prog.VetLimited(context.Background(), aliaslab.Limits{MaxSteps: maxSteps})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("step-capped vet of the seed-11 unit not flagged degraded")
	}
}
