package backend_test

import (
	"testing"

	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/experiments"
	"aliaslab/internal/vdg"
)

// TestSolveAllocs bounds the allocations of the CS solve per flow-in
// step and of the constraint backends per pair insert, on the part
// corpus program. The solvers keep their tables by dense ID and carve
// sets from shared arrays; a bound trips when per-set or per-pair
// allocation creeps back in. Measured on part: CS 0.29 per step,
// Andersen 2.73 and Steensgaard 2.05 per pair insert, the same under
// -race (pointer-keyed maps and per-set slices cost 10.3, 6.8 and 4.6).
func TestSolveAllocs(t *testing.T) {
	u, err := corpus.Load("part", vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := u.Graph
	ci := core.AnalyzeInsensitive(g)
	cs := core.AnalyzeSensitive(g, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
	and, st := andersen.Analyze(g), steensgaard.Analyze(g)
	for _, c := range []struct {
		name  string
		work  int // steps for CS, pair inserts for the backends
		bound float64
		solve func()
	}{
		{"cs per step", cs.Engine.Steps, 0.4, func() {
			core.AnalyzeSensitive(g, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps}).Strip()
		}},
		{"andersen per pair insert", and.Engine.PairInserts, 3.5, func() { andersen.Analyze(g) }},
		{"steensgaard per pair insert", st.Engine.PairInserts, 2.6, func() { steensgaard.Analyze(g) }},
	} {
		allocs := testing.AllocsPerRun(5, c.solve)
		per := allocs / float64(c.work)
		t.Logf("%s: %.0f allocations for %d (%.3f each)", c.name, allocs, c.work, per)
		if per > c.bound {
			t.Errorf("%s: %.3f allocations, want at most %.2f", c.name, per, c.bound)
		}
	}
}
