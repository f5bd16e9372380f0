package experiments_test

// Tests of the parallel batch engine: determinism across worker
// counts, per-unit budget behavior, capped-unit marking, and worker
// isolation under the race detector.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"aliaslab/internal/backend"
	"aliaslab/internal/corpus"
	"aliaslab/internal/experiments"
	"aliaslab/internal/limits"
	"aliaslab/internal/sched"
)

// renderDeterministic renders everything whose bytes must not depend on
// scheduling: the five figures plus the JSON summary (the cost table
// carries wall-clock times and is excluded by design).
func renderDeterministic(t *testing.T, rs []*experiments.ProgramResult) string {
	t.Helper()
	var buf bytes.Buffer
	experiments.Figure2(&buf, rs)
	experiments.Figure3(&buf, rs)
	experiments.Figure4(&buf, rs)
	experiments.Figure6(&buf, rs)
	experiments.Figure7(&buf, rs)
	if err := experiments.WriteJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBatchDeterministicAcrossJobs is the engine's core guarantee:
// sequential RunAll, RunBatch at -jobs=1, and RunBatch at -jobs=8
// render byte-identical figures and JSON over the full corpus.
func TestBatchDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus CS comparison at three widths")
	}
	want := renderDeterministic(t, runAll(t)) // cached sequential reference

	for _, jobs := range []int{1, 8} {
		rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{
			WithCS: true, Jobs: jobs,
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got := renderDeterministic(t, rs); got != want {
			line := firstDiffLine(got, want)
			t.Errorf("jobs=%d rendering differs from sequential run (first diff at line %d)", jobs, line)
		}
	}
}

// firstDiffLine locates the first differing line of two renderings.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// TestBatchMergesInCanonicalOrder: slot i of the result always carries
// program i, at any worker count.
func TestBatchMergesInCanonicalOrder(t *testing.T) {
	names := corpus.Names()
	rs, err := experiments.RunBatch(names, experiments.BatchOptions{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(names) {
		t.Fatalf("got %d results, want %d", len(rs), len(names))
	}
	for i, r := range rs {
		if r.Name != names[i] {
			t.Errorf("slot %d holds %q, want %q", i, r.Name, names[i])
		}
		if r.Failed() {
			t.Errorf("%s failed: %v", r.Name, r.Err)
		}
	}
}

// TestBatchParallelIsolation runs corpus units concurrently in multiple
// parallel subtests; under -race this proves no mutable state —
// universes, interning tables, solver worklists — leaks across workers.
func TestBatchParallelIsolation(t *testing.T) {
	for _, jobs := range []int{2, 4, 8} {
		jobs := jobs
		t.Run(strings.Repeat("j", jobs), func(t *testing.T) {
			t.Parallel()
			rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if r.Failed() || r.CI == nil {
					t.Errorf("%s: no CI result: %v", r.Name, r.Err)
				}
			}
		})
	}
}

// TestBatchSharedBudget: the batch budget bounds every unit's solve
// separately. A step cap below some units' CI cost fails exactly those
// units, at any worker count, and skips none of the others.
func TestBatchSharedBudget(t *testing.T) {
	const maxSteps = 2000
	names := corpus.Names()
	ref, err := experiments.RunBatch(names, experiments.BatchOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	for _, r := range ref {
		if r.CI.Engine.Steps > maxSteps {
			over++
		}
	}
	if over == 0 || over == len(names) {
		t.Fatalf("%d of %d units exceed %d steps; the cap must split the corpus", over, len(names), maxSteps)
	}

	for _, jobs := range []int{1, 8} {
		rs, err := experiments.RunBatch(names, experiments.BatchOptions{
			Jobs:   jobs,
			Budget: limits.Budget{MaxSteps: maxSteps},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if _, ok := sched.Skipped(r.Err); ok {
				t.Errorf("jobs=%d: %s skipped: %v", jobs, r.Name, r.Err)
				continue
			}
			if wantStop := ref[i].CI.Engine.Steps > maxSteps; r.Failed() != wantStop {
				t.Errorf("jobs=%d: %s failed=%v, but its CI takes %d steps against a cap of %d (err: %v)",
					jobs, r.Name, r.Failed(), ref[i].CI.Engine.Steps, maxSteps, r.Err)
				continue
			}
			if r.Failed() && (r.Stopped == nil || r.Stopped.Reason != limits.Steps) {
				t.Errorf("jobs=%d: %s: stopped by %v, want a Steps violation", jobs, r.Name, r.Stopped)
			}
		}
	}
}

// TestCappedUnitIsMarked: a CS step bound that trips mid-corpus marks
// the unit Capped (and failed) instead of letting a bounded run
// masquerade as converged.
func TestCappedUnitIsMarked(t *testing.T) {
	// A step cap between the CI and the CS cost of "part" (measured
	// here, so the test follows the solver): CI fits, CS does not.
	full, err := experiments.RunBatch([]string{"part"}, experiments.BatchOptions{WithCS: true})
	if err != nil {
		t.Fatal(err)
	}
	ci, cs := full[0].CI.Engine.Steps, full[0].CS.Engine.Steps
	if cs <= ci+1 {
		t.Fatalf("part: CS takes %d steps, CI %d; no cap separates them", cs, ci)
	}
	// The single-unit batch fails outright (its only unit is capped),
	// so RunBatch's "all failed" error is expected here.
	rs, _ := experiments.RunBatch([]string{"part"}, experiments.BatchOptions{
		WithCS: true,
		Budget: limits.Budget{MaxSteps: (ci + cs) / 2},
	})
	r := rs[0]
	if !r.Failed() {
		t.Fatal("budget-stopped CS unit reported success")
	}
	if !r.Capped {
		t.Fatal("budget-stopped CS unit not marked Capped")
	}
	if r.Stopped == nil {
		t.Fatal("capped unit lost its violation")
	}
	if !strings.Contains(r.Err.Error(), "stopped early") {
		t.Fatalf("capped unit error does not surface the stop: %v", r.Err)
	}
}

// A misconfigured batch is rejected up front with a typed error
// instead of silently running something other than what was asked.
func TestBatchOptionsValidate(t *testing.T) {
	_, err := experiments.RunBatch(corpus.Names()[:1], experiments.BatchOptions{Backend: backend.CS, Jobs: 1})
	var ke *backend.KindError
	if !errors.As(err, &ke) {
		t.Fatalf("Backend: CS must be a typed *backend.KindError, got %v", err)
	}
	if _, err := experiments.RunBatch(corpus.Names()[:1], experiments.BatchOptions{Backend: backend.Steensgaard, Jobs: 1}); err != nil {
		t.Fatalf("steensgaard batch (CI reference on the worklist engine) must validate: %v", err)
	}
}
