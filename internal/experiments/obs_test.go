package experiments_test

// Determinism harness for the observability layer. The tentpole
// guarantee under test: the metrics block of the JSON summary is a
// pure function of the analysis results — byte-identical at every
// -jobs width — because everything wall-clock- or schedule-dependent
// is registered Volatile and filtered out before rendering. The trace
// tree's *shape* (span names, unit order, deterministic attributes) is
// likewise schedule-independent once the volatile tokens (durations,
// allocation deltas, worker lanes) are scrubbed.

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"aliaslab/internal/corpus"
	"aliaslab/internal/experiments"
	"aliaslab/internal/obs"
)

// runMetricsBatch runs a CI-only corpus batch with a fresh registry
// (and optionally a tracer) and returns both.
func runMetricsBatch(t *testing.T, jobs int, tr *obs.Tracer) ([]*experiments.ProgramResult, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{
		Jobs: jobs, Trace: tr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs, reg
}

// metricsJSON renders the full JSON summary including the metrics
// block.
func metricsJSON(t *testing.T, jobs int) string {
	t.Helper()
	rs, reg := runMetricsBatch(t, jobs, nil)
	var buf bytes.Buffer
	if err := experiments.WriteJSONWith(&buf, rs, experiments.JSONOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsJSONDeterministic: the JSON summary with its metrics
// block is byte-identical across worker-pool widths 1, 2, and 8 —
// Volatile metrics (times, schedule counters) are excluded by
// construction, so nothing schedule-dependent reaches these bytes.
func TestMetricsJSONDeterministic(t *testing.T) {
	want := metricsJSON(t, 1)
	for _, jobs := range []int{2, 8} {
		if doc := metricsJSON(t, jobs); doc != want {
			t.Errorf("jobs=%d: JSON summary differs from the jobs=1 reference (first diff at line %d)",
				jobs, firstDiffLine(doc, want))
		}
	}
}

// TestMetricsGolden pins the deterministic metrics block bytes over
// the corpus. Any drift is a real behavior change in the analyses or
// the registry; regenerate with UPDATE_GOLDEN=1 go test ./internal/experiments/.
func TestMetricsGolden(t *testing.T) {
	_, reg := runMetricsBatch(t, 1, nil)
	b, err := json.MarshalIndent(obs.MetricsJSON(reg.DeterministicSnapshot()), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(b) + "\n"
	const path = "testdata/metrics.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden file updated")
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("metrics drifted at line %d (regenerate with UPDATE_GOLDEN=1 if intentional)",
			firstDiffLine(got, string(want)))
	}
}

// volatileTokens matches everything in the trace text that legitimately
// varies run to run: wall times, allocation deltas, and the worker lane
// a unit happened to land on.
var volatileTokens = regexp.MustCompile(`(dur|alloc|mallocs|worker)=\S+`)

func scrubTrace(tr *obs.Tracer) string {
	var buf bytes.Buffer
	obs.WriteTree(&buf, tr)
	return volatileTokens.ReplaceAllString(buf.String(), "$1=X")
}

// TestTraceTreeShapeDeterministic: unit spans are attached to the
// batch root in input order after the merge barrier, so the scrubbed
// trace tree is identical at every -jobs width.
func TestTraceTreeShapeDeterministic(t *testing.T) {
	var want string
	for _, jobs := range []int{1, 8} {
		tr := obs.New(obs.Config{})
		runMetricsBatch(t, jobs, tr)
		got := scrubTrace(tr)
		if !strings.Contains(got, "unit=allroots") || !strings.Contains(got, "solve-ci") {
			t.Fatalf("jobs=%d: trace tree missing expected spans:\n%s", jobs, got)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("jobs=%d: scrubbed trace tree differs from jobs=1 (first diff at line %d)",
				jobs, firstDiffLine(got, want))
		}
	}
}

// TestMetricsUntracedBatchIdentical: a batch with observability off
// renders exactly the bytes of one with it on — the JSON metrics block
// is opt-in at rendering time, not a side effect of collection.
func TestMetricsUntracedBatchIdentical(t *testing.T) {
	rs, _ := runMetricsBatch(t, 2, nil)
	plain, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := experiments.WriteJSON(&a, rs); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteJSON(&b, plain); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("default JSON rendering changed when metrics were collected")
	}
}
