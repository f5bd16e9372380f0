package report_test

// Table-driven tests of the diagnostic and metrics renderers: empty
// inputs, text/JSON parity (the two renderings must carry the same
// facts for the same diagnostics), the degraded JSON envelope, and the
// metrics table's per-kind row shapes.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aliaslab/internal/checkers"
	"aliaslab/internal/obs"
	"aliaslab/internal/report"
	"aliaslab/internal/token"
)

func pos(line, col int) token.Pos { return token.Pos{Line: line, Col: col} }

var diagCases = []struct {
	name  string
	diags []checkers.Diag
	// wantText are substrings of the text rendering; wantJSON are
	// substrings of the JSON rendering. Both renderings must carry the
	// same positions, checkers, and messages.
	wantText []string
	wantJSON []string
}{
	{
		name:     "empty",
		diags:    nil,
		wantText: nil,
		wantJSON: []string{"[]"},
	},
	{
		name: "single warning",
		diags: []checkers.Diag{
			{File: "t.c", Pos: pos(4, 9), Severity: checkers.Warning, Checker: "leak", Message: "malloc@4 may leak"},
		},
		wantText: []string{"t.c:4:9: warning: malloc@4 may leak [leak]"},
		wantJSON: []string{`"line": 4`, `"col": 9`, `"severity": "warning"`, `"checker": "leak"`, `"message": "malloc@4 may leak"`},
	},
	{
		name: "error with related position",
		diags: []checkers.Diag{
			{
				File: "t.c", Pos: pos(12, 5), Severity: checkers.Error, Checker: "uaf", Message: "write after free",
				Related: []checkers.Related{{Pos: pos(11, 5), Message: "freed here"}},
			},
		},
		wantText: []string{"t.c:12:5: error: write after free [uaf]", "    t.c:11:5: freed here"},
		wantJSON: []string{`"severity": "error"`, `"related"`, `"line": 11`, `"message": "freed here"`},
	},
	{
		name: "multiple diags keep order",
		diags: []checkers.Diag{
			{File: "t.c", Pos: pos(2, 1), Severity: checkers.Warning, Checker: "uninit", Message: "first"},
			{File: "t.c", Pos: pos(7, 1), Severity: checkers.Warning, Checker: "nullderef", Message: "second"},
		},
		wantText: []string{"first [uninit]", "second [nullderef]"},
		wantJSON: []string{`"message": "first"`, `"message": "second"`},
	},
}

func TestWriteDiagsTextAndJSON(t *testing.T) {
	for _, tc := range diagCases {
		t.Run(tc.name, func(t *testing.T) {
			var text bytes.Buffer
			report.WriteDiags(&text, tc.diags)
			if tc.diags == nil && text.Len() != 0 {
				t.Errorf("empty diagnostics rendered text: %q", text.String())
			}
			for _, want := range tc.wantText {
				if !strings.Contains(text.String(), want) {
					t.Errorf("text missing %q:\n%s", want, text.String())
				}
			}

			var js bytes.Buffer
			if err := report.WriteDiagsEnvelope(&js, tc.diags, nil); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.wantJSON {
				if !strings.Contains(js.String(), want) {
					t.Errorf("JSON missing %q:\n%s", want, js.String())
				}
			}
			// The JSON must always be a valid array with one element per
			// diagnostic — parity with the text line count.
			var arr []map[string]any
			if err := json.Unmarshal(js.Bytes(), &arr); err != nil {
				t.Fatalf("invalid JSON: %v\n%s", err, js.String())
			}
			if len(arr) != len(tc.diags) {
				t.Errorf("JSON has %d diagnostics, want %d", len(arr), len(tc.diags))
			}
		})
	}
}

func TestWriteDiagsJSONDegraded(t *testing.T) {
	diags := []checkers.Diag{
		{File: "t.c", Pos: pos(3, 1), Severity: checkers.Warning, Checker: "leak", Message: "best effort"},
	}
	var buf bytes.Buffer
	degraded := report.DegradedEnvelope("limits: step budget exhausted (10)", "")
	if err := report.WriteDiagsEnvelope(&buf, diags, &degraded); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Degraded    bool             `json:"degraded"`
		Reason      string           `json:"reason"`
		Diagnostics []map[string]any `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if !env.Degraded || !strings.Contains(env.Reason, "step budget") || len(env.Diagnostics) != 1 {
		t.Errorf("degraded envelope wrong: %+v", env)
	}

	// No envelope keeps the plain-array shape for healthy runs.
	buf.Reset()
	if err := report.WriteDiagsEnvelope(&buf, diags, nil); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil || len(arr) != 1 {
		t.Errorf("healthy run must render the plain array: %v\n%s", err, buf.String())
	}
}

func TestMetricsTable(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("solve.steps", obs.Deterministic).Add(42)
	reg.Gauge("ledger.pairs", obs.Volatile).Set(7)
	h := reg.Histogram("depth", obs.Volatile, []int64{1, 2})
	h.Observe(1)
	h.Observe(5)

	var buf bytes.Buffer
	report.Metrics(&buf, reg.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"Metrics",
		"solve.steps", "counter", "deterministic", "42",
		"ledger.pairs", "gauge", "volatile", "7",
		"depth", "histogram", "<=1:1", ">2:1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table missing %q:\n%s", want, out)
		}
	}
	// One row per metric, sorted by name: depth, ledger.pairs, solve.steps.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "depth") || !strings.HasPrefix(lines[5], "solve.steps") {
		t.Errorf("rows out of name order:\n%s", out)
	}
}

func TestMetricsTableEmpty(t *testing.T) {
	var buf bytes.Buffer
	report.Metrics(&buf, nil)
	out := buf.String()
	if !strings.Contains(out, "Metrics") || !strings.Contains(out, "metric") {
		t.Errorf("empty snapshot must still render the header:\n%s", out)
	}
}

// TestMetricsJSONParity: the table and obs.MetricsJSON agree on the
// values they render for the same snapshot.
func TestMetricsJSONParity(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a.count", obs.Deterministic).Add(11)
	reg.Histogram("b.hist", obs.Deterministic, []int64{4}).Observe(3)

	snap := reg.Snapshot()
	var table bytes.Buffer
	report.Metrics(&table, snap)
	for _, mj := range obs.MetricsJSON(snap) {
		if !strings.Contains(table.String(), mj.Name) {
			t.Errorf("metric %s present in JSON but absent from the table", mj.Name)
		}
		if mj.Value != nil && !strings.Contains(table.String(), report.Itoa(int(*mj.Value))) {
			t.Errorf("value %d of %s missing from the table", *mj.Value, mj.Name)
		}
	}
}
