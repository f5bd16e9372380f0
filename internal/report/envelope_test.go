package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aliaslab/internal/checkers"
	"aliaslab/internal/token"
)

func sampleDiags() []checkers.Diag {
	return []checkers.Diag{{
		Pos:      token.Pos{File: "a.c", Line: 3, Col: 5},
		Checker:  "uaf",
		Message:  "write after free",
		Severity: checkers.Error,
		Related: []checkers.Related{{
			Pos:     token.Pos{File: "a.c", Line: 2, Col: 1},
			Message: "freed here",
		}},
	}}
}

// The historical CLI shape is pinned byte-for-byte: a healthy run is a
// plain array; a degraded run is the flat {degraded, reason,
// diagnostics} object with no tier/sound/notes fields leaking in.
func TestDiagsJSONShapesArePinned(t *testing.T) {
	var healthy bytes.Buffer
	if err := WriteDiagsJSON(&healthy, nil); err != nil {
		t.Fatal(err)
	}
	if got := healthy.String(); got != "[]\n" {
		t.Fatalf("healthy empty run: %q, want %q", got, "[]\n")
	}

	var degraded bytes.Buffer
	if err := WriteDiagsJSONDegraded(&degraded, sampleDiags(), "limits: pair budget exhausted (1)"); err != nil {
		t.Fatal(err)
	}
	want := `{
  "degraded": true,
  "reason": "limits: pair budget exhausted (1)",
  "diagnostics": [
    {
      "file": "a.c",
      "line": 3,
      "col": 5,
      "severity": "error",
      "checker": "uaf",
      "message": "write after free",
      "related": [
        {
          "file": "a.c",
          "line": 2,
          "col": 1,
          "message": "freed here"
        }
      ]
    }
  ]
}
`
	if degraded.String() != want {
		t.Fatalf("degraded vet shape drifted:\n%s\nwant:\n%s", degraded.String(), want)
	}

	// An empty reason renders the healthy array, not a half-filled
	// envelope.
	var emptyReason bytes.Buffer
	if err := WriteDiagsJSONDegraded(&emptyReason, nil, ""); err != nil {
		t.Fatal(err)
	}
	if got := emptyReason.String(); got != "[]\n" {
		t.Fatalf("empty-reason run: %q, want plain array", got)
	}
}

// The server's fuller envelope — tier, soundness verdict, notes —
// rides the same schema: the flat fields stay in the same places and
// consumers of the CLI shape parse it unchanged.
func TestEnvelopeFullShape(t *testing.T) {
	env := DegradedEnvelope("limits: step budget exhausted (100)", "widened").WithSound(true)
	env.Notes = []string{"exact context-sensitive analysis stopped early", "recovered with assumption-set widening (bound 4)"}
	var buf bytes.Buffer
	if err := WriteDiagsEnvelope(&buf, nil, &env); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Degraded    bool            `json:"degraded"`
		Reason      string          `json:"reason"`
		Tier        string          `json:"tier"`
		Sound       *bool           `json:"sound"`
		Notes       []string        `json:"notes"`
		Diagnostics json.RawMessage `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if !parsed.Degraded || parsed.Tier != "widened" || parsed.Sound == nil || !*parsed.Sound || len(parsed.Notes) != 2 {
		t.Fatalf("envelope fields lost in rendering: %+v\n%s", parsed, buf.String())
	}
	if !strings.Contains(parsed.Reason, "step budget") {
		t.Fatalf("reason lost: %+v", parsed)
	}
	if string(parsed.Diagnostics) != "[]" {
		t.Fatalf("diagnostics field: %s", parsed.Diagnostics)
	}
}

// Mode is orthogonal to degradation: a query-mode envelope marshals
// without tier/sound/notes noise, and a plain degraded envelope — the
// historical shape — must not grow a mode field.
func TestEnvelopeModeField(t *testing.T) {
	b, err := json.Marshal(Envelope{}.WithMode("query"))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"degraded":false,"reason":"","mode":"query"}`
	if string(b) != want {
		t.Fatalf("query envelope: %s, want %s", b, want)
	}

	b, err = json.Marshal(DegradedEnvelope("steps", "partial-ci"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "mode") {
		t.Fatalf("exhaustive degraded envelope leaked a mode field: %s", b)
	}

	b, err = json.Marshal(DegradedEnvelope("steps", "").WithMode("query"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"mode":"query"`) || !strings.Contains(string(b), `"degraded":true`) {
		t.Fatalf("degraded query envelope lost a field: %s", b)
	}
}
