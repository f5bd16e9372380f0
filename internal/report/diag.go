package report

import (
	"fmt"
	"io"

	"aliaslab/internal/checkers"
)

// WriteDiags renders diagnostics as compiler-style text, one per line,
// with related positions indented beneath:
//
//	prog.c:12:5: error: write to malloc@9 after free [uaf]
//	    prog.c:11:5: freed here
func WriteDiags(w io.Writer, diags []checkers.Diag) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s [%s]\n", d.Pos.In(d.File), d.Severity, d.Message, d.Checker)
		for _, r := range d.Related {
			fmt.Fprintf(w, "    %s: %s\n", r.Pos.In(d.File), r.Message)
		}
	}
}

// diagJSON is the stable JSON shape of one diagnostic.
type diagJSON struct {
	File     string        `json:"file"`
	Line     int           `json:"line"`
	Col      int           `json:"col"`
	Severity string        `json:"severity"`
	Checker  string        `json:"checker"`
	Message  string        `json:"message"`
	Related  []relatedJSON `json:"related,omitempty"`
}

type relatedJSON struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// WriteDiagsEnvelope renders diagnostics as JSON — the one schema shared
// by the CLI's -vet JSON and the analysis server's vet responses. A nil
// envelope renders the plain healthy-run array (an empty slice renders
// as []); a degraded run passes its envelope, and the output becomes
// an object {"degraded": true, "reason": ..., "diagnostics": [...]} so
// consumers cannot mistake a truncated analysis for a clean one.
func WriteDiagsEnvelope(w io.Writer, diags []checkers.Diag, env *Envelope) error {
	out := buildDiagsJSON(diags)
	if env != nil {
		return EncodeJSON(w, struct {
			Envelope
			Diagnostics []diagJSON `json:"diagnostics"`
		}{*env, out})
	}
	return EncodeJSON(w, out)
}

func buildDiagsJSON(diags []checkers.Diag) []diagJSON {
	out := make([]diagJSON, 0, len(diags))
	for _, d := range diags {
		j := diagJSON{
			File:     d.File,
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Severity: d.Severity.String(),
			Checker:  d.Checker,
			Message:  d.Message,
		}
		for _, r := range d.Related {
			j.Related = append(j.Related, relatedJSON{
				File:    d.File,
				Line:    r.Pos.Line,
				Col:     r.Pos.Col,
				Message: r.Message,
			})
		}
		out = append(out, j)
	}
	return out
}
