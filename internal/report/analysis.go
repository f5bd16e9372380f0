package report

import (
	"encoding/json"
	"io"
	"sort"

	"aliaslab/internal/core"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// EncodeJSON writes v as two-space indented JSON and a newline: the
// layout of every JSON document the CLI, the daemon and the experiment
// harness render.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// PointsTo is one points-to pair rendered as interned-path strings.
type PointsTo struct {
	Path     string `json:"path"`     // the pointer-holding location (or ε for values)
	Referent string `json:"referent"` // the location pointed to
}

// StoreAtExit returns the pairs holding in the store when main returns,
// sorted by path then referent; nil when main has no reachable return
// or its store is empty under sets.
func StoreAtExit(g *vdg.Graph, sets map[*vdg.Output]*core.PairSet) []PointsTo {
	if g.Entry == nil || g.Entry.ReturnStore() == nil {
		return nil
	}
	s := sets[g.Entry.ReturnStore()]
	if s == nil {
		return nil
	}
	var out []PointsTo
	for _, p := range s.Sorted() {
		out = append(out, PointsTo{Path: p.Path.String(), Referent: p.Ref.String()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Referent < out[j].Referent
	})
	return out
}

// Analysis is the JSON shape of one unit's solution: the label, the
// pair census, the Figure 4 indirect-operation summary, and the sorted
// store at main's return. The CLI's -print json renders it for every
// backend, so frontier points diff structurally, and the daemon's
// /v1/analyze body is the same document plus its degradation envelope.
type Analysis struct {
	Unit        string     `json:"unit"`
	Label       string     `json:"label"`
	Pairs       pairsJSON  `json:"pairs"`
	Reads       opsJSON    `json:"reads"`
	Writes      opsJSON    `json:"writes"`
	StoreAtExit []PointsTo `json:"storeAtExit"`
}

type pairsJSON struct {
	Total     int `json:"total"`
	Pointer   int `json:"pointer"`
	Function  int `json:"function"`
	Aggregate int `json:"aggregate"`
	Store     int `json:"store"`
}

type opsJSON struct {
	Ops int     `json:"ops"`
	Avg float64 `json:"avgReferents"`
	Max int     `json:"maxReferents"`
}

// NewAnalysis summarizes the solution sets of unit's graph g under the
// analysis label.
func NewAnalysis(unit string, g *vdg.Graph, sets map[*vdg.Output]*core.PairSet, label string) Analysis {
	c := stats.Census(g, sets)
	ops := stats.CountIndirect(g, sets)
	return Analysis{
		Unit:  unit,
		Label: label,
		Pairs: pairsJSON{Total: c.Total, Pointer: c.Pointer, Function: c.Function,
			Aggregate: c.Aggregate, Store: c.Store},
		Reads:       opsJSON{Ops: ops.Reads.Total, Avg: ops.Reads.Avg(), Max: ops.Reads.Max},
		Writes:      opsJSON{Ops: ops.Writes.Total, Avg: ops.Writes.Avg(), Max: ops.Writes.Max},
		StoreAtExit: StoreAtExit(g, sets),
	}
}
