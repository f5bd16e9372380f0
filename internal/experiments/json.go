package experiments

import (
	"io"

	"aliaslab/internal/obs"
	"aliaslab/internal/report"
	"aliaslab/internal/solver"
	"aliaslab/internal/stats"
)

// The JSON rendering exposes the evaluation to machine consumers. It
// contains only deterministic quantities — censuses, histograms, solver
// work counters — and deliberately no wall-clock times, so the bytes
// are identical run to run and at every -jobs width; the determinism
// oracle compares them directly.

// UnitJSON is the machine-readable record of one corpus program.
type UnitJSON struct {
	Name  string `json:"name"`
	Error string `json:"error,omitempty"`
	// Capped marks a context-sensitive analysis that stopped at its
	// step bound or budget before converging: the CS numbers (absent
	// here, since a capped unit fails) must not be read as a converged
	// result.
	Capped bool `json:"capped,omitempty"`

	Lines        int `json:"lines,omitempty"`
	Nodes        int `json:"nodes,omitempty"`
	AliasOutputs int `json:"aliasOutputs,omitempty"`

	CI *AnalysisJSON `json:"ci,omitempty"`
	CS *AnalysisJSON `json:"cs,omitempty"`

	// Backend carries the constraint-backend solution when the batch ran
	// one (BatchOptions.Backend); BackendKind names it. Absent on
	// default runs, so their bytes are unchanged.
	BackendKind string        `json:"backendKind,omitempty"`
	Backend     *AnalysisJSON `json:"backend,omitempty"`

	// IndirectDiffs counts indirect operations whose referent sets
	// differ between CI and CS — the paper's headline quantity (zero on
	// every benchmark). Present only when both analyses ran.
	IndirectDiffs *int `json:"indirectDiffs,omitempty"`
}

// AnalysisJSON summarizes one analysis of one unit.
type AnalysisJSON struct {
	Census   CensusJSON `json:"census"`
	FlowIns  int        `json:"flowIns"`
	FlowOuts int        `json:"flowOuts"`
	Reads    OpsJSON    `json:"reads"`
	Writes   OpsJSON    `json:"writes"`

	// Engine carries the solver engine counters, present only when the
	// caller opted in (JSONOptions.EngineStats). Several counters
	// measure the solver's schedule rather than its answer, so keeping
	// them out by default keeps the default rendering a function of the
	// computed sets alone.
	Engine *solver.Stats `json:"engine,omitempty"`
}

// JSONOptions selects optional blocks of the JSON rendering.
type JSONOptions struct {
	// EngineStats attaches each analysis's solver engine counters.
	EngineStats bool

	// Metrics, when non-nil, appends the registry's Deterministic-
	// stability metrics as a "metrics" block. Volatile metrics (times,
	// visit-order-dependent counters) are excluded by construction, so
	// the block — like the rest of the rendering — is byte-identical at
	// every -jobs width for batches that complete without budget
	// cancellation.
	Metrics *obs.Registry
}

// CensusJSON mirrors stats.PairCensus.
type CensusJSON struct {
	Pointer   int `json:"pointer"`
	Function  int `json:"function"`
	Aggregate int `json:"aggregate"`
	Store     int `json:"store"`
	Total     int `json:"total"`
}

// OpsJSON mirrors one stats.OpHistogram.
type OpsJSON struct {
	Total   int    `json:"total"`
	ByRefs  [4]int `json:"byRefs"` // ops at 1, 2, 3, >=4 locations
	Zero    int    `json:"zero"`
	Max     int    `json:"max"`
	SumRefs int    `json:"sumRefs"`
}

func censusJSON(c stats.PairCensus) CensusJSON {
	return CensusJSON{Pointer: c.Pointer, Function: c.Function, Aggregate: c.Aggregate, Store: c.Store, Total: c.Total}
}

func opsJSON(h stats.OpHistogram) OpsJSON {
	return OpsJSON{Total: h.Total, ByRefs: h.N, Zero: h.Zero, Max: h.Max, SumRefs: h.SumRefs}
}

// UnitsJSONWith builds the machine-readable batch summary in batch
// order, with the optional blocks jo enables.
func UnitsJSONWith(rs []*ProgramResult, jo JSONOptions) []UnitJSON {
	out := make([]UnitJSON, 0, len(rs))
	for _, r := range rs {
		u := UnitJSON{Name: r.Name, Capped: r.Capped}
		if r.Err != nil {
			u.Error = r.Err.Error()
		}
		if r.Unit != nil {
			s := stats.Sizes(r.Name, r.Unit.SourceLines, r.Unit.Graph)
			u.Lines, u.Nodes, u.AliasOutputs = s.Lines, s.Nodes, s.AliasOutputs
		}
		if !r.Failed() && r.CI != nil {
			io := stats.CountIndirect(r.Unit.Graph, r.CISets)
			u.CI = &AnalysisJSON{
				Census:   censusJSON(stats.Census(r.Unit.Graph, r.CISets)),
				FlowIns:  r.CI.Engine.Steps,
				FlowOuts: r.CI.Engine.Meets,
				Reads:    opsJSON(io.Reads),
				Writes:   opsJSON(io.Writes),
			}
			if jo.EngineStats {
				u.CI.Engine = &r.CI.Engine
			}
			if r.BE != nil {
				io := stats.CountIndirect(r.Unit.Graph, r.BE.Sets)
				u.BackendKind = r.BEKind.String()
				u.Backend = &AnalysisJSON{
					Census:   censusJSON(stats.Census(r.Unit.Graph, r.BE.Sets)),
					FlowIns:  r.BE.Engine.Steps,
					FlowOuts: r.BE.Engine.Meets,
					Reads:    opsJSON(io.Reads),
					Writes:   opsJSON(io.Writes),
				}
				if jo.EngineStats {
					u.Backend.Engine = &r.BE.Engine
				}
			}
			if r.CS != nil && r.CSSets != nil {
				io := stats.CountIndirect(r.Unit.Graph, r.CSSets)
				u.CS = &AnalysisJSON{
					Census:   censusJSON(stats.Census(r.Unit.Graph, r.CSSets)),
					FlowIns:  r.CS.Engine.Steps,
					FlowOuts: r.CS.Engine.Meets,
					Reads:    opsJSON(io.Reads),
					Writes:   opsJSON(io.Writes),
				}
				if jo.EngineStats {
					u.CS.Engine = &r.CS.Engine
				}
				diffs := len(stats.IndirectDiff(r.Unit.Graph, r.CISets, r.CSSets))
				u.IndirectDiffs = &diffs
			}
		}
		out = append(out, u)
	}
	return out
}

// WriteJSON renders the batch as indented JSON. The output is a stable
// function of the analysis results alone: rendering the same corpus at
// any worker count produces identical bytes.
func WriteJSON(w io.Writer, rs []*ProgramResult) error {
	return WriteJSONWith(w, rs, JSONOptions{})
}

// WriteJSONWith is WriteJSON with optional blocks enabled. The default
// (zero) options render exactly the bytes of WriteJSON; the engine
// block is additive and only present when requested.
func WriteJSONWith(w io.Writer, rs []*ProgramResult, jo JSONOptions) error {
	doc := struct {
		Programs []UnitJSON       `json:"programs"`
		Metrics  []obs.MetricJSON `json:"metrics,omitempty"`
	}{Programs: UnitsJSONWith(rs, jo)}
	if jo.Metrics != nil {
		doc.Metrics = obs.MetricsJSON(jo.Metrics.DeterministicSnapshot())
	}
	return report.EncodeJSON(w, doc)
}
