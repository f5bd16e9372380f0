package experiments

import (
	"fmt"
	"io"
	"time"

	"aliaslab/internal/backend"
	"aliaslab/internal/core"
	"aliaslab/internal/obs"
	"aliaslab/internal/report"
	"aliaslab/internal/solve"
	"aliaslab/internal/solver"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// The precision/cost frontier: all four backends over the same corpus,
// one row per backend. Precision is measured two ways — the pooled pair
// census (smaller is tighter) and indirect agreement (at how many
// indirect reads/writes the backend's referent sets already equal the
// context-sensitive reference). Cost is the pooled solve wall time plus
// the solver counters that explain it.

// FrontierRow aggregates one backend's precision and cost over a corpus
// batch.
type FrontierRow struct {
	Backend backend.Kind

	// Pairs is the pooled pair census across all units.
	Pairs stats.PairCensus

	// AgreeOps counts indirect memory operations whose referent sets
	// equal the context-sensitive reference; TotalOps is the number of
	// indirect operations. AgreeOps == TotalOps for CS itself.
	AgreeOps, TotalOps int

	// Time is the pooled solve wall time (excluding VDG construction,
	// which is shared by all backends).
	Time time.Duration

	// Engine sums the solver counters across units. Steps/PairInserts
	// measure propagation work for every backend; Constraints, EdgesAdded,
	// SCCsCollapsed, and Unions are populated by the constraint backends
	// only.
	Engine solver.Stats
}

func (r *FrontierRow) add(g *vdg.Graph, sets, csSets map[*vdg.Output]*core.PairSet, solveTime time.Duration, st solver.Stats) {
	c := stats.Census(g, sets)
	r.Pairs.Pointer += c.Pointer
	r.Pairs.Function += c.Function
	r.Pairs.Aggregate += c.Aggregate
	r.Pairs.Store += c.Store
	r.Pairs.Total += c.Total
	io := stats.CountIndirect(g, sets)
	ops := io.Reads.Total + io.Writes.Total
	r.TotalOps += ops
	r.AgreeOps += ops - len(stats.IndirectDiff(g, sets, csSets))
	r.Time += solveTime
	r.Engine.Steps += st.Steps
	r.Engine.Meets += st.Meets
	r.Engine.PairInserts += st.PairInserts
	r.Engine.Constraints += st.Constraints
	r.Engine.EdgesAdded += st.EdgesAdded
	r.Engine.SCCsCollapsed += st.SCCsCollapsed
	r.Engine.Unions += st.Unions
}

// RunFrontier analyzes the named corpus programs with all four backends
// and pools the results into one row per backend, ordered most precise
// first (cs, ci, andersen, steensgaard). The CI and CS solutions come
// from a regular batch (so the run parallelizes across units like any
// other); the constraint backends then solve each unit's already-built
// VDG, timed individually. Failed units are skipped in every row alike,
// so the four rows always pool the same programs; the skipped names are
// returned for the caller to report.
func RunFrontier(names []string, bo BatchOptions) (map[backend.Kind]*FrontierRow, []string, error) {
	bo.WithCS = true
	rs, err := RunBatch(names, bo)
	if err != nil {
		return nil, nil, err
	}
	rows := make(map[backend.Kind]*FrontierRow, 4)
	for _, k := range backend.Kinds() {
		rows[k] = &FrontierRow{Backend: k}
	}
	budget := capSteps(bo.Budget)
	fsp := bo.Trace.StartSpan("frontier", obs.Int("units", len(rs)))
	defer fsp.End()
	var skipped []string
	for _, r := range rs {
		if r.Failed() || r.CSSets == nil {
			skipped = append(skipped, r.Name)
			continue
		}
		g := r.Unit.Graph
		rows[backend.CS].add(g, r.CSSets, r.CSSets, r.CSTime, r.CS.Engine)
		rows[backend.CI].add(g, r.CISets, r.CSSets, r.CITime, r.CI.Engine)

		usp := fsp.Child("unit", obs.Str("unit", r.Name))
		and := solve.Solve(backend.Andersen, g, budget, usp)
		st := solve.Solve(backend.Steensgaard, g, budget, usp)
		usp.End()
		if and.Stopped != nil || st.Stopped != nil {
			return nil, nil, fmt.Errorf("experiments: %s: constraint backend stopped early (%v/%v)", r.Name, and.Stopped, st.Stopped)
		}
		rows[backend.Andersen].add(g, and.Sets, r.CSSets, and.Attempts[0].Wall, and.CI.Engine)
		rows[backend.Steensgaard].add(g, st.Sets, r.CSSets, st.Attempts[0].Wall, st.CI.Engine)
	}
	return rows, skipped, nil
}

// Frontier renders the four-way frontier table.
func Frontier(w io.Writer, rows map[backend.Kind]*FrontierRow) {
	headers := []string{"backend", "pairs", "ptr", "fn", "agg", "store",
		"indirect agreement", "solve time", "steps", "pair inserts",
		"constraints", "edges", "sccs", "unions"}
	var table [][]string
	for _, k := range backend.Kinds() {
		r := rows[k]
		if r == nil {
			continue
		}
		table = append(table, []string{
			k.String(),
			report.Itoa(r.Pairs.Total), report.Itoa(r.Pairs.Pointer),
			report.Itoa(r.Pairs.Function), report.Itoa(r.Pairs.Aggregate),
			report.Itoa(r.Pairs.Store),
			fmt.Sprintf("%d/%d", r.AgreeOps, r.TotalOps),
			r.Time.Round(time.Microsecond).String(),
			report.Itoa(r.Engine.Steps), report.Itoa(r.Engine.PairInserts),
			report.Itoa(r.Engine.Constraints), report.Itoa(r.Engine.EdgesAdded),
			report.Itoa(r.Engine.SCCsCollapsed), report.Itoa(r.Engine.Unions),
		})
	}
	report.Table(w, "Precision/cost frontier: four backends, pooled over the corpus", headers, table)
	fmt.Fprintln(w, "\nRows order most precise first. Pair counts grow monotonically down the")
	fmt.Fprintln(w, "table (the lattice CS ⊆ CI ⊆ Andersen ⊆ Steensgaard holds per output);")
	fmt.Fprintln(w, "indirect agreement shows how much of that extra abstraction is visible")
	fmt.Fprintln(w, "at the operations clients actually ask about.")
}
