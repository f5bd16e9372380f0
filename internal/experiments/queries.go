package experiments

import (
	"fmt"
	"io"
	"time"

	"aliaslab/internal/driver"
	"aliaslab/internal/obs"
	"aliaslab/internal/query"
	"aliaslab/internal/report"
	"aliaslab/internal/vdg"
)

// maxQueryExprs caps the per-unit demand sweep: enough variables to
// span small and large slices without turning the table run quadratic.
const maxQueryExprs = 16

// QueryBench aggregates one unit's demand-query sweep. Every sampled
// variable is asked pointsto twice: cold on a fresh engine (the
// per-query demand solve the table compares against the exhaustive
// fixpoint) and warm on one shared engine (the memo path). The slice
// and step counters are deterministic; the times are diagnostic.
type QueryBench struct {
	Queries      int // queries answered
	TotalOutputs int // unit VDG outputs (the slice denominator)
	SliceSum     int // cold slice outputs, summed over queries
	SliceMax     int // largest cold slice
	Steps        int // demand solver steps, summed over cold queries

	DemandTime time.Duration // total cold answer time (resolve+slice+solve+render)
	WarmTime   time.Duration // total warm answer time on the shared engine
	MemoHits   int           // warm answers served from the memo
}

// AvgSlice is the mean cold-slice fraction of the unit, in [0,1].
func (q *QueryBench) AvgSlice() float64 {
	if q.Queries == 0 || q.TotalOutputs == 0 {
		return 0
	}
	return float64(q.SliceSum) / float64(q.Queries) / float64(q.TotalOutputs)
}

// MaxSlice is the largest cold-slice fraction, in [0,1].
func (q *QueryBench) MaxSlice() float64 {
	if q.TotalOutputs == 0 {
		return 0
	}
	return float64(q.SliceMax) / float64(q.TotalOutputs)
}

// PerQuery is the mean cold demand time per query.
func (q *QueryBench) PerQuery() time.Duration {
	if q.Queries == 0 {
		return 0
	}
	return q.DemandTime / time.Duration(q.Queries)
}

// runQueries sweeps the unit's variables through the demand engine and
// cross-checks every answer against the exhaustive reference already in
// r.CISets — the experiments harness never renders a demand number the
// oracle contract has not covered in-line.
func runQueries(r *ProgramResult, u *driver.Unit, bo BatchOptions, sp *obs.Span) error {
	qsp := sp.Child("queries")
	defer qsp.End()
	qb := &QueryBench{TotalOutputs: u.Graph.OutputCount()}
	warm := query.New(u.Graph, query.Options{Budget: bo.Budget, Registry: bo.Metrics})
	for _, x := range query.VarExprs(u.Graph, maxQueryExprs) {
		q := query.Query{Kind: query.KindPointsTo, Exprs: []query.Expr{x}}

		cold := query.New(u.Graph, query.Options{Budget: bo.Budget})
		t0 := time.Now()
		ans, err := cold.Query(q)
		qb.DemandTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", r.Name, q, err)
		}
		if ans.Degraded() {
			return fmt.Errorf("%s: %s: %s", r.Name, q, ans.Reason)
		}
		anchors, err := cold.Resolve(x)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", r.Name, q, err)
		}
		want := query.Evaluate(q, [][]*vdg.Output{anchors}, r.CI.Pairs)
		if fmt.Sprint(ans.PointsTo) != fmt.Sprint(want.PointsTo) {
			return fmt.Errorf("%s: %s: demand answer %v diverged from exhaustive %v",
				r.Name, q, ans.PointsTo, want.PointsTo)
		}
		qb.Queries++
		qb.SliceSum += ans.Slice.Outputs
		if ans.Slice.Outputs > qb.SliceMax {
			qb.SliceMax = ans.Slice.Outputs
		}
		qb.Steps += ans.Slice.Steps

		t0 = time.Now()
		wans, err := warm.Query(q)
		qb.WarmTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: warm %s: %w", r.Name, q, err)
		}
		if wans.Slice.MemoHit {
			qb.MemoHits++
		}
	}
	r.Queries = qb
	return nil
}

// QueryCosts renders the demand-vs-exhaustive table for a batch run
// with BatchOptions.Queries: per unit, how much of the program a query
// actually solves and what that buys over the exhaustive fixpoint the
// other figures are built on. Slice fractions, steps, and memo hits
// are deterministic; the times are diagnostic (they vary run to run).
func QueryCosts(w io.Writer, rs []*ProgramResult) {
	headers := []string{"name", "queries", "outputs", "avg slice", "max slice", "steps", "exhaustive", "per query", "speedup", "memo hits"}
	var rows [][]string
	for _, r := range ok(rs) {
		if r.Queries == nil {
			continue
		}
		q := r.Queries
		rows = append(rows, []string{
			r.Name,
			report.Itoa(q.Queries),
			report.Itoa(q.TotalOutputs),
			report.Pct(100*q.AvgSlice()) + "%",
			report.Pct(100*q.MaxSlice()) + "%",
			report.Itoa(q.Steps),
			r.CITime.Round(time.Microsecond).String(),
			q.PerQuery().Round(time.Microsecond).String(),
			report.F2(float64(r.CITime) / float64(maxDuration(q.PerQuery(), time.Microsecond))),
			report.Itoa(q.MemoHits),
		})
	}
	report.Table(w, "Demand-driven queries: slice size and cost vs the exhaustive fixpoint", headers, rows)
}
