// The population study: the paper measures CI-vs-CS indirect agreement
// on 13 hand-picked benchmarks; this file measures it on thousands of
// generated programs and reports the *distribution* — does the headline
// generalize beyond the corpus, and which structural knobs move it?
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"aliaslab/internal/backend"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/limits"
	"aliaslab/internal/report"
	"aliaslab/internal/sched"
	"aliaslab/internal/solve"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// PopulationOptions configures a population run.
type PopulationOptions struct {
	// Jobs is the worker-pool width (<= 0: GOMAXPROCS). The merge is
	// canonical-order, so the report and JSON are byte-identical at
	// every width.
	Jobs int

	// Budget bounds every solve of every unit separately, like
	// RunBatch's.
	Budget limits.Budget

	// Opts is the VDG construction configuration.
	Opts vdg.Options
}

// PopulationUnit is the measurement of one generated program: how many
// indirect memory operations it has, and at how many of them each
// cheaper backend's referent sets already equal the context-sensitive
// reference.
type PopulationUnit struct {
	Name  string
	Knobs corpusgen.Knobs

	// Ops is the unit's indirect read+write count; a unit with zero is
	// counted but excluded from the agreement distribution.
	Ops int

	// AgreeCI/AgreeAnd/AgreeSt count the indirect operations where the
	// backend's referent sets equal CS's exactly.
	AgreeCI, AgreeAnd, AgreeSt int

	// Err records a failed unit (front-end rejection, budget stop,
	// non-convergence); failed units are excluded from every figure.
	Err error
}

func (u PopulationUnit) pct(agree int) float64 {
	if u.Ops == 0 {
		return 100
	}
	return 100 * float64(agree) / float64(u.Ops)
}

// Distribution summarizes per-unit agreement percentages over the
// population. Percentiles use the nearest-rank method on the sorted
// values, so they are exact sample statistics, not interpolations.
type Distribution struct {
	// Units is the sample size: analyzed units with at least one
	// indirect operation.
	Units int

	Mean, Median, P5, P95, Min float64

	// Full counts the units in full (100%) agreement.
	Full int
}

func distribute(vals []float64) Distribution {
	d := Distribution{Units: len(vals)}
	if len(vals) == 0 {
		return d
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	var sum float64
	for _, v := range sorted {
		sum += v
		if v >= 100 {
			d.Full++
		}
	}
	d.Mean = sum / float64(len(sorted))
	d.Median = rank(50)
	d.P5 = rank(5)
	d.P95 = rank(95)
	d.Min = sorted[0]
	return d
}

// KnobBucket is the CI-vs-CS agreement of the population slice holding
// one value of one knob.
type KnobBucket struct {
	Axis  string
	Value string

	// Units is the slice's sample size (zero-indirect units excluded,
	// as in the top-level distribution); MeanCI its mean CI agreement;
	// Full its count of full-agreement units.
	Units  int
	MeanCI float64
	Full   int
}

// PopulationResult aggregates a population run.
type PopulationResult struct {
	// Total is the population size; Failed lists units that produced no
	// usable analysis; NoIndirect counts analyzed units with zero
	// indirect operations (trivially in agreement, excluded from the
	// distributions).
	Total      int
	Failed     []string
	NoIndirect int

	// CI is the headline distribution — CI-vs-CS agreement per unit;
	// Andersen and Steensgaard are the same quantity for the coarser
	// backends, showing how much of the frontier's precision loss is
	// visible at indirect operations across the population.
	CI, Andersen, Steensgaard Distribution

	// Breakdown slices the CI distribution per knob value, in a fixed
	// axis/value order.
	Breakdown []KnobBucket

	// Units holds the per-unit measurements in population order.
	Units []PopulationUnit
}

// populationUnit is the worker body: load one generated program and
// solve it with all four backends, measuring indirect agreement against
// the stripped CS reference.
func populationUnit(p corpusgen.Program, po PopulationOptions) PopulationUnit {
	u := PopulationUnit{Name: p.Name, Knobs: p.Knobs}
	u.Err = limits.Guard("analyze "+p.Name, func() error {
		unit, err := p.Load(po.Opts)
		if err != nil {
			return err
		}
		g := unit.Graph
		budget := capSteps(po.Budget)
		var sol []*solve.Outcome
		for _, k := range []backend.Kind{backend.CS, backend.Andersen, backend.Steensgaard} {
			o := solve.Solve(k, g, budget, nil)
			if o.Stopped != nil {
				return fmt.Errorf("%s: %w", p.Name, o.Err())
			}
			sol = append(sol, o)
		}
		ci, csSets, and, st := sol[0].CI, sol[0].Sets, sol[1], sol[2]

		io := stats.CountIndirect(g, ci.Sets)
		u.Ops = io.Reads.Total + io.Writes.Total
		u.AgreeCI = u.Ops - len(stats.IndirectDiff(g, ci.Sets, csSets))
		u.AgreeAnd = u.Ops - len(stats.IndirectDiff(g, and.Sets, csSets))
		u.AgreeSt = u.Ops - len(stats.IndirectDiff(g, st.Sets, csSets))
		return nil
	})
	return u
}

// RunPopulation pushes a generated population through the parallel
// batch machinery — the same bounded pool, per-unit budget, and
// canonical-order merge RunBatch uses — measuring indirect agreement
// for CI, Andersen, and Steensgaard against the CS reference on every
// unit. The returned error is non-nil only when every unit failed.
func RunPopulation(progs []corpusgen.Program, po PopulationOptions) (*PopulationResult, error) {
	ctx := po.Budget.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	units := make([]PopulationUnit, len(progs))
	errs := sched.Pool{Jobs: po.Jobs}.Map(ctx, len(progs), func(ctx context.Context, i int) error {
		units[i] = populationUnit(progs[i], po)
		return units[i].Err
	})
	for i := range units {
		if units[i].Name == "" {
			// The pool skipped this unit (expired deadline).
			units[i] = PopulationUnit{Name: progs[i].Name, Knobs: progs[i].Knobs, Err: errs[i]}
		}
	}
	res := aggregate(units)
	if len(res.Failed) == res.Total && res.Total > 0 {
		return res, fmt.Errorf("experiments: all %d population units failed", res.Total)
	}
	return res, nil
}

// aggregate folds per-unit measurements into distributions and knob
// breakdowns. Pure and order-deterministic.
func aggregate(units []PopulationUnit) *PopulationResult {
	res := &PopulationResult{Total: len(units), Units: units}
	var ciVals, andVals, stVals []float64
	for _, u := range units {
		if u.Err != nil {
			res.Failed = append(res.Failed, u.Name)
			continue
		}
		if u.Ops == 0 {
			res.NoIndirect++
			continue
		}
		ciVals = append(ciVals, u.pct(u.AgreeCI))
		andVals = append(andVals, u.pct(u.AgreeAnd))
		stVals = append(stVals, u.pct(u.AgreeSt))
	}
	res.CI = distribute(ciVals)
	res.Andersen = distribute(andVals)
	res.Steensgaard = distribute(stVals)

	type axis struct {
		name string
		val  func(k corpusgen.Knobs) (int, string)
	}
	num := func(v int) string { return fmt.Sprintf("%d", v) }
	axes := []axis{
		{"ptr", func(k corpusgen.Knobs) (int, string) { return k.PtrDepth, num(k.PtrDepth) }},
		{"depth", func(k corpusgen.Knobs) (int, string) { return k.Depth, num(k.Depth) }},
		{"fanin", func(k corpusgen.Knobs) (int, string) { return k.FanIn, num(k.FanIn) }},
		{"share", func(k corpusgen.Knobs) (int, string) { return k.SharePct, num(k.SharePct) }},
		{"fnptr", func(k corpusgen.Knobs) (int, string) { return k.FnPtrPct, num(k.FnPtrPct) }},
		{"heap", func(k corpusgen.Knobs) (int, string) { return k.HeapPct, num(k.HeapPct) }},
		{"rec", func(k corpusgen.Knobs) (int, string) {
			if k.Recursion {
				return 1, "on"
			}
			return 0, "off"
		}},
	}
	for _, ax := range axes {
		byVal := map[int][]PopulationUnit{}
		labels := map[int]string{}
		var keys []int
		for _, u := range units {
			if u.Err != nil || u.Ops == 0 {
				continue
			}
			v, label := ax.val(u.Knobs)
			if _, seen := byVal[v]; !seen {
				keys = append(keys, v)
				labels[v] = label
			}
			byVal[v] = append(byVal[v], u)
		}
		sort.Ints(keys)
		for _, v := range keys {
			b := KnobBucket{Axis: ax.name, Value: labels[v]}
			var sum float64
			for _, u := range byVal[v] {
				p := u.pct(u.AgreeCI)
				sum += p
				if p >= 100 {
					b.Full++
				}
			}
			b.Units = len(byVal[v])
			b.MeanCI = sum / float64(b.Units)
			res.Breakdown = append(res.Breakdown, b)
		}
	}
	return res
}

// WritePopulation renders the population study as text.
func WritePopulation(w io.Writer, res *PopulationResult) {
	headers := []string{"backend", "units", "mean", "median", "p5", "p95", "min", "at 100%"}
	row := func(name string, d Distribution) []string {
		return []string{name, report.Itoa(d.Units),
			report.F2(d.Mean), report.F2(d.Median), report.F2(d.P5), report.F2(d.P95), report.F2(d.Min),
			fmt.Sprintf("%d (%s%%)", d.Full, report.F2(100*float64(d.Full)/math.Max(1, float64(d.Units))))}
	}
	report.Table(w, "Indirect agreement vs CS across the population (% of indirect ops)", headers, [][]string{
		row(backend.CI.String(), res.CI),
		row(backend.Andersen.String(), res.Andersen),
		row(backend.Steensgaard.String(), res.Steensgaard),
	})
	fmt.Fprintf(w, "\npopulation: %d units, %d failed, %d with no indirect operations (excluded)\n",
		res.Total, len(res.Failed), res.NoIndirect)

	bh := []string{"knob", "value", "units", "mean CI agreement", "at 100%"}
	var brows [][]string
	for _, b := range res.Breakdown {
		brows = append(brows, []string{b.Axis, b.Value, report.Itoa(b.Units), report.F2(b.MeanCI),
			fmt.Sprintf("%d (%s%%)", b.Full, report.F2(100*float64(b.Full)/math.Max(1, float64(b.Units))))})
	}
	fmt.Fprintln(w)
	report.Table(w, "CI-vs-CS agreement per structural knob", bh, brows)
	for _, name := range res.Failed {
		fmt.Fprintf(w, "failed: %s\n", name)
	}
}

// Population JSON mirrors the text report with only deterministic
// quantities (agreement is a pure function of the analyses, which are
// deterministic), so the bytes are identical at every -jobs width.

// DistributionJSON mirrors Distribution with fixed-precision floats.
type DistributionJSON struct {
	Units  int     `json:"units"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	P5     float64 `json:"p5"`
	P95    float64 `json:"p95"`
	Min    float64 `json:"min"`
	Full   int     `json:"full"`
}

// KnobBucketJSON mirrors KnobBucket.
type KnobBucketJSON struct {
	Axis   string  `json:"axis"`
	Value  string  `json:"value"`
	Units  int     `json:"units"`
	MeanCI float64 `json:"meanCI"`
	Full   int     `json:"full"`
}

// PopulationJSON is the machine-readable population study.
type PopulationJSON struct {
	Total       int              `json:"total"`
	Failed      []string         `json:"failed,omitempty"`
	NoIndirect  int              `json:"noIndirect"`
	CI          DistributionJSON `json:"ci"`
	Andersen    DistributionJSON `json:"andersen"`
	Steensgaard DistributionJSON `json:"steensgaard"`
	Breakdown   []KnobBucketJSON `json:"breakdown"`
}

// round2 fixes agreement floats to two decimals so the JSON encoding is
// short and byte-stable.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

func distributionJSON(d Distribution) DistributionJSON {
	return DistributionJSON{Units: d.Units, Mean: round2(d.Mean), Median: round2(d.Median),
		P5: round2(d.P5), P95: round2(d.P95), Min: round2(d.Min), Full: d.Full}
}

// WritePopulationJSON renders the population study as indented JSON,
// byte-identical at every -jobs width.
func WritePopulationJSON(w io.Writer, res *PopulationResult) error {
	doc := PopulationJSON{
		Total:       res.Total,
		Failed:      res.Failed,
		NoIndirect:  res.NoIndirect,
		CI:          distributionJSON(res.CI),
		Andersen:    distributionJSON(res.Andersen),
		Steensgaard: distributionJSON(res.Steensgaard),
	}
	for _, b := range res.Breakdown {
		doc.Breakdown = append(doc.Breakdown, KnobBucketJSON{
			Axis: b.Axis, Value: b.Value, Units: b.Units, MeanCI: round2(b.MeanCI), Full: b.Full,
		})
	}
	return report.EncodeJSON(w, doc)
}
