package experiments

import (
	"aliaslab/internal/core"
	"aliaslab/internal/obs"
	"aliaslab/internal/solver"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// Metric stability rationale. A metric is registered Deterministic only
// when it is a pure function of the analysis results, which the
// determinism oracle proves identical at every -jobs width (for batches
// that complete without budget cancellation): unit counts, VDG sizes,
// the CI engine's confluent counters, and the pairs-per-procedure
// distribution. Everything that depends on how the solver schedules its
// work rather than on what it computes — CS counters (subsumption makes
// even their step counts depend on the visit order), meet counts,
// worklist depth profiles — and everything that depends on the worker
// schedule, such as the count of units a deadline skipped, is Volatile. The FIFO engine
// repeats the visit order from run to run, but a change to the engine
// may move these counters with every answer unchanged, so they render
// only in the text tree and Chrome trace, never in the byte-stable
// metrics JSON.

// depthBounds buckets worklist depths; the corpus peaks in the
// hundreds, so 2^0..2^11 plus overflow covers pathological inputs too.
var depthBounds = obs.PowersOfTwo(12)

// pairBounds buckets per-procedure pair totals.
var pairBounds = obs.PowersOfTwo(10)

// recordUnit writes one analyzed unit's measurements into the batch
// metric registry. It runs on the worker that analyzed the unit; every
// write is an atomic add or CAS, so concurrent units never contend on a
// lock, and the commutative sums make the totals schedule-independent.
func recordUnit(reg *obs.Registry, r *ProgramResult) {
	if reg == nil {
		return
	}
	if r.Failed() {
		reg.Counter("units.failed", obs.Deterministic).Add(1)
	}
	if r.Capped {
		reg.Counter("units.capped", obs.Deterministic).Add(1)
	}
	if r.Unit == nil {
		return
	}
	reg.Counter("units.analyzed", obs.Deterministic).Add(1)

	s := stats.Sizes(r.Name, r.Unit.SourceLines, r.Unit.Graph)
	reg.Counter("vdg.nodes", obs.Deterministic).Add(int64(s.Nodes))
	reg.Counter("vdg.aliasOutputs", obs.Deterministic).Add(int64(s.AliasOutputs))

	if r.CI != nil {
		recordEngine(reg, "solve.ci", obs.Deterministic, r.CI.Engine)
		recordPairsPerProc(reg, r.Unit.Graph, r.CISets)
	}
	if r.CS != nil {
		// CS counters are Volatile wholesale: subsumption depends on
		// the visit order, and a dropped pair changes what gets
		// re-enqueued, so even Steps follows the schedule, not only
		// the fixpoint.
		recordEngine(reg, "solve.cs", obs.Volatile, r.CS.Engine)
	}
}

// recordEngine accumulates one solver run's counters under the given
// prefix. Steps, PairInserts, and Enqueued inherit the caller's
// stability class (confluent for CI, order-dependent for CS); Meets and
// the depth profile are order-dependent for every analysis.
func recordEngine(reg *obs.Registry, prefix string, st obs.Stability, es solver.Stats) {
	reg.Counter(prefix+".steps", st).Add(int64(es.Steps))
	reg.Counter(prefix+".pairInserts", st).Add(int64(es.PairInserts))
	reg.Counter(prefix+".enqueued", st).Add(int64(es.Enqueued))
	reg.Counter(prefix+".meets", obs.Volatile).Add(int64(es.Meets))
	reg.Counter(prefix+".subsumeHits", obs.Volatile).Add(int64(es.SubsumeHits))
	reg.Counter(prefix+".subsumeDrops", obs.Volatile).Add(int64(es.SubsumeDrops))
	reg.Histogram("solve.worklist.peakDepth", obs.Volatile, depthBounds).Observe(int64(es.PeakDepth))
	reg.Histogram("solve.worklist.meanDepth", obs.Volatile, depthBounds).Observe(int64(es.MeanDepth()))
}

// recordPairsPerProc observes the distribution of context-insensitive
// pairs per procedure — the paper's "most procedures have few aliases"
// shape, as a histogram. The per-procedure totals are a pure function
// of the converged CI sets, hence Deterministic.
func recordPairsPerProc(reg *obs.Registry, g *vdg.Graph, sets map[*vdg.Output]*core.PairSet) {
	h := reg.Histogram("solve.ci.pairsPerProc", obs.Deterministic, pairBounds)
	for _, fg := range g.Funcs {
		total := 0
		for _, n := range fg.Nodes {
			for _, o := range n.Outputs {
				if ps := sets[o]; ps != nil {
					total += ps.Len()
				}
			}
		}
		h.Observe(int64(total))
	}
}
