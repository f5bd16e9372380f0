package core

import (
	"aliaslab/internal/limits"
	"aliaslab/internal/vdg"
)

// DemandOptions configures a demand-driven (sliced) CI solve.
type DemandOptions struct {
	// Slice is the set of outputs the caller wants solved. It must be
	// backward-closed under the CI dependency relation (every output
	// whose pairs can influence a slice member is itself a member —
	// internal/query computes such closures); on a closed slice the
	// demand fixpoint equals the exhaustive fixpoint restricted to the
	// slice, which oracle.CheckDemand asserts. A nil slice means "all
	// outputs" and degenerates to the exhaustive solve.
	Slice map[*vdg.Output]bool

	// Budget optionally bounds the solve; Result.Stopped reports a trip.
	Budget limits.Budget
}

// AnalyzeDemand runs the context-insensitive points-to analysis
// restricted to a slice of the VDG: seeding initializes only base
// locations inside the slice, and every emission targeting an output
// outside the slice is dropped. It is the exhaustive solver with a
// filter on where work may land, so per-output results on the slice
// are identical to AnalyzeInsensitive by construction.
func AnalyzeDemand(g *vdg.Graph, opts DemandOptions) *Result {
	return solveInsensitive(g, opts.Slice, opts.Budget)
}
