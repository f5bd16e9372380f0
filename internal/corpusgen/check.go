package corpusgen

import (
	"fmt"

	"aliaslab/internal/oracle"
	"aliaslab/internal/vdg"
)

// CheckResult is the oracle verdict on one generated program.
type CheckResult struct {
	Name       string
	Violations []oracle.Violation

	// LoadErr is set when the front end rejects the program — on
	// generated input that is itself a generator bug, and the -check
	// driver treats it as a failure.
	LoadErr error
}

// OK reports whether the unit loaded and passed every invariant.
func (c CheckResult) OK() bool {
	return c.LoadErr == nil && len(c.Violations) == 0
}

// checkSteps bounds each context-sensitive oracle attempt on generated
// units. Generated programs are small (tens of functions); a unit that
// needs more steps than this is adversarial, and the oracle's own
// refusal error then surfaces as a violation rather than a hang.
const checkSteps = 2_000_000

// CheckUnit runs the full oracle lattice on one generated program:
// every theorem invariant (CS ⊆ CI ⊆ Andersen ⊆ Steensgaard, the
// widening lattice, governed-full).
// Indirect agreement is the paper's *empirical* claim, not a theorem —
// generated programs are free to disagree, so it is measured by the
// population study rather than asserted here.
func CheckUnit(p Program) CheckResult {
	u, err := p.Load(vdg.Options{})
	if err != nil {
		return CheckResult{Name: p.Name, LoadErr: fmt.Errorf("front end rejected generated program: %w", err)}
	}
	opts := oracle.Options{
		ExpectIndirectAgreement: false,
		MaxSteps:                checkSteps,
	}
	return CheckResult{Name: p.Name, Violations: oracle.Check(p.Name, u, opts)}
}

// StillFails builds a Shrink predicate from a failing program: the
// candidate text must load and break at least one of the same oracle
// invariants. Used by -check to minimize a violation into a committed
// reproducer.
func StillFails(p Program) func(string) bool {
	orig := CheckUnit(p)
	broke := map[string]bool{}
	for _, v := range orig.Violations {
		broke[v.Invariant] = true
	}
	return func(src string) bool {
		cand := CheckUnit(Program{Name: p.Name, Seed: p.Seed, Index: p.Index, Knobs: p.Knobs, Source: src})
		if cand.LoadErr != nil {
			// A candidate the front end rejects is not a smaller witness
			// of an analysis bug; validity is part of the predicate.
			return false
		}
		for _, v := range cand.Violations {
			if broke[v.Invariant] {
				return true
			}
		}
		return false
	}
}
