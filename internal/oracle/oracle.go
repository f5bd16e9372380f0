// Package oracle is the executable correctness oracle of the
// repository: differential and metamorphic invariants that tie the
// implemented analyses to the paper's claims, checkable on any
// translation unit. The test suite drives it over the whole embedded
// corpus and a set of checker-shaped fixtures; CI runs it on every
// push, so a change that breaks the paper's headline result — or the
// soundness lattice the degradation pipeline depends on — fails loudly
// instead of shipping as a quietly different table.
//
// The invariants, in decreasing order of strength:
//
//   - cs-subset-ci (theorem): the stripped context-sensitive solution
//     is a subset of the context-insensitive one on every output.
//     [Ruf95 §4.1: CI over-approximates CS.]
//   - backend-lattice (theorem): CI ⊆ Andersen ⊆ Steensgaard per
//     output. The constraint backends drop CI's kills and directed
//     copies in turn, so each solves a weaker system whose least
//     fixpoint can only grow; with cs-subset-ci this chains into the
//     four-way frontier CS ⊆ CI ⊆ Andersen ⊆ Steensgaard.
//   - widened-lattice (theorem): exact CS ⊆ widened CS ⊆ CI, per
//     output. Assumption-set widening only weakens qualified pairs, so
//     the widened fixpoint sits between the exact one and CI.
//   - governed-full (implementation contract): solve.Solve under no
//     budget pressure reports solve.Full and returns exactly the
//     requested analysis' solution.
//   - indirect-agreement (the paper's empirical headline): CI and CS
//     compute identical referent sets at the location input of every
//     indirect memory operation. This is NOT a theorem — it is the
//     measured result the paper's whole argument rests on — so callers
//     assert it only where the paper does (the corpus) or where they
//     have verified it holds (our fixtures).
package oracle

import (
	"fmt"

	"aliaslab/internal/backend"
	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/solve"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// Violation is one broken invariant on one unit.
type Violation struct {
	Program   string
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Program, v.Invariant, v.Detail)
}

// Options configures a unit check.
type Options struct {
	// ExpectIndirectAgreement additionally asserts the paper's
	// empirical headline: zero CI/CS delta at the location inputs of
	// indirect memory operations. Enable it for the corpus and for
	// fixtures known to agree; the theorem invariants run regardless.
	ExpectIndirectAgreement bool

	// WidenBounds are the assumption-set bounds to test the widening
	// lattice at; nil means {1, 2}. Cost grows steeply with the bound
	// on assumption-heavy programs — near the bound, sets keep merging
	// and re-triggering propagation, so a widened run can cost far more
	// than the exact one (on the corpus' "part", k=4 is ~700x slower
	// than exact). Small inputs can afford larger bounds too, e.g.
	// {1, 2, 4}.
	WidenBounds []int

	// MaxSteps bounds each context-sensitive attempt (0 = a generous
	// default; the oracle refuses to run unbounded CS on adversarial
	// input).
	MaxSteps int
}

func (o Options) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 100_000_000
}

func (o Options) widenBounds() []int {
	if len(o.WidenBounds) > 0 {
		return o.WidenBounds
	}
	return []int{1, 2}
}

// Check runs every invariant on one unit and returns the violations
// (empty when the unit satisfies the oracle).
func Check(name string, u *driver.Unit, opts Options) []Violation {
	var vs []Violation
	add := func(invariant, format string, args ...any) {
		vs = append(vs, Violation{Program: name, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	// Every backend through the one dispatch the surfaces use, each
	// attempt under the oracle's step cap.
	budget := limits.Budget{MaxSteps: opts.maxSteps()}
	out := make(map[backend.Kind]*solve.Outcome)
	for _, k := range backend.Kinds() {
		out[k] = solve.Solve(k, u.Graph, budget, nil)
	}
	ci, cs := out[backend.CI].CI, out[backend.CS]
	if cs.Degraded() {
		add("cs-converges", "context-sensitive analysis did not converge within %d steps", opts.maxSteps())
		return vs
	}
	csSets := cs.Sets

	// The lattice, adjacent kinds in precision order: cs-subset-ci is
	// the paper's CI ⊇ CS; the flow-insensitive constraint backends
	// bound CI from above, completing CS ⊆ CI ⊆ Andersen ⊆ Steensgaard.
	ks := backend.Kinds()
	for i := 1; i < len(ks); i++ {
		sub, super := out[ks[i-1]], out[ks[i]]
		if super.Degraded() {
			add("backend-lattice", "%s stopped early: %v", ks[i], super.Stopped)
			continue
		}
		vs = append(vs, SubsetPerOutput(name, fmt.Sprintf("%s-subset-%s", ks[i-1], ks[i]), u.Graph, sub.Sets, super.Sets)...)
	}

	// widened-lattice: exact ⊆ widened ⊆ CI at every tested bound.
	// Tighter bounds discard more assumptions, so each widened run is
	// its own sound over-approximation of the exact fixpoint.
	for _, k := range opts.widenBounds() {
		w := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: opts.maxSteps(), MaxAssumptions: k})
		if w.Aborted {
			add("widened-lattice", "widened (k=%d) analysis did not converge", k)
			continue
		}
		if !w.Widened {
			add("widened-lattice", "widened (k=%d) run does not report Widened", k)
		}
		wSets := w.Strip()
		vs = append(vs, SubsetPerOutput(name, fmt.Sprintf("exact-subset-widened(k=%d)", k), u.Graph, csSets, wSets)...)
		vs = append(vs, SubsetPerOutput(name, fmt.Sprintf("widened(k=%d)-subset-ci", k), u.Graph, wSets, ci.Sets)...)
	}

	// governed-full: the dispatch under no budget pressure returns
	// exactly the context-sensitive solver's own answer.
	ref := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci, MaxSteps: opts.maxSteps()})
	if ref.Aborted {
		add("governed-full", "reference context-sensitive analysis did not converge within %d steps", opts.maxSteps())
	} else {
		vs = append(vs, EqualPerOutput(name, "governed-full", u.Graph, csSets, ref.Strip())...)
	}

	// indirect-agreement: the paper's headline, where expected.
	if opts.ExpectIndirectAgreement {
		if diff := stats.IndirectDiff(u.Graph, ci.Sets, csSets); len(diff) > 0 {
			add("indirect-agreement", "%d indirect operations have different referent sets under CI and CS (first at %s)",
				len(diff), diff[0].Pos)
		}
	}
	return vs
}

// SubsetPerOutput checks sub ⊆ super on every output of the graph and
// reports each output where it fails. All three solutions of one unit
// share the unit's interned path universe, so pair identity is exact.
func SubsetPerOutput(name, invariant string, g *vdg.Graph, sub, super map[*vdg.Output]*core.PairSet) []Violation {
	var vs []Violation
	g.Outputs(func(o *vdg.Output) {
		s := sub[o]
		if s == nil || s.Len() == 0 {
			return
		}
		sup := super[o]
		for _, k := range s.Keys() {
			if sup == nil || !sup.HasKey(k) {
				vs = append(vs, Violation{Program: name, Invariant: invariant,
					Detail: fmt.Sprintf("pair %v on output of %s node at %s is missing from the superset", s.Pair(k), o.Node.Kind, o.Node.Pos)})
				return // one pair per output keeps reports readable
			}
		}
	})
	return vs
}

// EqualPerOutput checks that two solutions carry exactly the same pairs
// on every output.
func EqualPerOutput(name, invariant string, g *vdg.Graph, a, b map[*vdg.Output]*core.PairSet) []Violation {
	vs := SubsetPerOutput(name, invariant+" (a⊆b)", g, a, b)
	return append(vs, SubsetPerOutput(name, invariant+" (b⊆a)", g, b, a)...)
}
