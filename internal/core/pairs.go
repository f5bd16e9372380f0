// Package core implements the paper's analyses: the context-insensitive
// points-to analysis of Figure 1 and the maximally context-sensitive
// variant of Figure 5 with its assumption sets, subsumption rule, and
// the two CI-driven pruning optimizations of §4.2.
//
// The representation work lives in domain.go (the dense pair domain and
// hashed assumption-set interning); the fixpoint loop itself is owned by
// internal/solver, which both analyses drive through per-node transfer
// functions.
package core

import (
	"fmt"
	"strings"

	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// Pair is one points-to pair (path, referent): indirecting through any
// location (or offset) denoted by Path may return any location denoted
// by Ref. Paths are interned, so Pair is comparable.
type Pair struct {
	Path *paths.Path
	Ref  *paths.Path
}

func (p Pair) String() string {
	return fmt.Sprintf("(%s → %s)", p.Path, p.Ref)
}

// less orders pairs deterministically by interned path IDs.
func (p Pair) less(q Pair) bool {
	if p.Path.ID() != q.Path.ID() {
		return p.Path.ID() < q.Path.ID()
	}
	return p.Ref.ID() < q.Ref.ID()
}

// ---------------------------------------------------------------------------
// Assumption sets (context-sensitive analysis)

// Assumption states that Pair must hold on the formal-parameter output
// Formal of the enclosing procedure for a qualified pair to be valid.
type Assumption struct {
	Formal *vdg.Output
	P      Pair
}

func (a Assumption) String() string {
	return fmt.Sprintf("(%s, %s)", a.Formal, a.P)
}

func (a Assumption) less(b Assumption) bool {
	if a.Formal.ID != b.Formal.ID {
		return a.Formal.ID < b.Formal.ID
	}
	return a.P.less(b.P)
}

// ASet is an interned, canonically sorted assumption set. Interning
// makes subset tests cheap to memoize and equality a pointer compare.
type ASet struct {
	Elems []Assumption // sorted, no duplicates
}

// Empty reports whether the set has no assumptions.
func (s *ASet) Empty() bool { return len(s.Elems) == 0 }

// Len returns the number of assumptions.
func (s *ASet) Len() int { return len(s.Elems) }

func (s *ASet) String() string {
	var parts []string
	for _, a := range s.Elems {
		parts = append(parts, a.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SubsetOf reports whether every assumption of s is in t.
// Both are sorted, so this is a linear merge.
func (s *ASet) SubsetOf(t *ASet) bool {
	if s == t {
		return true
	}
	if len(s.Elems) > len(t.Elems) {
		return false
	}
	i := 0
	for _, a := range t.Elems {
		if i == len(s.Elems) {
			return true
		}
		if s.Elems[i] == a {
			i++
		} else if s.Elems[i].less(a) {
			return false // passed the point where s.Elems[i] could appear
		}
	}
	return i == len(s.Elems)
}

// QPair is a qualified points-to pair: the pair holds on an output
// whenever every assumption in A holds on entry to the enclosing
// procedure.
type QPair struct {
	P Pair
	A *ASet
}

func (q QPair) String() string { return q.P.String() + q.A.String() }

// QSet stores qualified pairs per plain pair as a minimal antichain of
// assumption sets: arrivals subsumed by an existing weaker set are
// discarded, and existing stronger sets are dropped when a weaker one
// arrives (they have already propagated; keeping them adds nothing).
// Plain pairs are held as packed keys and decoded on read.
type QSet struct {
	u    *paths.Universe
	m    map[Key][]*ASet
	keys []Key // insertion order of first appearance
}

// NewQSet returns an empty set whose pairs are interned in u.
func NewQSet(u *paths.Universe) *QSet { return &QSet{u: u} }

// Add inserts q, reporting whether it survived subsumption (and thus
// must be propagated).
func (s *QSet) Add(q QPair) bool {
	added, _ := s.AddCounted(q)
	return added
}

// AddCounted is Add with the subsumption accounting the engine counters
// want: dropped is the number of existing stronger assumption sets the
// arrival displaced (0 when the arrival itself was subsumed).
func (s *QSet) AddCounted(q QPair) (added bool, dropped int) {
	return s.addKey(KeyOf(q.P), q.A)
}

func (s *QSet) addKey(k Key, as *ASet) (added bool, dropped int) {
	if s.m == nil {
		s.m = make(map[Key][]*ASet)
	}
	sets, seen := s.m[k]
	if !seen {
		s.keys = append(s.keys, k)
	}
	for _, a := range sets {
		if a.SubsetOf(as) {
			return false, 0 // already holds under a weaker assumption
		}
	}
	kept := sets[:0]
	for _, a := range sets {
		if !as.SubsetOf(a) {
			kept = append(kept, a)
		}
	}
	dropped = len(sets) - len(kept)
	s.m[k] = append(kept, as)
	return true, dropped
}

// Keys returns the distinct plain pairs, packed, in first-appearance
// order. The caller must not mutate the slice.
func (s *QSet) Keys() []Key { return s.keys }

// Pairs returns the distinct plain pairs in first-appearance order.
func (s *QSet) Pairs() []Pair {
	var out []Pair
	for _, k := range s.keys {
		out = append(out, Decode(s.u, k))
	}
	return out
}

// Sets returns the antichain of assumption sets under which p holds.
func (s *QSet) Sets(p Pair) []*ASet { return s.m[KeyOf(p)] }

// All returns every qualified pair currently stored, in deterministic
// order.
func (s *QSet) All() []QPair {
	var out []QPair
	for _, k := range s.keys {
		p := Decode(s.u, k)
		for _, a := range s.m[k] {
			out = append(out, QPair{P: p, A: a})
		}
	}
	return out
}

// Len returns the number of stored qualified pairs.
func (s *QSet) Len() int {
	n := 0
	for _, sets := range s.m {
		n += len(sets)
	}
	return n
}

// PairCount returns the number of distinct plain pairs.
func (s *QSet) PairCount() int { return len(s.keys) }
