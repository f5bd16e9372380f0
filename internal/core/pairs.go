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

	next *ASet // the next set of the same hash in its ATable
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
//
// The plain pairs are a PairSet of packed keys, so position i of the
// key list names one pair, and the antichains run parallel to it.
// Almost every antichain has one element; that element sits in one[i]
// and needs no slice of its own. A pair whose antichain grows past one
// element has one[i] == nil and its elements in many[i].
type QSet struct {
	set  PairSet
	one  []*ASet           // by key position; nil when the antichain is in many
	many map[int32][]*ASet // by key position: antichains of two or more sets
}

// NewQSet returns an empty set whose pairs are interned in u.
func NewQSet(u *paths.Universe) *QSet { return &QSet{set: PairSet{u: u}} }

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

// addKey inserts the packed pair k under as. A surviving arrival goes
// to the end of its pair's antichain, after the sets it did not
// displace, so the antichain keeps arrival order.
func (s *QSet) addKey(k Key, as *ASet) (added bool, dropped int) {
	pos, isNew := s.set.insert(k)
	if isNew {
		s.one = append(s.one, as)
		return true, 0
	}
	if a := s.one[pos]; a != nil {
		switch {
		case a.SubsetOf(as):
			return false, 0 // already holds under a weaker assumption
		case as.SubsetOf(a):
			s.one[pos] = as
			return true, 1
		}
		if s.many == nil {
			s.many = make(map[int32][]*ASet)
		}
		s.one[pos] = nil
		s.many[int32(pos)] = []*ASet{a, as}
		return true, 0
	}
	sets := s.many[int32(pos)]
	for _, a := range sets {
		if a.SubsetOf(as) {
			return false, 0
		}
	}
	kept := sets[:0]
	for _, a := range sets {
		if !as.SubsetOf(a) {
			kept = append(kept, a)
		}
	}
	dropped = len(sets) - len(kept)
	if len(kept) == 0 {
		delete(s.many, int32(pos))
		s.one[pos] = as
	} else {
		s.many[int32(pos)] = append(kept, as)
	}
	return true, dropped
}

// Keys returns the distinct plain pairs, packed, in first-appearance
// order. The caller must not mutate the slice.
func (s *QSet) Keys() []Key { return s.set.keys }

// Pairs returns the distinct plain pairs in first-appearance order.
func (s *QSet) Pairs() []Pair { return s.set.List() }

// Sets returns the antichain of assumption sets under which p holds.
// The slice is valid until the next Add and must not be mutated. A
// one-element antichain is a capacity-limited view of one, so even an
// append cannot write into a neighbour.
func (s *QSet) Sets(p Pair) []*ASet {
	pos, ok := s.set.find(KeyOf(p))
	switch {
	case !ok:
		return nil
	case s.one[pos] != nil:
		return s.one[pos : pos+1 : pos+1]
	}
	return s.many[int32(pos)]
}

// All returns every qualified pair currently stored, in deterministic
// order: pairs in first-appearance order, each pair's assumption sets
// in antichain order.
func (s *QSet) All() []QPair {
	keys, quals := s.appendFacts(nil, nil)
	if len(keys) == 0 {
		return nil
	}
	out := make([]QPair, len(keys))
	for i, k := range keys {
		out[i] = QPair{P: Decode(s.set.u, k), A: quals[i]}
	}
	return out
}

// appendFacts appends All's qualified pairs, packed, to keys and the
// assumption sets at the same indices to quals.
func (s *QSet) appendFacts(keys []Key, quals []*ASet) ([]Key, []*ASet) {
	for pos, k := range s.set.keys {
		if a := s.one[pos]; a != nil {
			keys, quals = append(keys, k), append(quals, a)
			continue
		}
		for _, a := range s.many[int32(pos)] {
			keys, quals = append(keys, k), append(quals, a)
		}
	}
	return keys, quals
}

// Len returns the number of stored qualified pairs.
func (s *QSet) Len() int {
	n := len(s.set.keys) - len(s.many)
	for _, sets := range s.many {
		n += len(sets)
	}
	return n
}

// PairCount returns the number of distinct plain pairs.
func (s *QSet) PairCount() int { return len(s.set.keys) }
