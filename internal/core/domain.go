// Dense pair domain. Paths are interned with dense creation-order IDs,
// so a points-to pair packs into one uint64 Key, and every solver
// stores and queues pairs as keys; *paths.Path values appear only when
// a transfer function needs a path's structure or a reader decodes a
// finished set through the universe's ID table. A PairSet is its keys
// in insertion order plus, once it outgrows a linear scan, a
// pointer-free open-addressed index over them. Assumption-set
// interning likewise keys on an FNV-1a hash of the ID triples instead
// of building a string per lookup; hash collisions are resolved by
// element comparison, so interning stays exact.
package core

import (
	"math/bits"
	"slices"

	"aliaslab/internal/paths"
)

// Key is a points-to pair packed into one word: path ID in the high 32
// bits, referent ID in the low. Keys order exactly like Pair.less, and
// path universes stay far below 2^32 paths (the pair budget trips
// first by orders of magnitude).
type Key uint64

// KeyOf packs p.
func KeyOf(p Pair) Key { return PackKey(p.Path.ID(), p.Ref.ID()) }

// PackKey packs the pair (path, referent) given by interned path IDs.
func PackKey(pathID, refID int) Key {
	return Key(uint32(pathID))<<32 | Key(uint32(refID))
}

// PathID returns the ID of the pair's path.
func (k Key) PathID() int { return int(k >> 32) }

// RefID returns the ID of the pair's referent.
func (k Key) RefID() int { return int(uint32(k)) }

// EmptyPath reports whether the pair's path is ε, i.e. whether the
// pair is a pointer value's referent rather than a store or offset
// pair.
func (k Key) EmptyPath() bool { return k>>32 == paths.EmptyID }

// Decode unpacks k through the universe that interned its paths.
func Decode(u *paths.Universe, k Key) Pair {
	return Pair{Path: u.ByID(k.PathID()), Ref: u.ByID(k.RefID())}
}

// pairSetSmall is the membership-scan threshold: sets at or below this
// size dedupe by scanning the key slice, larger ones carry an index.
// Most outputs hold a handful of pairs; the scan beats hashing there
// and never allocates.
const pairSetSmall = 16

// PairSet is an insertion-ordered set of pairs over the dense pair
// domain. Iterating it gives a deterministic order when the
// construction sequence is deterministic, which the solver engine's
// FIFO queue guarantees. Reads never modify the set, so a finished set
// may be read from many goroutines at once.
type PairSet struct {
	u    *paths.Universe
	keys []Key // insertion order

	// index is an open-addressed, linearly probed table of positions
	// in keys, plus one (0 marks a free slot), nil until the set
	// outgrows the scan. Its length is a power of two at least twice
	// len(keys).
	index []uint32
}

// NewPairSet returns an empty set whose pairs are interned in u. The
// zero PairSet is a valid empty set to read, but it cannot decode
// pairs added to it.
func NewPairSet(u *paths.Universe) *PairSet { return &PairSet{u: u} }

// NewPairSets returns n empty sets whose pairs are interned in u,
// allocated together in one array.
func NewPairSets(u *paths.Universe, n int) []*PairSet {
	sets := make([]PairSet, n)
	out := make([]*PairSet, n)
	for i := range sets {
		sets[i].u = u
		out[i] = &sets[i]
	}
	return out
}

// slot is the home slot of k in an index of 1<<(64-shift) slots
// (Fibonacci hashing: the top bits of the product depend on every bit
// of k).
func slot(k Key, shift int) int {
	return int(uint64(k) * 0x9E3779B97F4A7C15 >> shift)
}

// shift returns the slot shift of the current index.
func (s *PairSet) shift() int {
	return 64 - bits.TrailingZeros(uint(len(s.index)))
}

// Add inserts p, reporting whether it was new.
func (s *PairSet) Add(p Pair) bool { return s.AddKey(KeyOf(p)) }

// AddKey inserts the packed pair k, reporting whether it was new.
func (s *PairSet) AddKey(k Key) bool {
	_, added := s.insert(k)
	return added
}

// insert adds k unless present and returns its position in insertion
// order either way.
func (s *PairSet) insert(k Key) (pos int, added bool) {
	if s.index == nil {
		for i, kk := range s.keys {
			if kk == k {
				return i, false
			}
		}
		if s.keys == nil {
			s.keys = make([]Key, 0, 4)
		}
		s.keys = append(s.keys, k)
		if len(s.keys) > pairSetSmall {
			s.rehash(4 * len(s.keys))
		}
		return len(s.keys) - 1, true
	}
	mask := len(s.index) - 1
	i := slot(k, s.shift())
	for {
		p := s.index[i]
		if p == 0 {
			s.keys = append(s.keys, k)
			s.index[i] = uint32(len(s.keys))
			if 2*len(s.keys) > len(s.index) {
				s.rehash(2 * len(s.index))
			}
			return len(s.keys) - 1, true
		}
		if s.keys[p-1] == k {
			return int(p - 1), false
		}
		i = (i + 1) & mask
	}
}

// rehash rebuilds the index with at least n slots from the key slice.
func (s *PairSet) rehash(n int) {
	s.index = make([]uint32, 1<<bits.Len(uint(n-1)))
	mask := len(s.index) - 1
	shift := s.shift()
	for p, k := range s.keys {
		i := slot(k, shift)
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = uint32(p + 1)
	}
}

// Has reports membership.
func (s *PairSet) Has(p Pair) bool { return s.HasKey(KeyOf(p)) }

// HasKey reports membership of the packed pair k.
func (s *PairSet) HasKey(k Key) bool {
	_, ok := s.find(k)
	return ok
}

// find returns the insertion-order position of k.
func (s *PairSet) find(k Key) (pos int, ok bool) {
	if s.index == nil {
		for i, kk := range s.keys {
			if kk == k {
				return i, true
			}
		}
		return 0, false
	}
	mask := len(s.index) - 1
	for i := slot(k, s.shift()); ; i = (i + 1) & mask {
		p := s.index[i]
		if p == 0 {
			return 0, false
		}
		if s.keys[p-1] == k {
			return int(p - 1), true
		}
	}
}

// Len returns the number of pairs.
func (s *PairSet) Len() int { return len(s.keys) }

// Keys returns the packed pairs in insertion order. The slice is the
// set's own; the caller must not mutate it.
func (s *PairSet) Keys() []Key { return s.keys }

// Pair decodes one of the set's keys.
func (s *PairSet) Pair(k Key) Pair { return Decode(s.u, k) }

// List returns the pairs in insertion order, decoded into a fresh
// slice the caller owns.
func (s *PairSet) List() []Pair { return s.decode(s.keys) }

// Sorted returns the pairs ordered by interned path IDs.
func (s *PairSet) Sorted() []Pair {
	keys := slices.Clone(s.keys)
	slices.Sort(keys)
	return s.decode(keys)
}

func (s *PairSet) decode(keys []Key) []Pair {
	if len(keys) == 0 {
		return nil
	}
	out := make([]Pair, len(keys))
	for i, k := range keys {
		out[i] = Decode(s.u, k)
	}
	return out
}

// Referents returns the distinct referent locations of the set's
// ε-path pairs — the locations a pointer value may denote — in
// first-appearance order, in a fresh slice. Pairs are distinct and
// share the ε path, so their referents are distinct too.
func (s *PairSet) Referents() []*paths.Path {
	var out []*paths.Path
	for _, k := range s.keys {
		if k.EmptyPath() {
			out = append(out, s.u.ByID(k.RefID()))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Assumption-set interning (hashed on ID triples)

// aHash is an FNV-1a hash over the (formal, path, referent) ID triples
// of a canonical (sorted, deduplicated) assumption slice.
func aHash(elems []Assumption) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, a := range elems {
		mix(uint64(a.Formal.ID))
		mix(uint64(a.P.Path.ID()))
		mix(uint64(a.P.Ref.ID()))
	}
	return h
}

// assumptionsEqual compares two canonical slices element-wise
// (assumptions are comparable structs of interned pointers).
func assumptionsEqual(a, b []Assumption) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ATable interns assumption sets, keyed by the FNV-1a hash of their ID
// triples; sets sharing a hash chain through ASet.next, and a hash hit
// is confirmed by element comparison before the interned set is reused,
// so two distinct sets can never alias even under a hash collision.
//
// Make and Union build their canonical element slice in a scratch
// buffer and look it up there; only a new set copies its elements out,
// into chunks shared by the table's sets (an interned set never
// changes, so its elements can live beside another's).
type ATable struct {
	sets  map[uint64]*ASet
	empty *ASet

	scratch  []Assumption
	setSlab  []ASet       // unused interned sets, handed out in order
	elemSlab []Assumption // interned elements; spare capacity is free
}

// aSlab is the number of sets, and of elements, in one table chunk.
const aSlab = 64

// NewATable returns an empty intern table.
func NewATable() *ATable {
	return &ATable{sets: make(map[uint64]*ASet), empty: &ASet{}}
}

// EmptySet returns the interned empty assumption set.
func (t *ATable) EmptySet() *ASet { return t.empty }

// intern returns the canonical *ASet for a sorted, deduplicated
// element slice, creating it on first sight. The slice is copied on
// creation, so callers may reuse it.
func (t *ATable) intern(elems []Assumption) *ASet {
	if len(elems) == 0 {
		return t.empty
	}
	h := aHash(elems)
	first := t.sets[h]
	for s := first; s != nil; s = s.next {
		if assumptionsEqual(s.Elems, elems) {
			return s
		}
	}
	if len(t.setSlab) == 0 {
		t.setSlab = make([]ASet, aSlab)
	}
	s := &t.setSlab[0]
	t.setSlab = t.setSlab[1:]
	n := len(elems)
	if cap(t.elemSlab)-len(t.elemSlab) < n {
		t.elemSlab = make([]Assumption, 0, max(aSlab, n))
	}
	l := len(t.elemSlab)
	t.elemSlab = append(t.elemSlab, elems...)
	s.Elems = t.elemSlab[l : l+n : l+n]
	s.next = first
	t.sets[h] = s
	return s
}

// Make interns the set containing the given assumptions (deduplicated
// and sorted).
func (t *ATable) Make(elems ...Assumption) *ASet {
	if len(elems) == 0 {
		return t.empty
	}
	sorted := append(t.scratch[:0], elems...)
	slices.SortFunc(sorted, func(a, b Assumption) int {
		switch {
		case a.less(b):
			return -1
		case b.less(a):
			return 1
		}
		return 0
	})
	dedup := sorted[:1]
	for _, a := range sorted[1:] {
		if a != dedup[len(dedup)-1] {
			dedup = append(dedup, a)
		}
	}
	t.scratch = sorted
	return t.intern(dedup)
}

// Union returns the interned union of a and b.
func (t *ATable) Union(a, b *ASet) *ASet {
	if a == b || b.Empty() {
		return a
	}
	if a.Empty() {
		return b
	}
	merged := t.scratch[:0]
	i, j := 0, 0
	for i < len(a.Elems) && j < len(b.Elems) {
		switch {
		case a.Elems[i] == b.Elems[j]:
			merged = append(merged, a.Elems[i])
			i++
			j++
		case a.Elems[i].less(b.Elems[j]):
			merged = append(merged, a.Elems[i])
			i++
		default:
			merged = append(merged, b.Elems[j])
			j++
		}
	}
	merged = append(merged, a.Elems[i:]...)
	merged = append(merged, b.Elems[j:]...)
	t.scratch = merged
	return t.intern(merged)
}
