package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// fakeFormals creates distinct placeholder outputs to anchor assumptions.
var fakeFormals = []*vdg.Output{{ID: 1}, {ID: 2}, {ID: 3}}

// pairUniverse builds a small path universe and a pool of pairs for the
// property tests.
func pairUniverse() (*paths.Universe, []Pair) {
	u := paths.NewUniverse()
	var pool []Pair
	var locs []*paths.Path
	for _, name := range []string{"a", "b", "c"} {
		b := u.NewBase(paths.VarBase, name, false, false)
		locs = append(locs, u.Root(b))
		locs = append(locs, u.Field(u.Root(b), "f"))
	}
	h := u.NewBase(paths.HeapBase, "m", false, true)
	locs = append(locs, u.Root(h), u.Index(u.Root(h)))
	for _, p := range locs {
		for _, r := range locs {
			pool = append(pool, Pair{Path: p, Ref: r})
		}
	}
	return u, pool
}

func TestPairSetBasics(t *testing.T) {
	u, pool := pairUniverse()
	s := NewPairSet(u)
	if s.Len() != 0 || s.Has(pool[0]) {
		t.Fatal("fresh set not empty")
	}
	if !s.Add(pool[0]) || s.Add(pool[0]) {
		t.Fatal("Add idempotence broken")
	}
	s.Add(pool[1])
	if s.Len() != 2 || !s.Has(pool[1]) {
		t.Fatal("membership broken")
	}
	if len(s.List()) != 2 || len(s.Sorted()) != 2 {
		t.Fatal("views lost elements")
	}
	// Sorted must be ordered by (path, ref) IDs.
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if !sorted[i-1].less(sorted[i]) {
			t.Fatal("Sorted out of order")
		}
	}
}

func TestPairSetReferentsFilterEmptyPath(t *testing.T) {
	u, _ := pairUniverse()
	b := u.NewBase(paths.VarBase, "x", false, false)
	root := u.Root(b)
	s := NewPairSet(u)
	s.Add(Pair{Path: u.Empty(), Ref: root})               // value pair
	s.Add(Pair{Path: u.Field(u.Empty(), "f"), Ref: root}) // offset pair
	s.Add(Pair{Path: root, Ref: root})                    // store pair
	refs := s.Referents()
	if len(refs) != 1 || refs[0] != root {
		t.Fatalf("Referents = %v", refs)
	}
}

// Property: a PairSet behaves as a set — its List has no duplicates and
// exactly the elements added.
func TestQuickPairSetIsASet(t *testing.T) {
	u, pool := pairUniverse()
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewPairSet(u)
		want := make(map[Pair]bool)
		for i := 0; i < int(n); i++ {
			p := pool[r.Intn(len(pool))]
			s.Add(p)
			want[p] = true
		}
		if s.Len() != len(want) {
			return false
		}
		seen := make(map[Pair]bool)
		for _, p := range s.List() {
			if seen[p] || !want[p] {
				return false
			}
			seen[p] = true
		}
		return len(seen) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestASetSubsetAndUnion(t *testing.T) {
	_, pool := pairUniverse()
	at := NewATable()
	a1 := Assumption{Formal: fakeFormals[0], P: pool[0]}
	a2 := Assumption{Formal: fakeFormals[1], P: pool[1]}
	a3 := Assumption{Formal: fakeFormals[2], P: pool[2]}

	s12 := at.Make(a1, a2)
	s123 := at.Make(a1, a2, a3)
	s21 := at.Make(a2, a1)
	if s12 != s21 {
		t.Fatal("interning must canonicalize order")
	}
	if !s12.SubsetOf(s123) || s123.SubsetOf(s12) {
		t.Fatal("SubsetOf broken")
	}
	if !at.EmptySet().SubsetOf(s12) || s12.SubsetOf(at.EmptySet()) {
		t.Fatal("empty-set subset relations broken")
	}
	if got := at.Union(s12, at.Make(a3)); got != s123 {
		t.Fatalf("union = %v, want %v", got, s123)
	}
	if at.Union(s12, s12) != s12 {
		t.Fatal("self-union must intern to the same set")
	}
	if at.Make(a1, a1, a1) != at.Make(a1) {
		t.Fatal("duplicate elements must collapse")
	}
}

// Property: Union is commutative, associative, idempotent, and
// monotonic with respect to SubsetOf.
func TestQuickASetUnionLattice(t *testing.T) {
	_, pool := pairUniverse()
	at := NewATable()
	mk := func(r *rand.Rand) *ASet {
		var elems []Assumption
		for i := 0; i < r.Intn(4); i++ {
			elems = append(elems, Assumption{Formal: fakeFormals[r.Intn(3)], P: pool[r.Intn(len(pool))]})
		}
		return at.Make(elems...)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := mk(r), mk(r), mk(r)
		if at.Union(a, b) != at.Union(b, a) {
			return false
		}
		if at.Union(at.Union(a, b), c) != at.Union(a, at.Union(b, c)) {
			return false
		}
		if at.Union(a, a) != a {
			return false
		}
		u := at.Union(a, b)
		return a.SubsetOf(u) && b.SubsetOf(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQSetSubsumption(t *testing.T) {
	u, pool := pairUniverse()
	at := NewATable()
	a1 := Assumption{Formal: fakeFormals[0], P: pool[0]}
	a2 := Assumption{Formal: fakeFormals[1], P: pool[1]}

	s := NewQSet(u)
	p := pool[5]
	if !s.Add(QPair{P: p, A: at.Make(a1, a2)}) {
		t.Fatal("first add must succeed")
	}
	// A weaker set replaces the stronger one.
	if !s.Add(QPair{P: p, A: at.Make(a1)}) {
		t.Fatal("weaker set must be admitted")
	}
	// The stronger one is now subsumed.
	if s.Add(QPair{P: p, A: at.Make(a1, a2)}) {
		t.Fatal("stronger set must be subsumed")
	}
	if got := len(s.Sets(p)); got != 1 {
		t.Fatalf("antichain size %d, want 1", got)
	}
	// An incomparable set coexists.
	if !s.Add(QPair{P: p, A: at.Make(a2)}) {
		t.Fatal("incomparable set must be admitted")
	}
	if got := len(s.Sets(p)); got != 2 {
		t.Fatalf("antichain size %d, want 2", got)
	}
	// The empty set swallows everything.
	if !s.Add(QPair{P: p, A: at.EmptySet()}) {
		t.Fatal("empty set must be admitted")
	}
	if got := len(s.Sets(p)); got != 1 {
		t.Fatalf("antichain size %d after empty, want 1", got)
	}
	if s.PairCount() != 1 || s.Len() != 1 {
		t.Fatalf("counts: %d pairs, %d qpairs", s.PairCount(), s.Len())
	}
}

// Property: a QSet's per-pair assumption sets always form an antichain
// (no element is a subset of another).
func TestQuickQSetAntichain(t *testing.T) {
	u, pool := pairUniverse()
	at := NewATable()
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewQSet(u)
		for i := 0; i < int(n); i++ {
			var elems []Assumption
			for j := 0; j < r.Intn(4); j++ {
				elems = append(elems, Assumption{Formal: fakeFormals[r.Intn(3)], P: pool[r.Intn(6)]})
			}
			s.Add(QPair{P: pool[r.Intn(3)], A: at.Make(elems...)})
		}
		for _, p := range s.Pairs() {
			sets := s.Sets(p)
			for i := range sets {
				for j := range sets {
					if i != j && sets[i].SubsetOf(sets[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: QSet.Add is sound — after any sequence of adds, every added
// pair either appears directly or is covered by a weaker assumption set.
func TestQuickQSetCoverage(t *testing.T) {
	u, pool := pairUniverse()
	at := NewATable()
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewQSet(u)
		var added []QPair
		for i := 0; i < int(n); i++ {
			var elems []Assumption
			for j := 0; j < r.Intn(3); j++ {
				elems = append(elems, Assumption{Formal: fakeFormals[r.Intn(3)], P: pool[r.Intn(6)]})
			}
			q := QPair{P: pool[r.Intn(3)], A: at.Make(elems...)}
			s.Add(q)
			added = append(added, q)
		}
		for _, q := range added {
			covered := false
			for _, a := range s.Sets(q.P) {
				if a.SubsetOf(q.A) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
