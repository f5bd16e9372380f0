package core

// Tests of the dense pair domain: PairSet across its scan-to-index
// threshold, Referents against a recomputation, and the hashed
// assumption-set interning (including its collision buckets, which the
// FNV keying makes reachable in principle even though no natural input
// collides).

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"aliaslab/internal/paths"
)

// TestPairSetPromotion crosses the small-set scan threshold and checks
// that membership, deduplication, and insertion order hold on both
// sides of it: every pool pair is added once, and the second half of
// the pool is probed as non-members before it is added.
func TestPairSetPromotion(t *testing.T) {
	u, pool := pairUniverse()
	if len(pool) <= 2*pairSetSmall {
		t.Fatalf("pool too small to cross the %d-element threshold", pairSetSmall)
	}
	s := NewPairSet(u)
	for i, p := range pool {
		for _, q := range pool[i:] {
			if s.Has(q) {
				t.Fatalf("pair %v reported present before its add (set size %d)", q, s.Len())
			}
		}
		if !s.Add(p) {
			t.Fatalf("pair %d reported duplicate on first add", i)
		}
	}
	if s.Len() != len(pool) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(pool))
	}
	list := s.List()
	for i, p := range pool {
		if !s.Has(p) {
			t.Fatalf("pair %d lost past the threshold", i)
		}
		if s.Add(p) {
			t.Fatalf("pair %d re-added past the threshold", i)
		}
		if list[i] != p {
			t.Fatalf("insertion order broken at %d", i)
		}
	}
}

// Property: a PairSet matches a map[Pair]bool plus an insertion slice
// under random Add/Has/Len sequences long enough to cross the scan
// threshold and grow the index several times, and its ordered views
// (List, Keys, Sorted, Referents) agree with the model at checkpoints
// on both sides of every growth.
func TestQuickPairSetModel(t *testing.T) {
	u := paths.NewUniverse()
	var locs []*paths.Path
	for i := 0; i < 24; i++ {
		root := u.Root(u.NewBase(paths.VarBase, fmt.Sprintf("v%d", i), false, false))
		locs = append(locs, root, u.Field(root, "f"))
	}
	offsets := []*paths.Path{u.Empty(), u.Field(u.Empty(), "f"), u.Index(u.Empty())}
	var pool []Pair
	for _, ref := range locs {
		for _, p := range append(offsets, locs...) {
			pool = append(pool, Pair{Path: p, Ref: ref})
		}
	}
	checkViews := func(s *PairSet, order []Pair) bool {
		list := s.List()
		if len(list) != len(order) || len(s.Keys()) != len(order) {
			return false
		}
		var refs []*paths.Path
		for i, p := range order {
			if list[i] != p || s.Pair(s.Keys()[i]) != p || s.Keys()[i] != KeyOf(p) {
				return false
			}
			if p.Path == u.Empty() {
				refs = append(refs, p.Ref)
			}
		}
		sorted := s.Sorted()
		for i := 1; i < len(sorted); i++ {
			if !sorted[i-1].less(sorted[i]) {
				return false
			}
		}
		got := s.Referents()
		if len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Draw from a prefix of the pool so duplicates are common but
		// the set still grows well past the threshold.
		span := pairSetSmall + r.Intn(len(pool)-pairSetSmall)
		s := NewPairSet(u)
		model := make(map[Pair]bool)
		var order []Pair
		next := 1
		for op := 0; op < 3*span; op++ {
			p := pool[r.Intn(span)]
			if r.Intn(3) == 0 {
				if s.Has(p) != model[p] {
					return false
				}
				continue
			}
			if s.Add(p) == model[p] {
				return false
			}
			if !model[p] {
				model[p] = true
				order = append(order, p)
			}
			if s.Len() != len(order) {
				return false
			}
			if len(order) == next {
				if !checkViews(s, order) {
					return false
				}
				next = 2*next + 1
			}
		}
		for _, p := range pool {
			if s.Has(p) != model[p] {
				return false
			}
		}
		return checkViews(s, order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReferentsIncremental checks Referents against a recomputation
// from List after every few adds, across the scan threshold: distinct
// ε-path referents only, first-appearance order.
func TestReferentsIncremental(t *testing.T) {
	u, _ := pairUniverse()
	var locs []*paths.Path
	for _, name := range []string{"r0", "r1", "r2", "r3", "r4", "r5"} {
		b := u.NewBase(paths.VarBase, name, false, false)
		locs = append(locs, u.Root(b))
		locs = append(locs, u.Field(u.Root(b), "f"))
		locs = append(locs, u.Field(u.Root(b), "g"))
	}
	s := NewPairSet(u)
	check := func() {
		t.Helper()
		var want []*paths.Path
		seen := make(map[*paths.Path]bool)
		for _, p := range s.List() {
			if p.Path.IsEmptyOffset() && !seen[p.Ref] {
				seen[p.Ref] = true
				want = append(want, p.Ref)
			}
		}
		got := s.Referents()
		if len(got) != len(want) {
			t.Fatalf("Referents has %d entries, recompute finds %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Referents[%d] = %v, want %v (first-appearance order)", i, got[i], want[i])
			}
		}
	}
	for i, ref := range locs {
		s.Add(Pair{Path: u.Empty(), Ref: ref})
		s.Add(Pair{Path: u.Field(u.Empty(), "f"), Ref: ref}) // offset pair: not a referent
		s.Add(Pair{Path: locs[0], Ref: ref})                 // store pair: not a referent
		s.Add(Pair{Path: u.Empty(), Ref: locs[i/2]})         // duplicate referent
		check()
	}
	if n := len(s.Referents()); n <= pairSetSmall {
		t.Fatalf("only %d referents: the check never crossed the %d-element threshold", n, pairSetSmall)
	}
}

// TestATableHashCollisionResolved forces two distinct assumption sets
// into the same hash bucket and checks they intern to distinct sets:
// bucket hits must be confirmed by element comparison, never by hash
// alone.
func TestATableHashCollisionResolved(t *testing.T) {
	_, pool := pairUniverse()
	at := NewATable()
	a := []Assumption{{Formal: fakeFormals[0], P: pool[0]}}
	b := []Assumption{{Formal: fakeFormals[1], P: pool[1]}}

	// Manufacture the collision: make a's interned set head b's hash
	// chain, as if aHash had mapped both slices to the same key.
	sa := at.intern(a)
	at.sets[aHash(b)] = sa

	sb := at.intern(b)
	if sb == sa {
		t.Fatal("distinct assumption sets aliased through a shared hash bucket")
	}
	if len(sb.Elems) != 1 || sb.Elems[0] != b[0] {
		t.Fatalf("interned set carries %v, want %v", sb.Elems, b)
	}
	if at.intern(b) != sb {
		t.Fatal("re-interning after a collision no longer canonicalizes")
	}
}

// BenchmarkPairSetReferents measures Referents on a realistically
// small set and on one past the scan threshold. Each call decodes the
// ε-path keys into a fresh slice.
func BenchmarkPairSetReferents(b *testing.B) {
	u, _ := pairUniverse()
	build := func(n int) *PairSet {
		s := NewPairSet(u)
		for i := 0; i < n; i++ {
			base := u.NewBase(paths.VarBase, "v"+string(rune('a'+i%26))+string(rune('a'+i/26)), false, false)
			s.Add(Pair{Path: u.Empty(), Ref: u.Root(base)})
		}
		return s
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"small", 4}, {"promoted", 64}} {
		s := build(size.n)
		b.Run(size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := s.Referents(); len(got) != size.n {
					b.Fatalf("got %d referents, want %d", len(got), size.n)
				}
			}
		})
	}
}
