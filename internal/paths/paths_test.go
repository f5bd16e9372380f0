package paths

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func testUniverse() (*Universe, *Base, *Base, *Base) {
	u := NewUniverse()
	g := u.NewBase(VarBase, "g", false, false)
	l := u.NewBase(VarBase, "f.x", true, false)
	h := u.NewBase(HeapBase, "malloc@1", false, true)
	return u, g, l, h
}

func TestInterning(t *testing.T) {
	u, g, _, _ := testUniverse()
	p1 := u.Field(u.Root(g), "next")
	p2 := u.Field(u.Root(g), "next")
	if p1 != p2 {
		t.Fatal("equal paths must be interned to the same pointer")
	}
	if p1 == u.Field(u.Root(g), "prev") {
		t.Fatal("different fields interned to the same path")
	}
	if u.Index(p1) != u.Index(p1) {
		t.Fatal("array extension not interned")
	}
}

func TestPrefixAndDom(t *testing.T) {
	u, g, _, h := testUniverse()
	root := u.Root(g)
	gn := u.Field(root, "next")
	gnv := u.Field(gn, "v")

	if !IsPrefix(root, gnv) || !IsPrefix(gn, gnv) || !IsPrefix(gnv, gnv) {
		t.Fatal("prefix relation broken")
	}
	if IsPrefix(gnv, gn) {
		t.Fatal("longer path cannot prefix a shorter one")
	}
	if IsPrefix(root, u.Root(h)) {
		t.Fatal("different bases cannot be prefixes")
	}
	// Dom: a read of g.next may observe a write to g.next.v.
	if !Dom(gn, gnv) {
		t.Fatal("dom must hold for prefixes")
	}
	if Dom(gnv, gn) {
		t.Fatal("dom must not hold in reverse")
	}
}

func TestAppendSubtractRoundTrip(t *testing.T) {
	u, g, _, _ := testUniverse()
	root := u.Root(g)
	off := u.Field(u.Index(u.Empty()), "v") // ε[*].v
	full := u.Append(root, off)
	if full.String() != "g[*].v" {
		t.Fatalf("append produced %s", full)
	}
	back := u.Subtract(full, root)
	if back != off {
		t.Fatalf("subtract(%s, %s) = %s, want %s", full, root, back, off)
	}
}

func TestStrongUpdatability(t *testing.T) {
	u, g, l, h := testUniverse()
	cases := []struct {
		p    *Path
		want bool
	}{
		{u.Root(g), true},
		{u.Field(u.Root(g), "f"), true},
		{u.Index(u.Root(g)), false}, // array element
		{u.Field(u.Index(u.Root(g)), "f"), false},
		{u.Root(h), false}, // summary base
		{u.Field(u.Root(h), "f"), false},
		{u.Root(l), true},  // non-recursive local
		{u.Empty(), false}, // offsets are not locations
	}
	for _, c := range cases {
		if got := c.p.StronglyUpdatable(); got != c.want {
			t.Errorf("StronglyUpdatable(%s) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestUnionOverlap(t *testing.T) {
	u, g, _, _ := testUniverse()
	root := u.Root(g)
	ua := u.UnionField(root, "a")
	ub := u.UnionField(root, "b")
	sa := u.Field(root, "a")

	if !Dom(ua, ub) || !Dom(ub, ua) {
		t.Fatal("sibling union members must overlap under dom")
	}
	if Dom(sa, ub) {
		t.Fatal("a struct field must not overlap a union member")
	}
	if StrongDom(ua, ub) {
		t.Fatal("a write to one union member must not strongly kill a sibling")
	}
	if !StrongDom(ua, ua) {
		t.Fatal("a union member strongly dominates itself")
	}
	// Deep overlap: g!a.x vs g!b — overlap only at the union position.
	uax := u.Field(ua, "x")
	if !Dom(ub, uax) {
		t.Fatal("reading a union member may observe writes under a sibling")
	}
}

func TestClassification(t *testing.T) {
	u := NewUniverse()
	cases := []struct {
		b    *Base
		want StorageClass
	}{
		{u.NewBase(VarBase, "g", false, false), GlobalClass},
		{u.NewBase(VarBase, "f.x", true, false), LocalClass},
		{u.NewBase(HeapBase, "m", false, true), HeapClass},
		{u.NewBase(FuncBase, "fn", false, false), FuncClass},
		{u.NewBase(StrBase, "s", false, false), GlobalClass},
	}
	for _, c := range cases {
		if got := u.Root(c.b).Class(); got != c.want {
			t.Errorf("class(%s) = %v, want %v", c.b.Name, got, c.want)
		}
	}
	if u.Empty().Class() != OffsetClass {
		t.Error("empty path must classify as offset")
	}
}

func TestFirstOpTail(t *testing.T) {
	u, _, _, _ := testUniverse()
	p := u.Field(u.Index(u.Empty()), "v") // ε[*].v
	op, ok := p.FirstOp()
	if !ok || !op.Array {
		t.Fatalf("FirstOp = %v, %v", op, ok)
	}
	tail := u.TailAfterFirst(p)
	if tail.String() != "ε.v" {
		t.Fatalf("tail = %s", tail)
	}
	if _, ok := u.Empty().FirstOp(); ok {
		t.Fatal("empty path has no first op")
	}
}

// randomPath builds a pseudo-random path below root using r.
func randomPath(u *Universe, root *Path, r *rand.Rand) *Path {
	p := root
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0:
			p = u.Index(p)
		case 1:
			p = u.Field(p, string(rune('a'+r.Intn(3))))
		case 2:
			p = u.UnionField(p, string(rune('a'+r.Intn(3))))
		}
	}
	return p
}

// Property: Subtract is the inverse of Append for exact prefixes.
func TestQuickAppendSubtract(t *testing.T) {
	u, g, _, _ := testUniverse()
	root := u.Root(g)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := randomPath(u, root, r)
		off := randomPath(u, u.Empty(), r)
		full := u.Append(base, off)
		if !IsPrefix(base, full) {
			return false
		}
		return u.Subtract(full, base) == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dom is reflexive and transitive on randomly built paths.
func TestQuickDomTransitive(t *testing.T) {
	u, g, _, _ := testUniverse()
	root := u.Root(g)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPath(u, root, r)
		b := u.Append(a, randomPath(u, u.Empty(), r))
		c := u.Append(b, randomPath(u, u.Empty(), r))
		// a ≤ b and b ≤ c must give a ≤ c; everything dominates itself.
		return Dom(a, a) && Dom(a, b) && Dom(b, c) && Dom(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: StrongDom implies Dom, and never holds for paths with array
// operators or summary bases.
func TestQuickStrongDomSoundness(t *testing.T) {
	u, g, _, h := testUniverse()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var root *Path
		if r.Intn(2) == 0 {
			root = u.Root(g)
		} else {
			root = u.Root(h)
		}
		a := randomPath(u, root, r)
		b := u.Append(a, randomPath(u, u.Empty(), r))
		if StrongDom(a, b) {
			if !Dom(a, b) {
				return false
			}
			if a.HasArrayOp() || a.Base().Summary {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ID table decodes every interned path to itself, and
// IDs are dense — across several table growths, with the null and
// uninit marker roots interned mid-stream.
func TestQuickByIDRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		u := NewUniverse()
		all := []*Path{u.Empty()}
		for i := 0; i < int(n)%1000; i++ {
			p := all[r.Intn(len(all))]
			switch r.Intn(6) {
			case 0:
				all = append(all, u.Root(u.NewBase(VarBase, fmt.Sprintf("v%d", i), false, false)))
			case 1:
				all = append(all, u.NullRoot(), u.UninitRoot())
			case 2:
				all = append(all, u.Index(p))
			case 3:
				all = append(all, u.UnionField(p, "u"))
			default:
				all = append(all, u.Field(p, string(rune('a'+r.Intn(3)))))
			}
		}
		maxID := 0
		for _, p := range all {
			if u.ByID(p.ID()) != p {
				return false
			}
			maxID = max(maxID, p.ID())
		}
		for id := 0; id <= maxID; id++ {
			if u.ByID(id).ID() != id {
				return false
			}
		}
		return u.Empty().ID() == EmptyID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
