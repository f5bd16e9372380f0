package slab

import "testing"

// TestCarveCapsCapacity: an append past a carve's capacity copies out
// to a fresh array and leaves the neighbouring carve's slots alone.
func TestCarveCapsCapacity(t *testing.T) {
	var s Slab[int]
	a := s.Carve(2)
	b := s.Carve(2)
	if cap(a) != 2 || len(a) != 0 {
		t.Fatalf("Carve(2) has len %d cap %d, want 0 and 2", len(a), cap(a))
	}
	b = append(b, 10, 11)
	a = append(a, 1, 2)
	a = append(a, 3) // past the capacity: must not write into b
	if b[0] != 10 || b[1] != 11 {
		t.Fatalf("append past a's capacity overwrote its neighbour: b = %v", b)
	}
	if len(a) != 3 || a[0] != 1 || a[1] != 2 || a[2] != 3 {
		t.Fatalf("a = %v, want [1 2 3]", a)
	}
	if &a[0] == &b[0] || cap(a) < 3 {
		t.Fatalf("a did not move to a fresh array")
	}
}

// TestCarveLargerThanChunk: a carve wider than a chunk gets a chunk of
// its own size.
func TestCarveLargerThanChunk(t *testing.T) {
	s := Slab[int]{Size: 4}
	x := s.Carve(10)
	if cap(x) != 10 {
		t.Fatalf("Carve(10) with 4-value chunks has cap %d, want 10", cap(x))
	}
	y := s.Carve(1)
	y = append(y, 7)
	x = append(x, make([]int, 10)...)
	if y[0] != 7 {
		t.Fatalf("filling the wide carve overwrote the next one")
	}
}

// TestGrowKeepsElementsAndDoubles: Grow returns x itself while it has
// room, and otherwise a carve of twice the capacity holding x.
func TestGrowKeepsElementsAndDoubles(t *testing.T) {
	var s Slab[int]
	x := s.Carve(2)
	x = append(s.Grow(x, 2), 1)
	if cap(x) != 2 {
		t.Fatalf("Grow with room moved x: cap %d, want 2", cap(x))
	}
	x = append(s.Grow(x, 2), 2)
	before := &x[0]
	x = s.Grow(x, 2)
	if cap(x) != 4 || len(x) != 2 {
		t.Fatalf("Grow of a full x: len %d cap %d, want 2 and 4", len(x), cap(x))
	}
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("Grow lost the elements: %v", x)
	}
	if &x[0] == before {
		t.Fatalf("Grow of a full x did not move it")
	}
	// A first Grow of an empty slice carves at least n.
	if y := s.Grow(nil, 3); cap(y) != 3 || len(y) != 0 {
		t.Fatalf("Grow(nil, 3): len %d cap %d, want 0 and 3", len(y), cap(y))
	}
}

// TestAllocZeroAcrossChunks: every value Alloc hands out is zero, in
// the first chunk and in the ones after it, and writing one value
// leaves the others alone.
func TestAllocZeroAcrossChunks(t *testing.T) {
	type pair struct {
		a int
		p *int
	}
	s := Slab[pair]{Size: 3}
	var got []*pair
	for i := range 10 {
		v := s.Alloc()
		if *v != (pair{}) {
			t.Fatalf("Alloc %d returned %+v, want the zero value", i, *v)
		}
		v.a = i + 1
		got = append(got, v)
	}
	for i, v := range got {
		if v.a != i+1 || v.p != nil {
			t.Fatalf("value %d is %+v after later allocations, want a=%d", i, *v, i+1)
		}
	}
	if got[2] == got[3] {
		t.Fatal("values across a chunk boundary share storage")
	}
}
