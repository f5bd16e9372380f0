// Package slab hands out values and short slices cut from shared
// chunks, so the thousands of small values a translation unit needs
// (AST nodes and lists, checker objects, the VDG builder's flow states
// and variable value lists, the CI solver's pair sets) cost one
// allocation per chunk rather than one each.
//
// A chunk is never reallocated, so every pointer and slice handed out
// stays valid; a chunk is freed only when nothing in it is referenced
// any more, which for a unit means when the unit dies.
package slab

// chunkLen is the default number of values in one chunk. It is small
// enough that the unused tail of a unit's last chunk stays under 10 KB
// per slab (a chunk of checker objects is under 6 KB), and large enough
// that chunk allocations are a rounding error next to the
// one-allocation-per-value layout they replace.
const chunkLen = 64

// Slab cuts values and slices of T from shared chunks. The zero Slab is
// ready to use.
type Slab[T any] struct {
	chunk []T
	Size  int // values per chunk; 0 means 64
}

// Carve returns an empty slice of capacity n cut from the current
// chunk. The full slice expression caps it at n: an append past n
// copies out to a fresh array, as for any full slice, instead of
// writing into the slots carved for a neighbour.
func (s *Slab[T]) Carve(n int) []T {
	if cap(s.chunk)-len(s.chunk) < n {
		size := s.Size
		if size == 0 {
			size = chunkLen
		}
		s.chunk = make([]T, 0, max(size, n))
	}
	l := len(s.chunk)
	s.chunk = s.chunk[:l+n]
	return s.chunk[l : l : l+n]
}

// Alloc returns a pointer to a fresh zero T from the current chunk.
func (s *Slab[T]) Alloc() *T { return &s.Carve(1)[:1][0] }

// Grow returns x with room for one more element: x itself while it has
// spare capacity, else a carve of twice its capacity (at least n)
// holding x's elements. Lists that outgrow their first carve thus stay
// in the slab instead of moving to the heap.
func (s *Slab[T]) Grow(x []T, n int) []T {
	if len(x) < cap(x) {
		return x
	}
	return append(s.Carve(max(n, 2*cap(x))), x...)
}
