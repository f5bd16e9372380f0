package vdg

// chunkLen is the number of values in one slab chunk. It is small enough
// that the unused tail of a graph's last chunk stays under 10 KB per
// slab (a chunk of nodes is 10 KB), and large enough that chunk
// allocations are a rounding error next to the one-allocation-per-value
// layout they replace.
const chunkLen = 64

// slab hands out T values and short []T slices cut from shared chunks,
// so the thousands of small nodes, outputs, inputs and edge lists of a
// graph cost one allocation per chunk rather than one each. A chunk is
// never reallocated, so every pointer and slice handed out stays valid
// for the life of the graph; a chunk is freed only when nothing in it
// is referenced any more, which for a graph means when the graph dies.
type slab[T any] struct {
	chunk []T
}

// carve returns an empty slice of capacity n cut from the current
// chunk. The full slice expression caps it at n: an append past n
// copies out to a fresh array, as for any full slice, instead of
// writing into the slots carved for a neighbour.
func (s *slab[T]) carve(n int) []T {
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]T, 0, max(chunkLen, n))
	}
	l := len(s.chunk)
	s.chunk = s.chunk[:l+n]
	return s.chunk[l : l : l+n]
}

// alloc returns a pointer to a fresh zero T from the current chunk.
func (s *slab[T]) alloc() *T { return &s.carve(1)[:1][0] }
