package solver

import (
	"testing"

	"aliaslab/internal/limits"
)

// drain runs an engine whose transfer does nothing and records the pop
// order.
func drain(e *Engine[int]) []int {
	var order []int
	e.Run(func(x int) { order = append(order, x) })
	return order
}

func pushAll(e *Engine[int], xs ...int) {
	for _, x := range xs {
		e.Push(x)
	}
}

func eq(a, b []int) bool {
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

func TestFIFOOrder(t *testing.T) {
	e := New[int](limits.Budget{})
	pushAll(e, 3, 1, 2)
	if got := drain(e); !eq(got, []int{3, 1, 2}) {
		t.Errorf("fifo pop order = %v, want [3 1 2]", got)
	}
}

// TestFIFOInterleaved pushes 5000 items, keeping ten queued while the
// drain pops, so the ring wraps many times; no item may be lost or
// reordered.
func TestFIFOInterleaved(t *testing.T) {
	e := New[int](limits.Budget{})
	const n = 5000
	next := 0 // next value to push; transfer interleaves pushes with pops
	var got []int
	for ; next < 10; next++ {
		e.Push(next)
	}
	e.Run(func(x int) {
		got = append(got, x)
		if next < n {
			e.Push(next)
			next++
		}
	})
	if len(got) != n {
		t.Fatalf("drained %d items, want %d", len(got), n)
	}
	for i, x := range got {
		if x != i {
			t.Fatalf("item %d popped as %d; the ring scrambled the queue", i, x)
		}
	}
}

// TestFIFOGrowWhileWrapped fills the ring after its head has moved, so
// the live items wrap past the end of the buffer when it doubles; the
// grown buffer must keep them in arrival order.
func TestFIFOGrowWhileWrapped(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 16; i++ {
		f.push(i)
	}
	for i := 0; i < 5; i++ {
		if got := f.pop(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
	// 11 live items at head 5; five more wrap to slots 0-4, and the
	// 17th live item forces a grow with head > 0.
	for i := 16; i < 40; i++ {
		f.push(i)
	}
	if len(f.items) <= 16 {
		t.Fatalf("ring did not grow: len %d", len(f.items))
	}
	for want := 5; want < 40; want++ {
		if f.n == 0 {
			t.Fatalf("queue empty before item %d", want)
		}
		if got := f.pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
	if f.n != 0 {
		t.Errorf("%d items left after the drain", f.n)
	}
}

func TestStatsCounting(t *testing.T) {
	e := New[int](limits.Budget{})
	pushAll(e, 1, 2, 3)
	drained := drain(e)
	st := e.Stats()
	if st.Steps != 3 || st.Enqueued != 3 || len(drained) != 3 {
		t.Errorf("steps=%d enqueued=%d drained=%d, want 3/3/3", st.Steps, st.Enqueued, len(drained))
	}
	if st.PeakDepth != 3 {
		t.Errorf("peak depth = %d, want 3 (all items queued before the drain)", st.PeakDepth)
	}
}

// TestMaxStepsAborts: a step cap stops the drain exactly at the bound
// and reports which cap it was.
func TestMaxStepsAborts(t *testing.T) {
	e := New[int](limits.Budget{MaxSteps: 2})
	pushAll(e, 1, 2, 3)
	v := e.Run(func(int) {})
	if v == nil || *v != (limits.Violation{Reason: limits.Steps, Limit: 2}) {
		t.Errorf("violation = %v, want a step-budget violation at limit 2", v)
	}
	if e.Stats().Steps != 2 {
		t.Errorf("steps = %d, want exactly the bound 2", e.Stats().Steps)
	}
}

// TestBudgetViolationStops: a pair cap, checked against the client's
// PairInserts counter, stops the drain before the next item.
func TestBudgetViolationStops(t *testing.T) {
	e := New[int](limits.Budget{MaxPairs: 2})
	pushAll(e, 1, 2, 3)
	v := e.Run(func(int) { e.Stats().PairInserts++ })
	if v == nil || v.Reason != limits.Pairs {
		t.Errorf("violation = %v, want a pair-budget violation", v)
	}
	if e.Stats().Steps != 2 {
		t.Errorf("steps = %d, want 2 (the third item must not run)", e.Stats().Steps)
	}
}
