// Package solver owns the fixpoint machinery shared by every points-to
// analysis in the repository. An Engine drains a FIFO queue of arrivals
// (the paper's Figure 1 worklist) through a client-supplied transfer
// function, metering each iteration against a limits.Budget gate and
// counting its work in a Stats record. The analyses in internal/core and
// the constraint backends differ only in their item type and transfer
// functions — the loop scaffolding, resource governance, and counters
// live here, once.
package solver

import "aliaslab/internal/limits"

// Stats counts one engine run's work. The queue is FIFO and every
// client's transfer functions are deterministic, so a run that reaches
// its fixpoint counts the same work every time. The JSON tags are the
// names `experiments -json -stats` prints; the constraint-backend
// counters are omitted when zero, so CI and CS runs print none.
type Stats struct {
	// Steps counts worklist items processed (the paper's flow-in
	// applications).
	Steps int `json:"steps"`
	// Meets counts flow-out attempts (meet operations), successful or
	// not. The client increments it from its flow-out path.
	Meets int `json:"meets"`
	// PairInserts counts pairs that survived deduplication or
	// subsumption and were actually added to an output's set.
	PairInserts int `json:"pairInserts"`
	// SubsumeHits counts qualified-pair arrivals discarded because an
	// existing weaker assumption set already covered them (0 for the
	// context-insensitive analysis).
	SubsumeHits int `json:"subsumeHits"`
	// SubsumeDrops counts existing stronger assumption sets displaced
	// by a weaker arrival (0 for the context-insensitive analysis).
	SubsumeDrops int `json:"subsumeDrops"`
	// Enqueued counts items pushed onto the worklist.
	Enqueued int `json:"enqueued"`
	// PeakDepth is the maximum number of queued-but-unprocessed items.
	PeakDepth int `json:"peakDepth"`
	// DepthSum accumulates the outstanding worklist depth after each
	// pop; DepthSum/Steps is the mean queue depth of the run, the
	// summary statistic behind the observability layer's worklist-depth
	// profile.
	DepthSum int `json:"-"`

	// The remaining counters belong to the constraint-based backends
	// (internal/backend); they stay zero on CI/CS runs.

	// Constraints counts the subset constraints extracted from the VDG
	// before solving (addr, copy, transform, load, store, call).
	Constraints int `json:"constraints,omitempty"`
	// EdgesAdded counts inclusion edges added to the constraint graph,
	// static copies and dynamically discovered call-flow edges alike
	// (Andersen only).
	EdgesAdded int `json:"edgesAdded,omitempty"`
	// SCCsCollapsed counts multi-node copy-edge cycles merged by the
	// online cycle-detection passes (Andersen only).
	SCCsCollapsed int `json:"sccsCollapsed,omitempty"`
	// Unions counts union-find merges of constraint variables performed
	// by the unification backend (Steensgaard only).
	Unions int `json:"unions,omitempty"`
}

// MeanDepth is the average outstanding worklist depth over the run.
func (s *Stats) MeanDepth() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.DepthSum) / float64(s.Steps)
}

// Engine drives one fixpoint computation: the client seeds it with
// Push, then Run drains the worklist through the transfer function,
// which re-enters Push for every new arrival it generates.
type Engine[T any] struct {
	wl    fifo[T]
	gate  *limits.Gate
	stats Stats
}

// New builds an engine for one analysis run under the given budget;
// the zero budget costs nothing in the loop (a nil gate).
func New[T any](budget limits.Budget) *Engine[T] {
	return &Engine[T]{gate: budget.Gate()}
}

// Stats exposes the run counters. The client increments the
// domain-level fields (Meets, PairInserts, Subsume*) from its transfer
// functions; the engine owns the rest.
func (e *Engine[T]) Stats() *Stats { return &e.stats }

// Push enqueues one arrival.
func (e *Engine[T]) Push(item T) {
	e.stats.Enqueued++
	e.wl.push(item)
	if d := e.wl.n; d > e.stats.PeakDepth {
		e.stats.PeakDepth = d
	}
}

// Run drains the worklist to the fixpoint or a tripped limit, and
// returns the violation that stopped it (nil at the fixpoint, when the
// computed state is complete; otherwise it is an under-approximation).
// The budget gate is checked before each item, and the step counter
// advances before the transfer runs.
func (e *Engine[T]) Run(transfer func(T)) *limits.Violation {
	for e.wl.n > 0 {
		if v := e.gate.Step(e.stats.Steps, e.stats.PairInserts); v != nil {
			return v
		}
		item := e.wl.pop()
		e.stats.Steps++
		e.stats.DepthSum += e.wl.n
		transfer(item)
	}
	return nil
}

// fifo is the queue of the paper's algorithm: a ring buffer that
// doubles when full, so its memory follows the peak queue depth rather
// than the number of items ever queued.
type fifo[T any] struct {
	items []T // len is a power of two once non-empty
	head  int
	n     int
}

func (f *fifo[T]) push(item T) {
	if f.n == len(f.items) {
		grown := make([]T, max(16, 2*len(f.items)))
		k := copy(grown, f.items[f.head:])
		copy(grown[k:], f.items[:f.head])
		f.items, f.head = grown, 0
	}
	f.items[(f.head+f.n)&(len(f.items)-1)] = item
	f.n++
}

// pop removes the oldest item; the caller checks n > 0 first.
func (f *fifo[T]) pop() T {
	var zero T
	item := f.items[f.head]
	f.items[f.head] = zero // release for GC
	f.head = (f.head + 1) & (len(f.items) - 1)
	f.n--
	return item
}
