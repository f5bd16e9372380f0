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
// its fixpoint counts the same work every time.
type Stats struct {
	// Steps counts worklist items processed (the paper's flow-in
	// applications).
	Steps int
	// Meets counts flow-out attempts (meet operations), successful or
	// not. The client increments it from its flow-out path.
	Meets int
	// PairInserts counts pairs that survived deduplication or
	// subsumption and were actually added to an output's set.
	PairInserts int
	// SubsumeHits counts qualified-pair arrivals discarded because an
	// existing weaker assumption set already covered them (0 for the
	// context-insensitive analysis).
	SubsumeHits int
	// SubsumeDrops counts existing stronger assumption sets displaced
	// by a weaker arrival (0 for the context-insensitive analysis).
	SubsumeDrops int
	// Enqueued counts items pushed onto the worklist.
	Enqueued int
	// PeakDepth is the maximum number of queued-but-unprocessed items.
	PeakDepth int
	// DepthSum accumulates the outstanding worklist depth after each
	// pop; DepthSum/Steps is the mean queue depth of the run, the
	// summary statistic behind the observability layer's worklist-depth
	// profile.
	DepthSum int

	// The remaining counters belong to the constraint-based backends
	// (internal/backend); they stay zero on CI/CS runs.

	// Constraints counts the subset constraints extracted from the VDG
	// before solving (addr, copy, transform, load, store, call).
	Constraints int
	// EdgesAdded counts inclusion edges added to the constraint graph,
	// static copies and dynamically discovered call-flow edges alike
	// (Andersen only).
	EdgesAdded int
	// SCCsCollapsed counts multi-node copy-edge cycles merged by the
	// online cycle-detection passes (Andersen only).
	SCCsCollapsed int
	// Unions counts union-find merges of constraint variables performed
	// by the unification backend (Steensgaard only).
	Unions int
}

// MeanDepth is the average outstanding worklist depth over the run.
func (s *Stats) MeanDepth() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.DepthSum) / float64(s.Steps)
}

// Config assembles an engine.
type Config struct {
	// Budget is materialized into the per-iteration gate; the zero
	// budget costs nothing in the loop (a nil gate).
	Budget limits.Budget

	// MaxSteps is the legacy hard step bound of the context-sensitive
	// analysis: the run aborts without a Violation when it is reached
	// (0 = unlimited).
	MaxSteps int
}

// Engine drives one fixpoint computation: the client seeds it with
// Push, then Run drains the worklist through the transfer function,
// which re-enters Push for every new arrival it generates.
type Engine[T any] struct {
	wl       fifo[T]
	gate     *limits.Gate
	maxSteps int
	stats    Stats
}

// New builds an engine for one analysis run.
func New[T any](cfg Config) *Engine[T] {
	return &Engine[T]{gate: cfg.Budget.Gate(), maxSteps: cfg.MaxSteps}
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

// Outcome reports how a Run ended.
type Outcome struct {
	// Stopped is the budget violation that halted the drain; nil when
	// the run reached the fixpoint (or hit only the legacy MaxSteps
	// bound).
	Stopped *limits.Violation
	// Aborted is true when the drain stopped before the fixpoint, for
	// either reason. The computed state is then an under-approximation.
	Aborted bool
}

// Run drains the worklist to the fixpoint (or a tripped limit). The
// iteration contract matches the analyses' original loops exactly: the
// legacy step bound and the budget gate are checked before each item,
// in that order, and the step counter advances before the transfer
// runs. On a clean drain the gate is flushed so a shared batch ledger
// accounts the work done since the last in-loop check.
func (e *Engine[T]) Run(transfer func(T)) Outcome {
	for e.wl.n > 0 {
		if e.maxSteps > 0 && e.stats.Steps >= e.maxSteps {
			return Outcome{Aborted: true}
		}
		if v := e.gate.Step(e.stats.Steps, e.stats.PairInserts); v != nil {
			return Outcome{Stopped: v, Aborted: true}
		}
		item := e.wl.pop()
		e.stats.Steps++
		e.stats.DepthSum += e.wl.n
		transfer(item)
	}
	e.gate.Flush(e.stats.Steps, e.stats.PairInserts)
	return Outcome{}
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
