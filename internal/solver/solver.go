// Package solver owns the fixpoint machinery shared by every points-to
// analysis in the repository. An Engine drains a worklist of arrivals
// through a client-supplied transfer function, metering each iteration
// against a limits.Budget gate and counting its work in a Stats record;
// the worklist discipline (FIFO, LIFO, or priority by topological node
// order) is a pluggable Strategy. The analyses in internal/core differ
// only in their item type and transfer functions — the loop scaffolding,
// resource governance, and counters live here, once.
//
// Every strategy reaches the same fixpoint (the transfer functions are
// monotone over a finite domain, so the solution is confluent); only
// the visit order — and therefore the meet-operation count and the
// worklist depth profile — changes. The oracle asserts this order
// independence over the whole corpus.
package solver

import (
	"fmt"

	"aliaslab/internal/limits"
)

// Strategy selects the worklist discipline of an engine run.
type Strategy int

const (
	// FIFO processes arrivals in generation order (the paper's queue;
	// the default, and the reference for golden outputs).
	FIFO Strategy = iota
	// LIFO processes the newest arrival first (depth-first propagation).
	LIFO
	// Priority processes arrivals at the topologically earliest node
	// first (VDG creation order approximates a topological order of the
	// acyclic core; ties break by arrival sequence, so the order is
	// deterministic).
	Priority
)

func (s Strategy) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	case Priority:
		return "priority"
	}
	return fmt.Sprintf("solver.Strategy(%d)", int(s))
}

// ParseStrategy resolves a -worklist flag value; the empty string is
// the FIFO default.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "fifo":
		return FIFO, nil
	case "lifo":
		return LIFO, nil
	case "priority", "topo":
		return Priority, nil
	}
	return FIFO, fmt.Errorf("solver: unknown worklist strategy %q (want fifo, lifo, or priority)", name)
}

// Strategies lists every worklist strategy, FIFO (the reference) first.
func Strategies() []Strategy { return []Strategy{FIFO, LIFO, Priority} }

// Stats counts one engine run's work. Steps, Enqueued, and PairInserts
// are strategy-independent on a run that converges (the fixpoint is
// confluent and pair growth is monotone); Meets, the subsumption
// counters, and PeakDepth depend on the visit order.
type Stats struct {
	// Strategy is the worklist discipline the run used.
	Strategy Strategy

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
	// profile. Like PeakDepth it depends on the visit order.
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

// Worklist is the pluggable queue discipline of an Engine.
type Worklist[T any] interface {
	Push(T)
	Pop() (T, bool)
	Len() int
}

// Config assembles an engine.
type Config[T any] struct {
	// Strategy selects the worklist discipline (zero value: FIFO).
	Strategy Strategy

	// Budget is materialized into the per-iteration gate; the zero
	// budget costs nothing in the loop (a nil gate).
	Budget limits.Budget

	// MaxSteps is the legacy hard step bound of the context-sensitive
	// analysis: the run aborts without a Violation when it is reached
	// (0 = unlimited).
	MaxSteps int

	// Prio maps an item to its scheduling key for the Priority
	// strategy (smaller runs first); ignored otherwise. Required when
	// Strategy == Priority.
	Prio func(T) int
}

// Engine drives one fixpoint computation: the client seeds it with
// Push, then Run drains the worklist through the transfer function,
// which re-enters Push for every new arrival it generates.
type Engine[T any] struct {
	wl       Worklist[T]
	gate     *limits.Gate
	maxSteps int
	stats    Stats
}

// New builds an engine for one analysis run.
func New[T any](cfg Config[T]) *Engine[T] {
	var wl Worklist[T]
	switch cfg.Strategy {
	case LIFO:
		wl = &lifo[T]{}
	case Priority:
		if cfg.Prio == nil {
			panic("solver: Priority strategy requires Config.Prio")
		}
		wl = &prioQueue[T]{prio: cfg.Prio}
	default:
		wl = &fifo[T]{}
	}
	return &Engine[T]{
		wl:       wl,
		gate:     cfg.Budget.Gate(),
		maxSteps: cfg.MaxSteps,
		stats:    Stats{Strategy: cfg.Strategy},
	}
}

// Stats exposes the run counters. The client increments the
// domain-level fields (Meets, PairInserts, Subsume*) from its transfer
// functions; the engine owns the rest.
func (e *Engine[T]) Stats() *Stats { return &e.stats }

// Push enqueues one arrival.
func (e *Engine[T]) Push(item T) {
	e.stats.Enqueued++
	e.wl.Push(item)
	if d := e.wl.Len(); d > e.stats.PeakDepth {
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
	for e.wl.Len() > 0 {
		if e.maxSteps > 0 && e.stats.Steps >= e.maxSteps {
			return Outcome{Aborted: true}
		}
		if v := e.gate.Step(e.stats.Steps, e.stats.PairInserts); v != nil {
			return Outcome{Stopped: v, Aborted: true}
		}
		item, _ := e.wl.Pop()
		e.stats.Steps++
		e.stats.DepthSum += e.wl.Len()
		transfer(item)
	}
	e.gate.Flush(e.stats.Steps, e.stats.PairInserts)
	return Outcome{}
}

// ---------------------------------------------------------------------------
// Worklist implementations

// fifo is the queue of the paper's algorithm: a ring buffer that
// doubles when full, so its memory follows the peak queue depth rather
// than the number of items ever queued.
type fifo[T any] struct {
	items []T // len is a power of two once non-empty
	head  int
	n     int
}

func (f *fifo[T]) Push(item T) {
	if f.n == len(f.items) {
		grown := make([]T, max(16, 2*len(f.items)))
		k := copy(grown, f.items[f.head:])
		copy(grown[k:], f.items[:f.head])
		f.items, f.head = grown, 0
	}
	f.items[(f.head+f.n)&(len(f.items)-1)] = item
	f.n++
}

func (f *fifo[T]) Pop() (T, bool) {
	var zero T
	if f.n == 0 {
		return zero, false
	}
	item := f.items[f.head]
	f.items[f.head] = zero // release for GC
	f.head = (f.head + 1) & (len(f.items) - 1)
	f.n--
	return item, true
}

func (f *fifo[T]) Len() int { return f.n }

// lifo is a plain stack.
type lifo[T any] struct{ items []T }

func (l *lifo[T]) Push(item T) { l.items = append(l.items, item) }

func (l *lifo[T]) Pop() (T, bool) {
	var zero T
	n := len(l.items)
	if n == 0 {
		return zero, false
	}
	item := l.items[n-1]
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return item, true
}

func (l *lifo[T]) Len() int { return len(l.items) }

// prioQueue is a binary min-heap on (prio, seq): the priority function
// schedules, the arrival sequence number breaks ties, so the pop order
// is a deterministic function of the push sequence.
type prioQueue[T any] struct {
	prio  func(T) int
	items []prioItem[T]
	seq   int
}

type prioItem[T any] struct {
	item T
	prio int
	seq  int
}

func (q *prioQueue[T]) less(i, j int) bool {
	if q.items[i].prio != q.items[j].prio {
		return q.items[i].prio < q.items[j].prio
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *prioQueue[T]) Push(item T) {
	q.items = append(q.items, prioItem[T]{item: item, prio: q.prio(item), seq: q.seq})
	q.seq++
	// Sift up.
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *prioQueue[T]) Pop() (T, bool) {
	var zero T
	n := len(q.items)
	if n == 0 {
		return zero, false
	}
	top := q.items[0].item
	q.items[0] = q.items[n-1]
	q.items[n-1] = prioItem[T]{} // release for GC
	q.items = q.items[:n-1]
	// Sift down.
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top, true
}

func (q *prioQueue[T]) Len() int { return len(q.items) }
