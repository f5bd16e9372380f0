// Package sched is the parallel batch engine of the repository: a
// bounded worker pool that fans indexed work items out to N workers and
// hands results back in slot order, so a parallel batch renders
// byte-identically to the sequential one.
//
// The concurrency contract is deliberately narrow:
//
//   - Work items are identified by index. Workers pull the next index
//     from a shared cursor, so items start in canonical order even
//     though they finish in any order.
//   - The pool shares NOTHING between items. Each item builds its own
//     state (for the analysis: its own paths.Universe and VDG, and its
//     own budget gate, so a unit's caps never depend on its siblings'
//     work).
//   - A panic inside one item is recovered into a *limits.PanicError in
//     that item's slot; the remaining items keep running.
//   - Cancelling the context stops the batch cleanly: in-flight items
//     run to completion (the analysis observes the context through its
//     budget gate), items not yet started are skipped and their slots
//     carry a *SkipError recording the cause.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
)

// Pool is a bounded worker pool. The zero value runs with GOMAXPROCS
// workers.
type Pool struct {
	// Jobs is the maximum number of items in flight; <= 0 means
	// runtime.GOMAXPROCS(0).
	Jobs int

	// Obs, when non-nil, makes the pool observable: item outcomes are
	// counted in the registry (sched.items.*, written lock-free from
	// the workers). A nil registry leaves the pool on its unobserved
	// hot path. Independent of Obs, each item's context is tagged with
	// its worker lane (obs.Worker) so per-item spans — including ones
	// recorded by a tracer with no registry attached — can record which
	// lane ran them; the tag is one context value per worker per Map.
	Obs *obs.Registry
}

// poolCounters are the pool's registry handles, resolved once per Map
// call so workers only pay atomic adds.
type poolCounters struct {
	run, skipped, panics *obs.Counter
}

func (p Pool) counters() poolCounters {
	if p.Obs == nil {
		return poolCounters{}
	}
	return poolCounters{
		// Completed items are deterministic (a healthy batch runs all n);
		// skips and panics depend on cancellation timing.
		run:     p.Obs.Counter("sched.items.run", obs.Deterministic),
		skipped: p.Obs.Counter("sched.items.skipped", obs.Volatile),
		panics:  p.Obs.Counter("sched.items.panic", obs.Volatile),
	}
}

// jobs returns the effective worker count for n items.
func (p Pool) jobs(n int) int {
	j := p.Jobs
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	if j > n {
		j = n
	}
	return j
}

// SkipError marks a work item that was never started because the batch
// was cancelled (budget exhausted, deadline, caller cancellation).
type SkipError struct {
	// Cause is the cancellation cause (context.Cause of the batch
	// context), never nil.
	Cause error
}

func (e *SkipError) Error() string { return fmt.Sprintf("sched: item skipped: %v", e.Cause) }

func (e *SkipError) Unwrap() error { return e.Cause }

// Skipped reports whether err marks a never-started item and returns
// the cancellation cause.
func Skipped(err error) (*SkipError, bool) {
	var se *SkipError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// Map runs fn(ctx, i) for every i in [0, n), at most p.Jobs at a time,
// and returns one error slot per item (nil on success). fn must confine
// its side effects to state owned by item i — typically writing element
// i of a caller-owned results slice, which is race-free because no two
// invocations share an index.
//
// Panics in fn are recovered into that slot as a *limits.PanicError.
// When ctx is cancelled, items that have not started are skipped with a
// *SkipError; Map still waits for in-flight items before returning, so
// on return no worker touches caller state.
func (p Pool) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) []error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	workers := p.jobs(n)
	pc := p.counters()
	if workers == 1 {
		// Sequential fast path: same code shape as the workers below,
		// without goroutine or scheduling overhead. -jobs=1 is the
		// reference execution the parallel run must match byte for byte.
		wctx := obs.WithWorker(ctx, 0)
		for i := 0; i < n; i++ {
			errs[i] = p.runItem(wctx, i, fn, pc)
		}
		return errs
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			wctx := obs.WithWorker(ctx, w)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = p.runItem(wctx, i, fn, pc)
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// runItem executes one work item behind the skip check and panic guard.
func (p Pool) runItem(ctx context.Context, i int, fn func(ctx context.Context, i int) error, pc poolCounters) error {
	if err := ctx.Err(); err != nil {
		pc.skipped.Add(1)
		return &SkipError{Cause: context.Cause(ctx)}
	}
	err := limits.Guard(fmt.Sprintf("sched item %d", i), func() error {
		return fn(ctx, i)
	})
	if _, isPanic := limits.AsPanic(err); isPanic {
		pc.panics.Add(1)
	} else {
		pc.run.Add(1)
	}
	return err
}
