package sched_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"aliaslab/internal/limits"
	"aliaslab/internal/sched"
)

// TestMapShapes drives the pool through the batch shapes the corpus
// engine depends on: empty input, a single unit, more workers than
// units, and heavy oversubscription. Every shape must run each index
// exactly once and keep slot order.
func TestMapShapes(t *testing.T) {
	cases := []struct {
		name string
		jobs int
		n    int
	}{
		{"empty corpus", 4, 0},
		{"one unit", 4, 1},
		{"jobs greater than units", 16, 3},
		{"jobs equal units", 5, 5},
		{"sequential", 1, 13},
		{"oversubscribed", 3, 64},
		{"default jobs", 0, 13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ran := make([]atomic.Int32, max(tc.n, 1))
			errs := sched.Pool{Jobs: tc.jobs}.Map(context.Background(), tc.n, func(_ context.Context, i int) error {
				ran[i].Add(1)
				if i%5 == 3 {
					return fmt.Errorf("unit %d failed", i)
				}
				return nil
			})
			if tc.n == 0 {
				if errs != nil {
					t.Fatalf("empty batch returned %v", errs)
				}
				return
			}
			if len(errs) != tc.n {
				t.Fatalf("got %d slots, want %d", len(errs), tc.n)
			}
			for i := 0; i < tc.n; i++ {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("item %d ran %d times", i, got)
				}
				if (i%5 == 3) != (errs[i] != nil) {
					t.Errorf("item %d: err = %v", i, errs[i])
				}
				if errs[i] != nil && errs[i].Error() != fmt.Sprintf("unit %d failed", i) {
					t.Errorf("slot %d carries the wrong item's error: %v", i, errs[i])
				}
			}
		})
	}
}

// TestMapPanicIsolation: a unit that panics mid-flight fills its own
// slot with a *limits.PanicError and every other unit still runs.
func TestMapPanicIsolation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			const n = 9
			var ran atomic.Int32
			errs := sched.Pool{Jobs: jobs}.Map(context.Background(), n, func(_ context.Context, i int) error {
				ran.Add(1)
				if i == 4 {
					panic("injected mid-flight panic")
				}
				return nil
			})
			if ran.Load() != n {
				t.Fatalf("%d items ran, want %d", ran.Load(), n)
			}
			for i, err := range errs {
				if i == 4 {
					pe, ok := limits.AsPanic(err)
					if !ok {
						t.Fatalf("slot 4: want *limits.PanicError, got %v", err)
					}
					if pe.Value != "injected mid-flight panic" {
						t.Fatalf("slot 4 carries the wrong panic: %v", pe.Value)
					}
					continue
				}
				if err != nil {
					t.Errorf("slot %d poisoned by sibling panic: %v", i, err)
				}
			}
		})
	}
}

// TestMapBudgetCancellation models a batch that stops on a budget
// violation: every unit runs under its own 100-step cap, unit 2 needs
// more and cancels the batch when its cap trips; units already done
// keep their results, units not yet started are skipped with the
// violation as the recorded cause. Run at Jobs=1 so the item order is
// deterministic: 0 and 1 complete, 2 trips, 3.. skip.
func TestMapBudgetCancellation(t *testing.T) {
	budget := limits.Budget{MaxSteps: 100}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	const n = 6
	var completed atomic.Int32
	errs := sched.Pool{Jobs: 1}.Map(ctx, n, func(_ context.Context, i int) error {
		g := budget.Gate()
		// Each unit does 40 steps of "work", unit 2 does 400.
		work := 40
		if i == 2 {
			work = 400
		}
		for s := 1; s <= work; s++ {
			if v := g.Step(s, 0); v != nil {
				cancel(v)
				return v
			}
		}
		completed.Add(1)
		return nil
	})

	if completed.Load() != 2 {
		t.Fatalf("%d units completed, want 2 (units 0 and 1 fit under the cap, unit 2 trips)", completed.Load())
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("pre-exhaustion units failed: %v %v", errs[0], errs[1])
	}
	var v *limits.Violation
	if !errors.As(errs[2], &v) || v.Reason != limits.Steps {
		t.Fatalf("slot 2: want a Steps violation, got %v", errs[2])
	}
	for i := 3; i < n; i++ {
		se, ok := sched.Skipped(errs[i])
		if !ok {
			t.Fatalf("slot %d: want SkipError, got %v", i, errs[i])
		}
		if !errors.As(se.Cause, &v) || v.Reason != limits.Steps {
			t.Fatalf("slot %d: skip cause is not the budget violation: %v", i, se.Cause)
		}
	}
}

// TestMapParallelCancellation: cancellation observed under real
// concurrency — in-flight items finish, and Map does not return until
// they have (no worker may touch caller state after Map returns).
func TestMapParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	const n = 32
	release := make(chan struct{})
	var started, finished atomic.Int32
	errs := sched.Pool{Jobs: 4}.Map(ctx, n, func(_ context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			cancel(errors.New("batch abandoned"))
			close(release)
		} else {
			<-release
		}
		finished.Add(1)
		return nil
	})
	if finished.Load() != started.Load() {
		t.Fatalf("Map returned with %d of %d in-flight items unfinished", started.Load()-finished.Load(), started.Load())
	}
	skipped := 0
	for _, err := range errs {
		if _, ok := sched.Skipped(err); ok {
			skipped++
		} else if err != nil {
			t.Fatalf("unexpected item error: %v", err)
		}
	}
	if int(started.Load())+skipped != n {
		t.Fatalf("started %d + skipped %d != %d items", started.Load(), skipped, n)
	}
	if skipped == 0 {
		t.Fatal("cancellation skipped nothing; items after the cancel should not start")
	}
}
