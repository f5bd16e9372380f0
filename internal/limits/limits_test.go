package limits

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestUnlimitedBudgetHasNilGate(t *testing.T) {
	var b Budget
	if !b.Unlimited() {
		t.Fatal("zero Budget should be unlimited")
	}
	if g := b.Gate(); g != nil {
		t.Fatalf("unlimited budget produced a gate: %#v", g)
	}
	// A nil gate must be safe to call.
	var g *Gate
	if v := g.Step(1<<30, 1<<30); v != nil {
		t.Fatalf("nil gate tripped: %v", v)
	}
}

func TestGateTripsOnSteps(t *testing.T) {
	g := Budget{MaxSteps: 10}.Gate()
	for i := 0; i < 10; i++ {
		if v := g.Step(i, 0); v != nil {
			t.Fatalf("tripped early at step %d: %v", i, v)
		}
	}
	v := g.Step(10, 0)
	if v == nil || v.Reason != Steps || v.Limit != 10 {
		t.Fatalf("want Steps violation at limit 10, got %v", v)
	}
}

func TestGateTripsOnPairs(t *testing.T) {
	g := Budget{MaxPairs: 5}.Gate()
	if v := g.Step(0, 4); v != nil {
		t.Fatalf("tripped early: %v", v)
	}
	v := g.Step(1, 5)
	if v == nil || v.Reason != Pairs || v.Limit != 5 {
		t.Fatalf("want Pairs violation at limit 5, got %v", v)
	}
}

func TestGateHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := Budget{Ctx: ctx}.Gate()
	var v *Violation
	// The context is polled every pollInterval steps.
	for i := 0; i <= pollInterval && v == nil; i++ {
		v = g.Step(i, 0)
	}
	if v == nil || v.Reason != Deadline {
		t.Fatalf("want Deadline violation, got %v", v)
	}
	if !errors.Is(v, context.Canceled) {
		t.Fatalf("violation should unwrap to context.Canceled, got %v", v.Err)
	}
}

func TestWithTimeout(t *testing.T) {
	b, cancel := Budget{}.WithTimeout(time.Nanosecond)
	defer cancel()
	if b.Ctx == nil {
		t.Fatal("WithTimeout did not install a context")
	}
	time.Sleep(time.Millisecond)
	if b.Ctx.Err() == nil {
		t.Fatal("deadline did not expire")
	}
	// d <= 0 is a no-op.
	b2, cancel2 := Budget{}.WithTimeout(0)
	defer cancel2()
	if b2.Ctx != nil {
		t.Fatal("zero timeout should not install a context")
	}
}

func TestGuardConvertsPanics(t *testing.T) {
	err := Guard("build demo.c", func() error { panic("boom") })
	pe, ok := AsPanic(err)
	if !ok {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Stage != "build demo.c" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("incomplete PanicError: %+v", pe)
	}
	if pe.Error() != "internal error in build demo.c: boom" {
		t.Fatalf("unexpected message: %s", pe.Error())
	}
}

func TestGuardPassesThroughErrors(t *testing.T) {
	want := fmt.Errorf("ordinary failure")
	if err := Guard("stage", func() error { return want }); err != want {
		t.Fatalf("got %v, want %v", err, want)
	}
	if err := Guard("stage", func() error { return nil }); err != nil {
		t.Fatalf("got %v, want nil", err)
	}
}

func TestViolationMessages(t *testing.T) {
	cases := []struct {
		v    *Violation
		want string
	}{
		{&Violation{Reason: Steps, Limit: 7}, "limits: step budget exhausted (7)"},
		{&Violation{Reason: Pairs, Limit: 9}, "limits: pair budget exhausted (9)"},
		{&Violation{Reason: Deadline, Err: context.DeadlineExceeded}, "limits: deadline exceeded (context deadline exceeded)"},
	}
	for _, c := range cases {
		if got := c.v.Error(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}
