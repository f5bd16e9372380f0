// Package limits is the resource-governance layer of the analysis
// pipeline. Ruf's 13 benchmark programs are tame; untrusted input is
// not: the context-sensitive solver's qualified pairs and assumption
// sets can blow up combinatorially, and even the context-insensitive
// fixpoint can be driven to pathological sizes. Every solver loop in
// this repository therefore checks a Budget — a pair cap, a step cap,
// and a wall-clock deadline carried by a context.Context — and stops
// cleanly with a Violation instead of hanging or exhausting memory.
// The degradation policy built on top of these primitives lives in
// internal/solve (Solve); this package only knows how to
// meter work and how to turn panics into structured errors.
package limits

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Reason identifies which resource limit stopped an analysis.
type Reason int

const (
	// Steps: the flow-in (transfer-function application) cap was hit.
	Steps Reason = iota
	// Pairs: the points-to pair cap was hit.
	Pairs
	// Deadline: the context was cancelled or its deadline expired.
	Deadline
)

func (r Reason) String() string {
	switch r {
	case Steps:
		return "step budget exhausted"
	case Pairs:
		return "pair budget exhausted"
	case Deadline:
		return "deadline exceeded"
	}
	return fmt.Sprintf("limits.Reason(%d)", int(r))
}

// Violation reports a tripped limit. It implements error so it can
// travel through ordinary error plumbing, but solvers also attach it
// to their results directly (a stopped analysis still returns the
// partial state it computed).
type Violation struct {
	Reason Reason
	// Limit is the configured bound for Steps/Pairs; 0 for Deadline.
	Limit int
	// Err is the underlying context error for Deadline.
	Err error
}

func (v *Violation) Error() string {
	switch v.Reason {
	case Deadline:
		return fmt.Sprintf("limits: %s (%v)", v.Reason, v.Err)
	default:
		return fmt.Sprintf("limits: %s (%d)", v.Reason, v.Limit)
	}
}

func (v *Violation) Unwrap() error { return v.Err }

// Budget bounds one analysis attempt. The zero value is unlimited:
// solvers running under it behave exactly as the ungoverned algorithms.
// The caps apply to each attempt separately; only the deadline carried
// by Ctx spans everything that shares it.
type Budget struct {
	// Ctx carries the wall-clock deadline and cooperative cancellation;
	// nil means context.Background().
	Ctx context.Context

	// MaxSteps caps flow-in applications (0 = unlimited).
	MaxSteps int

	// MaxPairs caps pairs added across all outputs (0 = unlimited).
	MaxPairs int
}

// Unlimited reports whether no limit of any kind is configured.
func (b Budget) Unlimited() bool {
	return b.Ctx == nil && b.MaxSteps <= 0 && b.MaxPairs <= 0
}

// WithTimeout returns a copy of b whose context enforces the given
// wall-clock timeout (no-op when d <= 0), plus the cancel func the
// caller must defer. The timeout is layered over any existing Ctx.
func (b Budget) WithTimeout(d time.Duration) (Budget, context.CancelFunc) {
	if d <= 0 {
		return b, func() {}
	}
	parent := b.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithTimeout(parent, d)
	b.Ctx = ctx
	return b, cancel
}

// pollInterval is how many Step calls elapse between context checks;
// ctx.Err is a mutex-guarded read, too costly for every worklist item.
const pollInterval = 1024

// Gate is the cheap per-iteration checker threaded into the fixpoint
// loops. A nil *Gate is valid and means "no limits" — the hot loops
// always call Step without branching on configuration.
type Gate struct {
	ctx                context.Context
	maxSteps, maxPairs int
	sincePoll          int
}

// Gate materializes the budget's checker. It returns nil for an
// unlimited budget so the solvers' fast path stays allocation- and
// branch-free.
func (b Budget) Gate() *Gate {
	if b.Unlimited() {
		return nil
	}
	return &Gate{ctx: b.Ctx, maxSteps: b.MaxSteps, maxPairs: b.MaxPairs}
}

// Step accounts one unit of solver work. steps and pairs are the
// solver's running counters (the Gate does not duplicate them). It
// returns a non-nil Violation when any limit is exceeded; the solver
// must then stop draining its worklist and annotate its result.
func (g *Gate) Step(steps, pairs int) *Violation {
	if g == nil {
		return nil
	}
	if g.maxSteps > 0 && steps >= g.maxSteps {
		return &Violation{Reason: Steps, Limit: g.maxSteps}
	}
	if g.maxPairs > 0 && pairs >= g.maxPairs {
		return &Violation{Reason: Pairs, Limit: g.maxPairs}
	}
	if g.ctx != nil {
		g.sincePoll++
		if g.sincePoll >= pollInterval {
			g.sincePoll = 0
			if err := g.ctx.Err(); err != nil {
				return &Violation{Reason: Deadline, Err: err}
			}
		}
	}
	return nil
}

// PanicError is a recovered panic converted into a structured error:
// what stage was running, the panic value, and the stack at the point
// of the panic. It lets a batch driver report one broken unit as a
// diagnostic while the rest of the corpus keeps analyzing.
type PanicError struct {
	Stage string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("internal error in %s: %v", e.Stage, e.Value)
}

// Detail renders the full report including the captured stack, for
// logs and -v output (Error stays one line for diagnostics).
func (e *PanicError) Detail() string {
	return fmt.Sprintf("%s\n%s", e.Error(), e.Stack)
}

// AsPanic extracts a *PanicError from an error chain.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// Guard runs fn, converting a panic into a *PanicError tagged with
// stage. Used at the unit and procedure boundaries of the driver so
// malformed input can never kill a batch run.
func Guard(stage string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Stage: stage, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
