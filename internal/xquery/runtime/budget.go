package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrBudgetExceeded is returned (wrapped) when a query exhausts its
// per-query execution budget. Hosts match it with errors.Is.
var ErrBudgetExceeded = errors.New("xquery: execution budget exceeded")

// Budget bounds one query evaluation: a step ceiling (expression
// evaluations plus items pulled through streaming iterators), an
// optional wall-clock deadline, and an optional context.Context whose
// cancellation aborts the run cooperatively.
//
// A budget has one owner goroutine: Step spends an owner-local lease
// of steps and only touches shared state when the lease runs out, once
// every leaseSteps steps. Another goroutine that evaluates on behalf of
// the same query (the behind thunk) steps a Fork of its own, which
// draws its leases from the same root.
//
// The browser host attaches a fresh Budget to every listener
// invocation, so a runaway listener query fails with ErrBudgetExceeded
// instead of freezing the page (the robustness knob the paper's "as
// fast as the hardware allows" goal implies for untrusted pages).
type Budget struct {
	lease int64   // steps left in the owner's current lease
	root  *Budget // the budget holding the shared state below; itself for a root

	// Shared by a root and its forks; read through root.
	drawn    atomic.Int64 // steps leased out so far (only with maxSteps > 0)
	maxSteps int64
	deadline time.Time
	done     <-chan struct{}
	ctxErr   func() error
}

// leaseSteps is the most steps one draw leases: the deadline and the
// context's done channel are polled at every draw, so at least once
// every leaseSteps steps of an owner.
const leaseSteps = 256

// NewBudget builds a budget. maxSteps <= 0 means unlimited steps;
// timeout <= 0 means no deadline. Returns nil when both are unlimited,
// so a nil *Budget is the zero-cost "no limits" configuration.
func NewBudget(maxSteps int64, timeout time.Duration) *Budget {
	return NewBudgetContext(nil, maxSteps, timeout)
}

// NewBudgetContext builds a budget that additionally honors ctx:
// cancelling the context (or its deadline passing) aborts the run at
// the next poll with an error matching ctx.Err() via errors.Is. A nil
// ctx — or one that can never be cancelled — adds no overhead; when no
// limit is active at all the result is nil.
func NewBudgetContext(ctx context.Context, maxSteps int64, timeout time.Duration) *Budget {
	var done <-chan struct{}
	var ctxErr func() error
	if ctx != nil {
		if done = ctx.Done(); done != nil {
			ctxErr = ctx.Err
		}
	}
	if maxSteps <= 0 && timeout <= 0 && done == nil {
		return nil
	}
	b := &Budget{maxSteps: maxSteps, done: done, ctxErr: ctxErr}
	b.root = b
	if timeout > 0 {
		b.deadline = time.Now().Add(timeout)
	}
	return b
}

// Fork returns a budget over the same limits for another goroutine: it
// starts with no lease and draws from b's root, so the steps of b and
// of all its forks together never pass the ceiling. A nil budget forks
// to nil.
func (b *Budget) Fork() *Budget {
	if b == nil {
		return nil
	}
	return &Budget{root: b.root}
}

// Step consumes one unit of budget and reports whether the budget is
// exhausted or the run's context has been cancelled. A nil budget never
// trips. Only the owner goroutine may call it.
func (b *Budget) Step() error {
	if b == nil {
		return nil
	}
	if b.lease > 0 {
		b.lease--
		return nil
	}
	return b.draw()
}

// draw polls the context and the deadline, then leases the next steps
// from the root — this step and up to leaseSteps-1 more, never past
// the ceiling, so a budget of N steps trips at exactly step N+1.
func (b *Budget) draw() error {
	r := b.root
	if r.done != nil {
		select {
		case <-r.done:
			return fmt.Errorf("xquery: run aborted: %w", r.ctxErr())
		default:
		}
	}
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		return fmt.Errorf("%w: deadline passed", ErrBudgetExceeded)
	}
	if r.maxSteps <= 0 {
		b.lease = leaseSteps - 1
		return nil
	}
	from := r.drawn.Add(leaseSteps) - leaseSteps
	if from >= r.maxSteps {
		return fmt.Errorf("%w: %d steps (limit %d)", ErrBudgetExceeded, r.maxSteps+1, r.maxSteps)
	}
	b.lease = min(leaseSteps, r.maxSteps-from) - 1
	return nil
}
