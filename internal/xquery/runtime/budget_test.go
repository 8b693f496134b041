package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// stepsUntilTrip steps b until it trips and returns the number of the
// step that did, or 0 when limit steps all pass.
func stepsUntilTrip(b *Budget, limit int64) (int64, error) {
	for n := int64(1); n <= limit; n++ {
		if err := b.Step(); err != nil {
			return n, err
		}
	}
	return 0, nil
}

// A budget of N steps passes steps 1..N and trips at step N+1, whether
// N ends inside a lease, on a lease boundary or just past one.
func TestBudgetTripsAtExactlyMaxStepsPlusOne(t *testing.T) {
	for _, n := range []int64{1, 255, 256, 257, 1000} {
		b := NewBudget(n, 0)
		at, err := stepsUntilTrip(b, n+10)
		if at != n+1 || !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("MaxSteps %d: tripped at step %d with %v, want step %d with ErrBudgetExceeded", n, at, err, n+1)
		}
		if err := b.Step(); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("MaxSteps %d: a step after the trip returned %v", n, err)
		}
	}
}

// Forks of one budget, each stepped by a goroutine of its own, share
// its ceiling: together they never pass more than N steps.
func TestBudgetForksShareTheCeiling(t *testing.T) {
	for _, n := range []int64{1, 300, 1000, 5000} {
		root := NewBudget(n, 0)
		forks := []*Budget{root, root.Fork(), root.Fork().Fork()}
		passed := make([]int64, len(forks))
		var wg sync.WaitGroup
		for i, b := range forks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				at, err := stepsUntilTrip(b, n+1)
				if !errors.Is(err, ErrBudgetExceeded) {
					t.Errorf("MaxSteps %d, fork %d: %v after %d steps, want ErrBudgetExceeded", n, i, err, at)
				}
				passed[i] = at - 1
			}()
		}
		wg.Wait()
		total := passed[0] + passed[1] + passed[2]
		if total > n {
			t.Errorf("MaxSteps %d: forks passed %v steps, %d in total", n, passed, total)
		}
	}
	if NewBudget(0, 0).Fork() != nil {
		t.Error("a nil budget must fork to nil")
	}
}

// A cancelled context or a passed deadline stops the owner within one
// lease of steps.
func TestBudgetSeesCancellationWithinALease(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudgetContext(ctx, 0, 0)
	if _, err := stepsUntilTrip(b, 1000); err != nil {
		t.Fatalf("before the cancel: %v", err)
	}
	cancel()
	if at, err := stepsUntilTrip(b, leaseSteps); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v after %d steps, want context.Canceled within %d", err, at, leaseSteps)
	}

	b = NewBudget(0, time.Millisecond)
	if _, err := stepsUntilTrip(b, 1000); err != nil {
		t.Fatalf("before the deadline: %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	if at, err := stepsUntilTrip(b, leaseSteps); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("passed deadline: %v after %d steps, want ErrBudgetExceeded within %d", err, at, leaseSteps)
	}
}
