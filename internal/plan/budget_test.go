package plan

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestBudgetNilIsUnlimited: a nil *Budget must behave as the unlimited
// budget on every method the engines thread it through.
func TestBudgetNilIsUnlimited(t *testing.T) {
	var b *Budget
	if b.Context() == nil {
		t.Fatal("nil budget Context() = nil")
	}
	if err := b.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if err := b.AddProbes(1 << 20); err != nil {
		t.Fatalf("AddProbes: %v", err)
	}
	if err := b.AddDerived(1 << 20); err != nil {
		t.Fatalf("AddDerived: %v", err)
	}
	if b.Aborted() || b.Err() != nil || b.Probes() != 0 || b.Derived() != 0 {
		t.Fatal("nil budget reports state")
	}
}

// TestBudgetDerivedBoundary: the derived-fact cap is exact — charging
// exactly the cap succeeds, one more trips ErrOverBudget, and the
// verdict sticks.
func TestBudgetDerivedBoundary(t *testing.T) {
	b := NewBudget(nil, 10, 0)
	for i := 0; i < 10; i++ {
		if err := b.AddDerived(1); err != nil {
			t.Fatalf("AddDerived %d: %v", i, err)
		}
	}
	if err := b.AddDerived(1); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over cap: err = %v, want ErrOverBudget", err)
	}
	if err := b.Err(); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("verdict not sticky: %v", err)
	}
	if !b.Aborted() {
		t.Fatal("Aborted() = false after trip")
	}
}

// TestBudgetProbeCap: the probe cap trips strictly beyond the limit.
func TestBudgetProbeCap(t *testing.T) {
	b := NewBudget(nil, 0, 2048)
	if err := b.AddProbes(2048); err != nil {
		t.Fatalf("at cap: %v", err)
	}
	if err := b.AddProbes(1); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over cap: err = %v, want ErrOverBudget", err)
	}
}

// TestBudgetCancellation: a canceled context surfaces as ErrCanceled
// wrapping the context's own error, so callers can tell timeout from
// client-gone.
func TestBudgetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx, 0, 0)
	if err := b.Check(); err != nil {
		t.Fatalf("live: %v", err)
	}
	cancel()
	err := b.Check()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	db := NewBudget(dctx, 0, 0)
	derr := db.AddProbes(1)
	if !errors.Is(derr, ErrCanceled) || !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", derr)
	}
}

// TestBudgetFirstAbortWins: concurrent trips record exactly one verdict
// and every later observer reads it.
func TestBudgetFirstAbortWins(t *testing.T) {
	b := NewBudget(nil, 1, 0)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.AddDerived(1)
			errs[i] = b.Err()
		}(i)
	}
	wg.Wait()
	first := b.Err()
	if first == nil {
		t.Fatal("no verdict after concurrent trips")
	}
	for i, err := range errs {
		if err != nil && err != first {
			t.Fatalf("goroutine %d observed %v, verdict is %v", i, err, first)
		}
	}
}

// TestBudgetProbeTrap: the fault injector aborts at the armed probe
// count with the armed error.
func TestBudgetProbeTrap(t *testing.T) {
	b := NewBudget(nil, 0, 0)
	b.SetProbeTrap(3000, ErrCanceled)
	if err := b.AddProbes(2048); err != nil {
		t.Fatalf("below trap: %v", err)
	}
	if err := b.AddProbes(1024); !errors.Is(err, ErrCanceled) {
		t.Fatalf("trap: err = %v, want ErrCanceled", err)
	}
}

// TestExecBudgetStride: an Exec flushes its local countdown into the
// shared budget once per BudgetStride probes, so the shared counter
// tracks work to stride granularity.
func TestExecBudgetStride(t *testing.T) {
	b := NewBudget(nil, 0, 0)
	e := &Exec{}
	e.SetBudget(b)
	for i := 0; i < 3*BudgetStride; i++ {
		if !e.probe() {
			t.Fatalf("probe aborted at %d with no limit", i)
		}
	}
	if got := b.Probes(); got != 3*BudgetStride {
		t.Fatalf("shared probes = %d, want %d", got, 3*BudgetStride)
	}
}
