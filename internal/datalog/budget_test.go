package datalog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
)

// tcNonLinear is the non-linear transitive closure: the recursive rule
// joins two atoms over the growing predicate, so a round's own output
// re-enters the round's joins under direct insertion.
const tcNonLinear = `
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
`

// chainFacts emits the edge list of an n-node path; tcNonLinear's
// closure over it has n(n-1)/2 t-facts, all derived, giving exact
// budget boundaries.
func chainFacts(n int) string {
	var b strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, i+1)
	}
	return b.String()
}

// TestBudgetDerivedBoundaryEngines: limit == |closure| completes with the full
// fixpoint; limit == |closure|-1 aborts with ErrOverBudget and returns
// no instance, and so does a limit below |e|, which the union rule
// t(X,Y) :- e(X,Y) alone exceeds (its window does not fit the headroom,
// so it is joined row by row up to the cap).
func TestBudgetDerivedBoundaryEngines(t *testing.T) {
	src := tcNonLinear + chainFacts(24)
	r, db := load(t, src)
	ref, stats, err := Eval(r.Program, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	closure := stats.Derived
	if want := 24 * 23 / 2; closure != want {
		t.Fatalf("closure derived %d facts, want %d", closure, want)
	}

	// Exactly the closure: must complete.
	out, _, err := Eval(r.Program, db, Options{Budget: plan.NewBudget(nil, closure, 0)})
	if err != nil {
		t.Fatalf("limit==closure(%d): %v", closure, err)
	}
	if out.Len() != ref.Len() {
		t.Fatalf("limit==closure: %d facts, want %d", out.Len(), ref.Len())
	}
	// One fewer, or fewer than the edges: must trip.
	for _, limit := range []int{closure - 1, 22, 1} {
		bud := plan.NewBudget(nil, limit, 0)
		out, _, err = Eval(r.Program, db, Options{Budget: bud})
		if !errors.Is(err, plan.ErrOverBudget) {
			t.Fatalf("limit %d: err = %v, want ErrOverBudget", limit, err)
		}
		if out != nil {
			t.Fatalf("limit %d: aborted Eval returned an instance", limit)
		}
		if bud.Derived() != int64(limit)+1 {
			t.Fatalf("limit %d: charged %d derived facts, want the one past the cap", limit, bud.Derived())
		}
	}
}

// TestBudgetProbeLimit: a probe cap far under the fixpoint's join work
// aborts evaluation with ErrOverBudget and no instance.
func TestBudgetProbeLimit(t *testing.T) {
	r, db := load(t, tcNonLinear+chainFacts(64))
	bud := plan.NewBudget(nil, 0, 2*plan.BudgetStride)
	out, stats, err := Eval(r.Program, db, Options{Budget: bud})
	if !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	if out != nil {
		t.Fatal("aborted Eval returned an instance")
	}
	if stats == nil {
		t.Fatal("aborted Eval returned nil stats")
	}
}

// TestBudgetTrapCancel: the deterministic fault injector aborts the
// fixpoint at an armed probe count with the armed (cancel-typed) error.
func TestBudgetTrapCancel(t *testing.T) {
	r, db := load(t, tcNonLinear+chainFacts(64))
	bud := plan.NewBudget(nil, 0, 0)
	bud.SetProbeTrap(3*plan.BudgetStride, plan.ErrCanceled)
	if _, _, err := Eval(r.Program, db, Options{Budget: bud}); !errors.Is(err, plan.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestBudgetDeadline: a deadline expiring inside the evaluation of a dense
// non-linear workload aborts it promptly, and the error identifies the
// timeout.
func TestBudgetDeadline(t *testing.T) {
	r, db := load(t, tcNonLinear+chainFacts(600))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	out, _, err := Eval(r.Program, db, Options{Budget: plan.NewBudget(ctx, 0, 0)})
	elapsed := time.Since(start)
	if !errors.Is(err, plan.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if out != nil {
		t.Fatal("aborted Eval returned an instance")
	}
	// The 180k-fact closure takes far longer than the 1ms deadline; the
	// abort must land within stride granularity, not at the end.
	if elapsed > 2*time.Second {
		t.Fatalf("abort took %v", elapsed)
	}
}

// TestBudgetPreCanceled: a budget whose context is already dead aborts
// before any evaluation work.
func TestBudgetPreCanceled(t *testing.T) {
	r, db := load(t, tcLinear+"e(a,b).")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bud := plan.NewBudget(ctx, 0, 0)
	if _, _, err := Eval(r.Program, db, Options{Budget: bud}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Eval: err = %v, want context.Canceled", err)
	}
	if bud.Probes() != 0 {
		t.Fatalf("pre-canceled budget charged %d probes", bud.Probes())
	}
}
