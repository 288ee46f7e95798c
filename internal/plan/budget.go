package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

// Budgets: the single cancellation/backpressure mechanism of every
// fixpoint in the system.
//
// A Budget bounds one unit of evaluation work — a query, a view
// materialization, an incremental update — with three independent caps:
// a derived-fact limit (how much the instance may grow), a probe limit
// (how much join work may run, matched or not), and a context deadline
// or cancellation. All evaluation hot loops already count probes
// (Exec.Probes, the E8 work metric) and insertions, so budget
// enforcement rides the existing counters: every Exec flushes its local
// probe count into the shared budget once per BudgetStride probes and
// polls the verdict there, which keeps the unbudgeted path at one
// predictable nil-check per probe and the budgeted path at one atomic
// add per stride.
//
// A Budget is shared by every Exec of one evaluation: the first trip of
// any limit stops the enumeration in progress, every later stride check
// and round boundary observes the verdict, and the fixpoint returns the
// typed error. The instance being built is left consistent but
// incomplete, and every caller discards it: the service evicts aborted
// overlays and rolls an aborted update back to the epoch it serves.
//
// All methods are nil-receiver safe: a nil *Budget is the unlimited
// budget, so engines thread Options.Budget through unconditionally.

// ErrOverBudget is the typed error of a gas limit trip: the evaluation
// derived more facts or ran more probes than its budget allows.
var ErrOverBudget = errors.New("plan: over budget")

// ErrCanceled is the typed error of a context abort: the budget's
// deadline expired or its context was canceled mid-evaluation. The
// underlying context error is wrapped, so errors.Is distinguishes
// context.DeadlineExceeded (timeout) from context.Canceled (client
// gone).
var ErrCanceled = errors.New("plan: canceled")

// BudgetStride is how many probes an Exec accumulates locally before
// flushing into the shared budget and polling limits, deadline, and the
// abort flag. Limits are therefore enforced to stride granularity: a
// probe cap may be overshot by up to BudgetStride-1 probes per Exec
// before the abort lands.
const BudgetStride = 1024

// Budget is a shared evaluation allowance. Create with NewBudget; share
// freely across goroutines (all state is atomic). The zero limits mean
// unlimited; the context may carry a deadline or cancellation.
type Budget struct {
	ctx        context.Context
	maxDerived int64
	maxProbes  int64

	probes  atomic.Int64
	derived atomic.Int64

	// trapAt/trapErr is the deterministic fault-injection hook of the
	// robustness suite: when the cumulative probe count crosses trapAt,
	// the budget aborts with trapErr — simulating a cancellation or an
	// over-budget trip at a reproducible point of the fixpoint. Set
	// before the budget is shared; never used in production paths.
	trapAt  int64
	trapErr error

	// err is the abort verdict: nil while live, the first typed error
	// once tripped (first abort wins; later trips observe it).
	err atomic.Pointer[error]
}

// NewBudget returns a budget enforcing the given caps. ctx nil means
// context.Background(); maxDerived/maxProbes 0 mean unlimited.
func NewBudget(ctx context.Context, maxDerived, maxProbes int) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Budget{ctx: ctx, maxDerived: int64(maxDerived), maxProbes: int64(maxProbes)}
}

// Context returns the budget's context (context.Background() for nil
// budgets) — evaluation layers that take a context thread it from here.
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}

// Err returns the abort verdict: nil while the budget is live, the
// typed error (ErrOverBudget / ErrCanceled, with detail wrapped) once
// any limit tripped. Engines poll this between rounds and after every
// enumeration to decide whether to keep going.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if p := b.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Aborted reports whether the budget has tripped — the cheap flag the
// engines poll between units of work.
func (b *Budget) Aborted() bool {
	return b != nil && b.err.Load() != nil
}

// Budget aborts by reason — counted once per budget, at the first
// trip only (the CAS winner).
var (
	obsAbortOverBudget = obs.NewCounter("vadalog_budget_aborts_total", `reason="over_budget"`, "Evaluations aborted by budget trips, by reason.")
	obsAbortTimeout    = obs.NewCounter("vadalog_budget_aborts_total", `reason="timeout"`, "Evaluations aborted by budget trips, by reason.")
	obsAbortCanceled   = obs.NewCounter("vadalog_budget_aborts_total", `reason="canceled"`, "Evaluations aborted by budget trips, by reason.")
)

// abort records the first verdict and returns the winning one.
func (b *Budget) abort(err error) error {
	if b.err.CompareAndSwap(nil, &err) && obs.On() {
		switch {
		case errors.Is(err, ErrOverBudget):
			obsAbortOverBudget.Inc()
		case errors.Is(err, context.DeadlineExceeded):
			obsAbortTimeout.Inc()
		default:
			obsAbortCanceled.Inc()
		}
	}
	return *b.err.Load()
}

// Check polls cancellation and the abort flag without charging any
// work — the round-boundary and pre-flight check.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	if p := b.err.Load(); p != nil {
		return *p
	}
	if err := b.ctx.Err(); err != nil {
		return b.abort(fmt.Errorf("%w: %w", ErrCanceled, err))
	}
	return nil
}

// AddProbes charges n probes and polls every limit: the probe cap, the
// injection trap, the deadline, and the shared abort flag. Non-nil
// return means stop now.
func (b *Budget) AddProbes(n int) error {
	if b == nil {
		return nil
	}
	p := b.probes.Add(int64(n))
	if b.trapErr != nil && p >= b.trapAt {
		return b.abort(b.trapErr)
	}
	if b.maxProbes > 0 && p > b.maxProbes {
		return b.abort(fmt.Errorf("%w: probes > %d", ErrOverBudget, b.maxProbes))
	}
	return b.Check()
}

// Headroom reports how many more derived facts the cap allows
// (math.MaxInt when uncapped).
func (b *Budget) Headroom() int {
	if b == nil || b.maxDerived == 0 {
		return math.MaxInt
	}
	return int(b.maxDerived - b.derived.Load())
}

// AddDerived charges n derived facts against the derived-fact cap. The
// direct-insert driver counts a join's insertions, stops at the one past
// Headroom and charges them once, so the cap is exact: a closure of
// exactly maxDerived facts completes, one more trips.
func (b *Budget) AddDerived(n int) error {
	if b == nil {
		return nil
	}
	d := b.derived.Add(int64(n))
	if b.maxDerived > 0 && d > b.maxDerived {
		return b.abort(fmt.Errorf("%w: derived facts > %d", ErrOverBudget, b.maxDerived))
	}
	if p := b.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Probes and Derived report the work charged so far.
func (b *Budget) Probes() int64 {
	if b == nil {
		return 0
	}
	return b.probes.Load()
}

func (b *Budget) Derived() int64 {
	if b == nil {
		return 0
	}
	return b.derived.Load()
}

// SetProbeTrap arms the fault injector: once the cumulative probe count
// reaches at, the budget aborts with err (pass ErrCanceled to simulate
// a cancellation, ErrOverBudget a gas trip). Checked at the same stride
// as the real limits, so injected aborts land at reproducible points.
// Must be called before the budget is shared with any evaluation.
func (b *Budget) SetProbeTrap(at int64, err error) {
	b.trapAt, b.trapErr = at, err
}
