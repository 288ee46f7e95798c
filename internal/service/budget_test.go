package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
)

// oracleTCount recomputes the chain program from scratch with
// datalog.Eval and returns its t-fact count — the consistency oracle the
// service must keep matching after injected aborts.
func oracleTCount(t *testing.T, n int) int {
	t.Helper()
	r, err := parser.Parse(chainSource(n))
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	want, _, err := datalog.Eval(r.Program, db, datalog.Options{Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	tp, ok := r.Program.Reg.Lookup("t")
	if !ok {
		t.Fatal("no t predicate")
	}
	count := 0
	for _, f := range want.All() {
		if f.Pred == tp {
			count++
		}
	}
	return count
}

// TestServiceFaultInjectionConsistency is the robustness property test:
// budgets armed with probe traps at randomized counts abort queries and
// view builds mid-fixpoint, and after every injected abort the next
// unbudgeted query on the same epoch must still match the from-scratch
// datalog.Eval oracle. Runs in CI's -race -cpu matrix.
func TestServiceFaultInjectionConsistency(t *testing.T) {
	const n = 96
	const wantAborts = 100
	svc := New(Options{})
	mustLoad(t, svc, chainSource(n))
	wantT := oracleTCount(t, n)
	if wantT != chainClosure(n, nil) {
		t.Fatalf("oracle t-count %d, closure arithmetic %d", wantT, chainClosure(n, nil))
	}

	// The hook arms a one-shot trap on the next request budget. All
	// queries here run on the test goroutine, so the plain trapErr var
	// needs no synchronization; trapAt is atomic because the hook also
	// observes write budgets.
	var trapAt atomic.Int64
	var trapErr error
	budgetHook = func(b *plan.Budget) {
		if v := trapAt.Swap(0); v > 0 {
			b.SetProbeTrap(v, trapErr)
		}
	}
	defer func() { budgetHook = nil }()

	rng := rand.New(rand.NewSource(0xE8))
	aborts, completed := 0, 0
	for i := 0; aborts < wantAborts && i < 50*wantAborts; i++ {
		var req *QueryRequest
		switch i % 3 {
		case 0:
			// Fresh view shape every round so the single-flight cache
			// cannot satisfy it — the trap lands inside the overlay build.
			req = &QueryRequest{Query: fmt.Sprintf(
				"w%d(X,Z) :- t(X,Y), t(Y,Z). ?(X,Z) :- w%d(X,Z).", i, i)}
		case 1:
			req = &QueryRequest{Query: "?(X,Y) :- t(X,Y)."}
		default:
			req = &QueryRequest{Pred: "t", Args: []string{"", ""}}
		}
		if i%2 == 0 {
			trapErr = plan.ErrCanceled
		} else {
			trapErr = plan.ErrOverBudget
		}
		trapAt.Store(int64(1 + rng.Intn(4*plan.BudgetStride)))

		_, err := svc.Query(req)
		trapAt.Store(0)
		if err == nil {
			completed++
			continue
		}
		if !isAbort(err) {
			t.Fatalf("query %d: non-abort error %v", i, err)
		}
		aborts++
		// Consistency after the abort: an unbudgeted query on the same
		// epoch must still see the exact oracle closure.
		resp := mustQuery(t, svc, &QueryRequest{Query: "?(X,Y) :- t(X,Y)."})
		if len(resp.Tuples) != wantT {
			t.Fatalf("after abort %d: %d t-tuples, oracle %d", aborts, len(resp.Tuples), wantT)
		}
	}
	if aborts < wantAborts {
		t.Fatalf("only %d injected aborts (and %d completions); trap range too wide", aborts, completed)
	}
	st := svc.Stats()
	if st.OverBudget == 0 {
		t.Fatal("no aborts classified over-budget")
	}
	if st.Aborted == 0 {
		t.Fatal("no aborts classified canceled")
	}
	if st.OverBudget+st.Aborted+st.TimedOut < uint64(wantAborts) {
		t.Fatalf("stats account for %d aborts, injected %d",
			st.OverBudget+st.Aborted+st.TimedOut, wantAborts)
	}
}

// TestOverlayAbortedBuildRetried is the single-flight regression: a
// canceled first requester must not poison the view shape — its entry is
// evicted, a concurrent waiter retries as the new builder under its own
// live budget, and a sequential second requester succeeds. The aborted
// build must also release its epoch pin (the epoch drains after the next
// write).
func TestOverlayAbortedBuildRetried(t *testing.T) {
	const n = 256
	svc := New(Options{})
	mustLoad(t, svc, chainSource(n))
	// An all-free goal: only those build (and single-flight) the full view.
	viewQ := &QueryRequest{Query: "v(X,Z) :- t(X,Y), t(Y,Z). ?(Z) :- v(X,Z)."}
	builds0 := svc.Stats().ViewBuilds

	// Builder 1: starts the overlay build, then gets canceled mid-way.
	ctx1, cancel1 := context.WithCancel(context.Background())
	firstDone := make(chan error, 1)
	go func() {
		var sink collectSink
		firstDone <- svc.QueryStream(ctx1, viewQ, &sink)
	}()
	// Wait until the build actually started, then let a waiter pile up
	// on the single-flight entry before canceling the builder.
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().ViewBuilds == builds0; {
		if time.Now().After(deadline) {
			t.Fatal("first build never started")
		}
		time.Sleep(time.Millisecond)
	}
	waiterDone := make(chan *QueryResponse, 1)
	go func() {
		resp, err := svc.Query(viewQ)
		if err != nil {
			t.Errorf("waiter: %v", err)
			waiterDone <- nil
			return
		}
		waiterDone <- resp
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter reach the entry
	cancel1()

	if err := <-firstDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled builder returned %v, want context.Canceled", err)
	}
	resp := <-waiterDone
	if resp == nil {
		t.Fatal("waiter failed")
	}
	// n2..n255 end a path of length ≥ 2: 254 answers.
	if len(resp.Tuples) != n-2 {
		t.Fatalf("waiter got %d tuples, want %d", len(resp.Tuples), n-2)
	}

	// Sequential second requester: the shape is now cached and healthy.
	resp2 := mustQuery(t, svc, viewQ)
	if len(resp2.Tuples) != n-2 {
		t.Fatalf("second requester got %d tuples, want %d", len(resp2.Tuples), n-2)
	}

	// The canceled build released its epoch pin: a write retires the
	// epoch and it drains (refcount reached zero) promptly.
	drained0 := svc.Stats().EpochsDrained
	if _, err := svc.Insert("e(z0,z1)."); err != nil {
		t.Fatalf("insert: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().EpochsDrained == drained0; {
		if time.Now().After(deadline) {
			t.Fatal("aborted build leaked an epoch reference: old epoch never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestViewBuildDeadlineAcceptance is the PR's acceptance scenario: a
// huge view build with a 50ms deadline fails fast with a timeout, the
// writer is unaffected, and a follow-up unbudgeted query on the same
// service is still exact.
func TestViewBuildDeadlineAcceptance(t *testing.T) {
	const n = 448 // composition join probes ~C(448,3) ≈ 15M: far beyond 50ms
	svc := New(Options{})
	mustLoad(t, svc, chainSource(n))

	start := time.Now()
	_, err := svc.Query(&QueryRequest{
		Query:     "v(X,Z) :- t(X,Y), t(Y,Z). ?(X,Z) :- v(X,Z).",
		TimeoutMS: 50,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, plan.ErrCanceled) {
		t.Fatalf("err = %v (after %v), want deadline abort", err, elapsed)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("50ms-deadline query took %v, want <100ms", elapsed)
	}
	if st := svc.Stats(); st.TimedOut == 0 {
		t.Fatal("timeout not counted in queries_timeout")
	}

	// Writer unaffected by the aborted build.
	if _, err := svc.Insert(fmt.Sprintf("e(n%d,n%d).", n-1, n)); err != nil {
		t.Fatalf("insert after aborted build: %v", err)
	}
	// Unbudgeted query still exact (chain is now one longer).
	resp := mustQuery(t, svc, &QueryRequest{Query: "?(X) :- t(n0,X)."})
	if len(resp.Tuples) != n {
		t.Fatalf("follow-up query got %d reachable nodes, want %d", len(resp.Tuples), n)
	}
}

// TestQueryBudgetKnobsAndClamping: per-request caps trip with
// over-budget errors and count into the stats; server-side ceilings
// clamp requests that ask for nothing (and for too much).
func TestQueryBudgetKnobsAndClamping(t *testing.T) {
	const n = 96
	svc := New(Options{})
	mustLoad(t, svc, chainSource(n))

	// Request-level probe cap.
	_, err := svc.Query(&QueryRequest{Query: "?(X,Y) :- t(X,Y).", MaxProbes: plan.BudgetStride})
	if !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("probe-capped query: %v", err)
	}
	// Request-level derived cap on a view build of a recursive view, full
	// and on demand.
	for _, goal := range []string{"?(X,Z) :- v(X,Z).", "?(X) :- v(n0,X)."} {
		_, err = svc.Query(&QueryRequest{Query: "v(X,Z) :- t(X,Y), t(Y,Z). v(X,Z) :- v(X,Y), v(Y,Z). " + goal, MaxDerived: 10})
		if !errors.Is(err, plan.ErrOverBudget) {
			t.Fatalf("derived-capped view build %s: %v", goal, err)
		}
	}
	if st := svc.Stats(); st.OverBudget != 3 {
		t.Fatalf("queries_over_budget = %d, want 3", st.OverBudget)
	}
	// An unfolded read derives nothing, so the derived cap never binds it.
	if resp, err := svc.Query(&QueryRequest{Query: "v(X,Z) :- t(X,Y), t(Y,Z). ?(X) :- v(n0,X).", MaxDerived: 1}); err != nil || len(resp.Tuples) != n-2 {
		t.Fatalf("derived-capped unfolded read: %v", err)
	}

	// Server ceiling binds a request that asks for nothing… (the ceiling
	// is set after Load — it would bound the load's materialization too).
	capped := New(Options{})
	mustLoad(t, capped, chainSource(n))
	capped.opt.MaxProbes = plan.BudgetStride
	if _, err := capped.Query(&QueryRequest{Query: "?(X,Y) :- t(X,Y)."}); !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("ceiling not applied to default request: %v", err)
	}
	// …and one that asks for more than the ceiling.
	if _, err := capped.Query(&QueryRequest{Query: "?(X,Y) :- t(X,Y).", MaxProbes: 1 << 30}); !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("ceiling not applied to oversized request: %v", err)
	}
	// A request under the ceiling is honored as-is: clampCap arithmetic.
	if got := clampCap(5, 10); got != 5 {
		t.Fatalf("clampCap(5,10) = %d", got)
	}
	if got := clampCap(0, 10); got != 10 {
		t.Fatalf("clampCap(0,10) = %d", got)
	}
	if got := clampCap(20, 10); got != 10 {
		t.Fatalf("clampCap(20,10) = %d", got)
	}
	if got := clampCap(7, 0); got != 7 {
		t.Fatalf("clampCap(7,0) = %d", got)
	}

	// MaxTimeout ceiling: a request without a timeout inherits it.
	slow := New(Options{})
	mustLoad(t, slow, chainSource(448))
	slow.opt.MaxTimeout = 30 * time.Millisecond
	_, err = slow.Query(&QueryRequest{Query: "v(X,Z) :- t(X,Y), t(Y,Z). ?(X,Z) :- v(X,Z)."})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MaxTimeout ceiling not applied: %v", err)
	}
}

// TestAbortedWriteRearmsCompaction: the compaction a drained epoch asks
// for runs at the start of the next write, so an aborted write that
// rolls back to the served epoch undoes it too. The rollback must ask for
// it again, and the engine counters must not count the undone rows.
func TestAbortedWriteRearmsCompaction(t *testing.T) {
	const n = 60
	svc := New(Options{})
	mustLoad(t, svc, chainSource(n))
	// Cutting the chain in the middle kills half of t. The served epoch
	// pins t, so the delete defers its compaction; the epoch it retires
	// drains at once and asks for the retry.
	if _, err := svc.Delete(fmt.Sprintf("e(n%d,n%d).", n/2-1, n/2)); err != nil {
		t.Fatal(err)
	}
	if !svc.compactPending.Load() {
		t.Fatal("no compaction pending after the retired epoch drained")
	}
	served := svc.Stats()
	if served.Engine.Compacted != 0 {
		t.Fatalf("the delete compacted %d rows under the epoch's pins", served.Engine.Compacted)
	}

	// The write compacts first, then aborts on its derived-fact cap.
	svc.opt.MaxDerived = 1
	_, err := svc.Insert(fmt.Sprintf("e(n%d,n%d).", n-1, n))
	svc.opt.MaxDerived = 0
	if !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("capped insert: %v, want ErrOverBudget", err)
	}
	if !svc.compactPending.Load() {
		t.Fatal("rollback dropped the pending compaction")
	}
	if got := svc.eng.Stats(); got != served.Engine {
		t.Fatalf("engine counters after the rollback = %+v, want %+v", got, served.Engine)
	}

	if _, err := svc.Insert(fmt.Sprintf("e(n%d,n%d).", n-1, n)); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Engine.Compacted == 0 {
		t.Fatalf("the next write did not compact: %+v", st.Engine)
	}
	want := chainClosure(n+1, map[int]bool{n/2 - 1: true})
	if got := len(mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"", ""}}).Tuples); got != want {
		t.Fatalf("%d t facts, want %d", got, want)
	}
	if err := svc.eng.DB().Verify(); err != nil {
		t.Fatal(err)
	}
}
