package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
)

// recordSink records the stream verbatim plus the call protocol.
type recordSink struct {
	epoch     uint64
	columns   int
	rows      [][]string
	truncated bool
	boolAns   *bool
	begun     bool
	ended     bool
	// failRowAt, when > 0, makes that Row call (1-based) return an error
	// — the client-disconnect simulation.
	failRowAt int
}

var errRecordSink = errors.New("record sink failure")

func (r *recordSink) Begin(epoch uint64, columns int) error {
	if r.begun {
		return errors.New("Begin called twice")
	}
	r.begun = true
	r.epoch, r.columns = epoch, columns
	return nil
}

func (r *recordSink) Row(tuple []string) error {
	if !r.begun || r.ended {
		return errors.New("Row outside Begin/End")
	}
	r.rows = append(r.rows, append([]string(nil), tuple...))
	if r.failRowAt > 0 && len(r.rows) >= r.failRowAt {
		return errRecordSink
	}
	return nil
}

func (r *recordSink) End(truncated bool, boolAns *bool) error {
	if !r.begun || r.ended {
		return errors.New("End outside Begin")
	}
	r.ended = true
	r.truncated = truncated
	r.boolAns = boolAns
	return nil
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

// TestQueryStreamMatchesQuery: the streamed protocol delivers exactly the
// tuples of the materialized Query response, for both request forms.
func TestQueryStreamMatchesQuery(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(24))
	reqs := []*QueryRequest{
		{Pred: "t", Args: []string{"_", "_"}},
		{Pred: "t", Args: []string{"n0", "_"}},
		{Query: "?(X,Y) :- t(X,Y)."},
		{Query: "?(X) :- t(n0,X), t(X,n23)."},
		{Query: "s(X,Y) :- t(X,Y). s(Y,X) :- t(X,Y). ?(X) :- s(n23,X)."},
	}
	for _, req := range reqs {
		want := mustQuery(t, svc, req)
		var sink recordSink
		if err := svc.QueryStream(context.Background(), req, &sink); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if !sink.begun || !sink.ended {
			t.Fatalf("%+v: protocol not completed (begun=%v ended=%v)", req, sink.begun, sink.ended)
		}
		if sink.epoch != want.Epoch || sink.columns != want.Columns || sink.truncated != want.Truncated {
			t.Fatalf("%+v: header (%d,%d,%v) != (%d,%d,%v)",
				req, sink.epoch, sink.columns, sink.truncated, want.Epoch, want.Columns, want.Truncated)
		}
		got := sink.rows
		if got == nil {
			got = [][]string{}
		}
		sortRows(got)
		sortRows(want.Tuples)
		if !reflect.DeepEqual(got, want.Tuples) {
			t.Fatalf("%+v: stream %v != query %v", req, got, want.Tuples)
		}
	}
}

// TestQueryStreamLimitPushdown: the stream stops at the limit and flags
// truncation without enumerating the rest.
func TestQueryStreamLimitPushdown(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(32))
	for _, req := range []*QueryRequest{
		{Pred: "t", Args: []string{"_", "_"}, Limit: 5},
		{Query: "?(X,Y) :- t(X,Y).", Limit: 5},
	} {
		var sink recordSink
		if err := svc.QueryStream(context.Background(), req, &sink); err != nil {
			t.Fatal(err)
		}
		if len(sink.rows) != 5 || !sink.truncated {
			t.Fatalf("%+v: %d rows, truncated=%v; want 5, true", req, len(sink.rows), sink.truncated)
		}
	}
}

// TestQueryStreamSinkAbort: a sink failure mid-stream stops the
// enumeration, propagates the error, and counts into Stats.Aborted.
func TestQueryStreamSinkAbort(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(64))
	for _, req := range []*QueryRequest{
		{Pred: "t", Args: []string{"_", "_"}},
		{Query: "?(X,Y) :- t(X,Y)."},
	} {
		before := svc.Stats().Aborted
		sink := recordSink{failRowAt: 3}
		err := svc.QueryStream(context.Background(), req, &sink)
		if !errors.Is(err, errRecordSink) {
			t.Fatalf("%+v: err = %v, want record sink failure", req, err)
		}
		if len(sink.rows) != 3 {
			t.Fatalf("%+v: enumeration continued after sink failure (%d rows)", req, len(sink.rows))
		}
		if got := svc.Stats().Aborted; got != before+1 {
			t.Fatalf("%+v: Aborted = %d, want %d", req, got, before+1)
		}
	}
	// The service still answers after aborted streams.
	if resp := mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"n0", "n1"}}); len(resp.Tuples) != 1 {
		t.Fatalf("service unhealthy after aborts: %+v", resp)
	}
}

// TestQueryStreamCancellation: a context cancelled mid-enumeration stops
// the stream with the context error.
func TestQueryStreamCancellation(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(128))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sink recordSink
	err := svc.QueryStream(ctx, &QueryRequest{Query: "?(X,Y) :- t(X,Y)."}, &sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if svc.Stats().Aborted == 0 {
		t.Fatal("cancelled query not counted as aborted")
	}
}

// viewCloneOracle evaluates view rules + query the way the service did
// before demand rewriting and the overlay cache: datalog.Eval of every
// view rule into a Clone of the snapshot, then plan.EvalCQ.
func viewCloneOracle(t *testing.T, svc *Service, src string) [][]string {
	t.Helper()
	e, err := svc.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	prog := e.gen.prog
	tmp := &logic.Program{Store: prog.Store, Reg: prog.Reg}
	res, err := parser.ParseInto(tmp, src)
	if err != nil {
		t.Fatal(err)
	}
	sdb := e.snap.DB()
	if len(tmp.TGDs) > 0 {
		out, _, err := datalog.Eval(tmp, sdb, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
		if err != nil {
			t.Fatal(err)
		}
		sdb = out
	}
	var rows [][]string
	for _, tup := range plan.EvalCQ(sdb, res.Queries[0]) {
		rows = append(rows, prog.Store.Names(tup))
	}
	return rows
}

// TestOverlayViewMatchesCloneOracle: view queries the service answers
// (demand rewriting, cached overlays) agree with a plain datalog.Eval of
// the view rules into a Clone of the epoch's view.
func TestOverlayViewMatchesCloneOracle(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(20))
	views := []string{
		// Non-recursive view over a derived predicate.
		"pair(X,Y) :- t(X,Y). ?(X) :- pair(X,n19).",
		// Recursive view: symmetric closure.
		"s(X,Y) :- e(X,Y). s(Y,X) :- s(X,Y). ?(X) :- s(n0,X).",
		// View joining base and derived predicates (constants live in the
		// query; the parser keeps TGDs constant-free).
		"far(X,Z) :- t(X,Y), t(Y,Z). ?(Z) :- far(n0,Z).",
		// Boolean over a view.
		"mid(X,Z) :- t(X,Y), t(Y,Z). ? :- mid(n0,n10).",
	}
	for _, src := range views {
		want := viewCloneOracle(t, svc, src)
		resp := mustQuery(t, svc, &QueryRequest{Query: src})
		if resp.Bool != nil {
			if len(want) == 0 == *resp.Bool {
				t.Fatalf("%s: bool=%v, oracle has %d answers", src, *resp.Bool, len(want))
			}
			continue
		}
		got := resp.Tuples
		sortRows(got)
		sortRows(want)
		if want == nil {
			want = [][]string{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\noverlay %v\noracle  %v", src, got, want)
		}
	}
}

// TestOverlayCachedPerEpoch: each view query's overlay is built once per
// (epoch, evaluation, constants) — a bound goal's demand overlay and the
// full view alike — and repeats hit the cache. A bound goal keeps its own
// overlay after the full view is built. A write (new epoch) or a textual
// rule change builds anew.
func TestOverlayCachedPerEpoch(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(12))
	rules := "s(X,Y) :- e(X,Y). s(X,Z) :- e(X,Y), s(Y,Z). "
	free, bound := rules+"?(X,Y) :- s(X,Y).", rules+"?(X) :- s(n0,X)."
	overlays := func() int {
		e, err := svc.acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer e.release()
		e.ovMu.Lock()
		defer e.ovMu.Unlock()
		return len(e.overlays)
	}
	base := svc.Stats().ViewBuilds

	// Bound goal first: one demand fixpoint, cached, then hits.
	for i := 1; i <= 2; i++ {
		tr := explainQuery(t, svc, &QueryRequest{Query: bound})
		if !tr.View.Demand || tr.View.CacheHit != (i == 2) || tr.Rows != 11 {
			t.Fatalf("bound goal %d on one epoch: %+v, rows %d", i, tr.View, tr.Rows)
		}
		if got := svc.Stats().ViewBuilds; got != base+1 || overlays() != 1 {
			t.Fatalf("after %d demand queries: ViewBuilds = %d (base %d), %d overlays cached", i, got, base, overlays())
		}
	}
	base++

	first := mustQuery(t, svc, &QueryRequest{Query: free})
	for i := 0; i < 5; i++ {
		resp := mustQuery(t, svc, &QueryRequest{Query: free})
		if len(resp.Tuples) != len(first.Tuples) {
			t.Fatalf("run %d: %d tuples, want %d", i, len(resp.Tuples), len(first.Tuples))
		}
	}
	if got := svc.Stats().ViewBuilds; got != base+1 || overlays() != 2 {
		t.Fatalf("ViewBuilds = %d, %d overlays after repeated identical queries, want %d and 2", got, overlays(), base+1)
	}
	// The bound goal still reads its own overlay.
	tr := explainQuery(t, svc, &QueryRequest{Query: bound})
	if !tr.View.Demand || !tr.View.CacheHit || tr.Rows != 11 {
		t.Fatalf("bound goal after the full build: %+v, rows %d", tr.View, tr.Rows)
	}
	if got := svc.Stats().ViewBuilds; got != base+1 {
		t.Fatalf("ViewBuilds = %d after a bound goal on a cached overlay, want %d", got, base+1)
	}
	// A write publishes a new epoch: the next view query rebuilds and
	// sees the new fact (n11 now reaches x0).
	if _, err := svc.Insert("e(n11,x0)."); err != nil {
		t.Fatal(err)
	}
	resp := mustQuery(t, svc, &QueryRequest{Query: free})
	if got := svc.Stats().ViewBuilds; got != base+2 {
		t.Fatalf("ViewBuilds = %d after epoch change, want %d", got, base+2)
	}
	if len(resp.Tuples) != len(first.Tuples)+12 {
		t.Fatalf("view stale after insert: %d tuples, want %d", len(resp.Tuples), len(first.Tuples)+12)
	}
	// Renamed variables are a different shape: a fresh build, same
	// answers.
	renamed := "s(A,B) :- e(A,B). s(A,C) :- e(A,B), s(B,C). ?(A,B) :- s(A,B)."
	resp2 := mustQuery(t, svc, &QueryRequest{Query: renamed})
	if got := svc.Stats().ViewBuilds; got != base+3 {
		t.Fatalf("ViewBuilds = %d after renamed rules, want %d", got, base+3)
	}
	if len(resp2.Tuples) != len(resp.Tuples) {
		t.Fatalf("renamed view answers differ: %d vs %d", len(resp2.Tuples), len(resp.Tuples))
	}
}

// TestOverlayConcurrentWithWrites: concurrent view queries race a writer
// publishing epochs — all-free goals over one shared shape (the
// single-flight overlay cache) and over per-goroutine shapes, and bound
// goals evaluating on demand; every response must be internally
// consistent with its own epoch's chain length.
func TestOverlayConcurrentWithWrites(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	const n = 16
	mustLoad(t, svc, chainSource(n))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The closure of the chain grows quadratically with every insert,
		// and slower readers let the writer run longer: cap the writes so a
		// loaded box cannot turn the race into a multi-GB closure.
		for i := 0; i < 400; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.Insert(fmt.Sprintf("e(n%d,n%d).", n-1+i, n+i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var qg sync.WaitGroup
	for g := 0; g < 6; g++ {
		qg.Add(1)
		go func(g int) {
			defer qg.Done()
			var view string
			switch g % 3 {
			case 0:
				view = "r(X,Y) :- t(X,Y). ?(Y) :- r(X,Y)."
			case 1:
				view = fmt.Sprintf("r%d(X,Y) :- t(X,Y). ?(Y) :- r%d(X,Y).", g, g)
			default:
				view = "r(X,Y) :- t(X,Y). ?(Y) :- r(n0,Y)."
			}
			for i := 0; i < 25; i++ {
				resp, err := svc.Query(&QueryRequest{Query: view})
				if err != nil {
					t.Error(err)
					return
				}
				// The chain only grows: epoch k has n-1+k edges, and n0
				// reaches everything — either goal answers with chain
				// length - 1 nodes, at least n-1.
				if len(resp.Tuples) < n-1 {
					t.Errorf("epoch %d: %d reachable, want >= %d", resp.Epoch, len(resp.Tuples), n-1)
					return
				}
			}
		}(g)
	}
	qg.Wait()
	close(stop)
	wg.Wait()
}

// TestCachedOverlaySharedFirstProbe: queries that find a finished overlay
// on their epoch read it concurrently, and the first of them to join on a
// derived view relation probes a posting position nobody has built. The
// overlay they share must be one whose probes are safe to race (run under
// -race): a frozen view, where that build happens once, under a lock.
func TestCachedOverlaySharedFirstProbe(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(40))
	// All-free goal: the full overlay is built once and cached; the join
	// scans back and keys back again on its first position.
	const view = "back(X,Y) :- t(Y,X). ?(X,Y) :- back(X,Z), back(Z,Y)."
	want := len(mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"_", "_"}}).Tuples) - 39
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := svc.Query(&QueryRequest{Query: view})
			if err != nil {
				t.Error(err)
				return
			}
			// Two hops back along a chain: every pair at distance >= 2.
			if len(resp.Tuples) != want {
				t.Errorf("%d answers, want %d", len(resp.Tuples), want)
			}
		}()
	}
	wg.Wait()
	if got := svc.Stats().ViewBuilds; got != 1 {
		t.Fatalf("ViewBuilds = %d, want one shared overlay", got)
	}
}

// TestQueryStreamPatternUnknownConstant: a bound constant the store has
// never interned streams an empty result, not an error.
func TestQueryStreamPatternUnknownConstant(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(4))
	var sink recordSink
	if err := svc.QueryStream(context.Background(), &QueryRequest{Pred: "t", Args: []string{"nope", "_"}}, &sink); err != nil {
		t.Fatal(err)
	}
	if !sink.ended || len(sink.rows) != 0 || sink.truncated {
		t.Fatalf("unknown constant: ended=%v rows=%d truncated=%v", sink.ended, len(sink.rows), sink.truncated)
	}
}

// TestCQPlanCacheReuse: repeated rule queries of one generation reuse the
// compiled plan (cache populated once, map stable across epochs).
func TestCQPlanCacheReuse(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(8))
	q := &QueryRequest{Query: "?(X,Y) :- t(X,Y)."}
	mustQuery(t, svc, q)
	svc.mu.Lock()
	g := svc.gen
	svc.mu.Unlock()
	g.cqPlans.mu.RLock()
	n := len(g.cqPlans.m)
	g.cqPlans.mu.RUnlock()
	if n != 1 {
		t.Fatalf("cqPlans = %d entries after first query, want 1", n)
	}
	// Same text re-parses to the same structural key — still one entry,
	// across an epoch change too.
	if _, err := svc.Insert("e(n7,n8)."); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, svc, q)
	g.cqPlans.mu.RLock()
	n = len(g.cqPlans.m)
	g.cqPlans.mu.RUnlock()
	if n != 1 {
		t.Fatalf("cqPlans = %d entries after re-query, want 1", n)
	}
}
