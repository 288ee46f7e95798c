package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"
)

// viewQuery defines a recursive view over the loaded e-edges and asks
// for every node something reaches (an all-free goal, so the full view
// is built and cached): exercises the overlay build, the stratum/join
// tracing of the fixpoint, and the CQ enumeration on top.
const viewQuery = `
v(X,Y) :- e(X,Y).
v(X,Z) :- e(X,Y), v(Y,Z).
?(X) :- v(Y,X).
`

func explainQuery(t *testing.T, svc *Service, req *QueryRequest) *QueryTrace {
	t.Helper()
	req.Explain = true
	resp := mustQuery(t, svc, req)
	if resp.Explain == nil {
		t.Fatal("explain requested but response carries no trace")
	}
	return resp.Explain
}

func TestExplainPatternTrace(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(8))

	tr := explainQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"n0", "_"}})
	if tr.Class != "pattern" {
		t.Fatalf("class = %q, want pattern", tr.Class)
	}
	if tr.Pattern == nil || tr.Pattern.Pred != "t" || tr.Pattern.BoundMask != 1 {
		t.Fatalf("pattern trace = %+v", tr.Pattern)
	}
	if tr.Rows != 7 || tr.Pattern.Matches != 7 {
		t.Fatalf("rows/matches = %d/%d, want 7/7", tr.Rows, tr.Pattern.Matches)
	}
	if tr.Pattern.Cached {
		t.Fatal("first query of the shape reported a plan-cache hit")
	}

	// Same shape again: the scan plan must come from the cache now.
	tr = explainQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"n1", "_"}})
	if !tr.Pattern.Cached {
		t.Fatal("second query of the shape missed the plan cache")
	}

	// Fully bound: the ground class.
	tr = explainQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"n0", "n1"}})
	if tr.Class != "ground" || tr.Rows != 1 {
		t.Fatalf("ground query: class=%q rows=%d", tr.Class, tr.Rows)
	}
}

// TestExplainViewDeterminism: the same program and query on two fresh
// services yield the SAME join orders, round counts, and per-stratum
// effort — the trace is a function of program + data, not of run-to-run
// scheduling.
func TestExplainViewDeterminism(t *testing.T) {
	run := func() *QueryTrace {
		svc := New(Options{})
		defer svc.Close()
		mustLoad(t, svc, chainSource(16))
		return explainQuery(t, svc, &QueryRequest{Query: viewQuery})
	}
	a, b := run(), run()
	if a.Class != "view" || a.View == nil || a.CQ == nil {
		t.Fatalf("trace shape: %+v", a)
	}
	if a.View.CacheHit {
		t.Fatal("fresh service reported a view-cache hit")
	}
	if a.View.Rounds == 0 || a.View.Derived == 0 || len(a.View.JoinOrders) == 0 {
		t.Fatalf("view build effort missing: %+v", a.View)
	}
	if a.View.Rounds != b.View.Rounds || a.View.Derived != b.View.Derived {
		t.Fatalf("rounds/derived differ across runs: %d/%d vs %d/%d",
			a.View.Rounds, a.View.Derived, b.View.Rounds, b.View.Derived)
	}
	if !reflect.DeepEqual(a.View.JoinOrders, b.View.JoinOrders) {
		t.Fatalf("join orders differ across runs:\n%+v\n%+v", a.View.JoinOrders, b.View.JoinOrders)
	}
	if !reflect.DeepEqual(a.View.Strata, b.View.Strata) {
		t.Fatalf("strata differ across runs:\n%+v\n%+v", a.View.Strata, b.View.Strata)
	}
	if !reflect.DeepEqual(a.CQ.JoinOrder, b.CQ.JoinOrder) {
		t.Fatalf("cq join order differs: %v vs %v", a.CQ.JoinOrder, b.CQ.JoinOrder)
	}
	if a.Rows != b.Rows || a.Rows != 15 {
		t.Fatalf("rows = %d/%d, want 15", a.Rows, b.Rows)
	}
	// One compiled join order per (rule, delta) pair: the build records
	// each pair once, however many rounds it ran.
	type pairKey struct {
		rule  string
		delta int
	}
	seen := make(map[pairKey]bool)
	for _, jo := range a.View.JoinOrders {
		if !strings.HasPrefix(jo.Rule, "v/") {
			t.Fatalf("rule label %q not resolved to head predicate", jo.Rule)
		}
		k := pairKey{jo.Rule, jo.Delta}
		if seen[k] {
			t.Fatalf("pair %+v recorded twice: %+v", k, a.View.JoinOrders)
		}
		seen[k] = true
	}
}

// TestExplainViewCacheHit: a repeat of the same view query on the same
// epoch reports the overlay cache and skips the build fields.
func TestExplainViewCacheHit(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(16))
	first := explainQuery(t, svc, &QueryRequest{Query: viewQuery})
	second := explainQuery(t, svc, &QueryRequest{Query: viewQuery})
	if first.View.CacheHit || !second.View.CacheHit {
		t.Fatalf("cache hits: first=%v second=%v, want false/true", first.View.CacheHit, second.View.CacheHit)
	}
	if second.View.Rounds != 0 || len(second.View.JoinOrders) != 0 {
		t.Fatalf("cache-hit trace carries build effort: %+v", second.View)
	}
	if !second.CQ.Cached {
		t.Fatal("repeat query missed the CQ plan cache")
	}
	if first.Rows != second.Rows {
		t.Fatalf("rows differ: %d vs %d", first.Rows, second.Rows)
	}
}

// TestSlowQueryLog: a threshold of 1ns catches every query; the log line
// is structured and carries the request ID plus the full trace JSON.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	svc := New(Options{SlowQuery: time.Nanosecond, Logger: logger})
	defer svc.Close()
	mustLoad(t, svc, chainSource(8))

	req := &QueryRequest{Pred: "t", Args: []string{"n0", "_"}, RequestID: "req-42"}
	mustQuery(t, svc, req)
	line := buf.String()
	if !strings.Contains(line, "slow query") {
		t.Fatalf("no slow-query line logged: %q", line)
	}
	for _, want := range []string{"request_id=req-42", "class=pattern", "trace="} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-query line missing %q: %q", want, line)
		}
	}
	// The embedded trace must round-trip as JSON.
	i := strings.Index(line, `trace="`)
	raw := line[i+len(`trace="`):]
	raw = raw[:strings.Index(raw, `}"`)+1]
	raw = strings.ReplaceAll(raw, `\"`, `"`)
	var tr QueryTrace
	if err := json.Unmarshal([]byte(raw), &tr); err != nil {
		t.Fatalf("embedded trace is not valid JSON: %v\n%q", err, raw)
	}
	if tr.RequestID != "req-42" || tr.Class != "pattern" || tr.Rows != 7 {
		t.Fatalf("embedded trace = %+v", tr)
	}
}

// TestStatsWithoutWriterLock: Stats reads the engine counters of the
// epoch it acquires, so it answers while a writer holds the lock, with
// the same numbers an uncontended read of that epoch gives.
func TestStatsWithoutWriterLock(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(8))
	if _, err := svc.Insert("e(x0,x1)."); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Engine.Inserted == 0 {
		t.Fatalf("engine stats empty: %+v", st.Engine)
	}

	svc.mu.Lock()
	done := make(chan Stats, 1)
	go func() { done <- svc.Stats() }()
	var contended Stats
	waited := false
	select {
	case contended = <-done:
	case <-time.After(10 * time.Second):
		waited = true
	}
	svc.mu.Unlock()
	if waited {
		t.Fatal("Stats waited for the writer lock")
	}
	if contended.Epoch != st.Epoch || contended.Engine != st.Engine {
		t.Fatalf("contended Stats epoch %d engine %+v, uncontended epoch %d engine %+v",
			contended.Epoch, contended.Engine, st.Epoch, st.Engine)
	}
}
