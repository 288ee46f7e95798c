package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
)

// graphSource is the TC program over a random e relation plus a second
// stored relation f, both over nodes n0..n<n-1>.
func graphSource(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z).\n")
	for _, pred := range []string{"e", "f"} {
		for i := 0; i < 2*n; i++ {
			fmt.Fprintf(&b, "%s(n%d,n%d).\n", pred, rng.Intn(n), rng.Intn(n))
		}
	}
	return b.String()
}

// bumpEpoch publishes a new epoch of the unchanged state (an empty bulk
// load does), so the next view query finds no cached overlay.
func bumpEpoch(t *testing.T, svc *Service) {
	t.Helper()
	if _, _, err := svc.LoadCSV("e", strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
}

// recBack is the inverse of the closure t, stated recursively: a bound
// goal over it takes the demand path (a non-recursive view would be
// unfolded instead, see unfold_test.go).
const recBack = "back(Y,X) :- t(X,Y). back(X,Z) :- back(X,Y), back(Y,Z). "

// demandViews are view programs with the binary predicate their goals ask
// about. single marks the shapes where a goal with one view atom gives
// every view predicate one adornment and no head is stored: there the
// demand evaluation derives no more view facts than the full build. Every
// program recurses or negates, so no bound goal over it is unfolded.
var demandViews = []struct {
	rules, goal string
	single      bool
}{
	{recBack, "back", true},
	{"v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z). ", "v", true},
	{"v(X,Y) :- e(X,Y). v(X,Z) :- v(X,Y), e(Y,Z). ", "v", true},
	{"a(X,Y) :- e(X,Y). a(X,Z) :- e(X,Y), b(Y,Z). b(X,Z) :- f(X,Y), a(Y,Z). ", "b", false},
	{"v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z). h(X,Z) :- v(X,Y), v(Y,Z). ", "h", false},
	// The head is the predicate the service maintains: stored t facts
	// must flow into the adorned t.
	{"t(X,Z) :- f(X,Y), t(Y,Z). ", "t", false},
	// Negation: never rewritten.
	{"v(X,Y) :- t(X,Y), not f(X,Y). ", "v", false},
}

// demandGoals: every adornment of one atom, repeated variables, an unknown
// constant, multi-atom goals mixing view and stored atoms, boolean goals.
var demandGoals = []string{
	"?(X,Y) :- P(X,Y).", "?(Y) :- P(C1,Y).", "?(X) :- P(X,C1).", "? :- P(C1,C2).",
	"?(X) :- P(X,X).", "?(Y) :- P(nowhere,Y).",
	"?(Z) :- e(C1,Y), P(Y,Z).", "?(X,Z) :- P(X,Y), f(Y,Z), e(C1,X).",
	"?(X) :- P(C1,X), P(X,C2).", "? :- P(C1,Y), f(Y,Z).",
}

// TestDemandMatchesFullOverlay is the service-level differential: for
// every view program × goal, on a fresh epoch, the answer of the path the
// service picks — demand evaluation exactly when a constant binds a view
// atom of negation-free rules, asserted on the trace — equals the answer
// of its repeat, a cache hit on the epoch that since also holds the full
// overlay, and the private-clone oracle, as the full view's answers equal
// theirs; a truncating limit returns that many of the same rows.
func TestDemandMatchesFullOverlay(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(7)
		svc := New(Options{})
		mustLoad(t, svc, graphSource(rng, n))
		node := func() string { return fmt.Sprintf("n%d", rng.Intn(n)) }
		for vi, dv := range demandViews {
			for _, goal := range demandGoals {
				goal = strings.ReplaceAll(goal, "P(", dv.goal+"(")
				goal = strings.NewReplacer("C1", node(), "C2", node()).Replace(goal)
				src := dv.rules + goal
				label := fmt.Sprintf("seed %d: %s", seed, src)
				wantDemand := strings.ContainsAny(goal, "0123456789") || strings.Contains(goal, "nowhere")
				wantDemand = wantDemand && !strings.Contains(dv.rules, "not ")

				bumpEpoch(t, svc)
				first := mustQuery(t, svc, &QueryRequest{Query: src, Explain: true})
				if got := first.Explain.View; got.Demand != wantDemand || got.CacheHit {
					t.Fatalf("%s: demand = %v (cache hit %v), want demand = %v", label, got.Demand, got.CacheHit, wantDemand)
				}
				freeSrc := dv.rules + "?(X,Y) :- " + dv.goal + "(X,Y)."
				full := mustQuery(t, svc, &QueryRequest{Query: freeSrc, Explain: true})
				if full.Explain.View.Demand || full.Explain.View.CacheHit == wantDemand {
					t.Fatalf("%s: all-free goal after it: %+v", label, full.Explain.View)
				}
				wantFull := viewCloneOracle(t, svc, freeSrc)
				sortRows(full.Tuples)
				sortRows(wantFull)
				if len(wantFull) != len(full.Tuples) || (len(wantFull) > 0 && !reflect.DeepEqual(full.Tuples, wantFull)) {
					t.Fatalf("%s: full view\n%v\noracle %v", label, full.Tuples, wantFull)
				}
				// The repeat reads the overlay the first query built: its own
				// evaluation's, on demand or full, never another goal's.
				second := mustQuery(t, svc, &QueryRequest{Query: src, Explain: true})
				if got := second.Explain.View; got.Demand != wantDemand || !got.CacheHit {
					t.Fatalf("%s: bound goal on a built overlay: %+v", label, got)
				}
				want := viewCloneOracle(t, svc, src)
				if first.Bool != nil {
					if *first.Bool != *second.Bool || *first.Bool != (len(want) > 0) {
						t.Fatalf("%s: demand %v, full overlay %v, oracle %d answers", label, *first.Bool, *second.Bool, len(want))
					}
					continue
				}
				sortRows(first.Tuples)
				sortRows(second.Tuples)
				sortRows(want)
				if want == nil {
					want = [][]string{}
				}
				if !reflect.DeepEqual(first.Tuples, want) || !reflect.DeepEqual(second.Tuples, want) {
					t.Fatalf("%s:\nfirst  %v\nsecond %v\noracle %v", label, first.Tuples, second.Tuples, want)
				}
				if wantDemand && dv.single && !strings.Contains(first.Explain.View.Adornment, ",") {
					if d, m, f := first.Explain.View.Derived, first.Explain.View.MagicDerived, full.Explain.View.Derived; d-m > f {
						t.Fatalf("%s: demand derived %d view facts (+%d magic), the full build %d", label, d-m, m, f)
					}
				}
				if len(want) < 2 || vi%2 == 1 {
					continue
				}
				bumpEpoch(t, svc)
				cut := mustQuery(t, svc, &QueryRequest{Query: src, Limit: len(want) - 1})
				if len(cut.Tuples) != len(want)-1 || !cut.Truncated {
					t.Fatalf("%s: limit %d returned %d rows, truncated %v", label, len(want)-1, len(cut.Tuples), cut.Truncated)
				}
				for _, row := range cut.Tuples {
					if !containsRow(want, row) {
						t.Fatalf("%s: truncated answer %v is not an answer", label, row)
					}
				}
			}
		}
		svc.Close()
	}
}

func containsRow(rows [][]string, row []string) bool {
	for _, r := range rows {
		if reflect.DeepEqual(r, row) {
			return true
		}
	}
	return false
}

// TestDemandAbortLeavesNoCache: a derived-fact cap and a deadline that
// trip inside the demand fixpoint of a recursive view return their typed
// errors, count into the stats, and leave nothing behind — no overlay
// entry, and the next query of the same shape on the same epoch answers
// exactly.
func TestDemandAbortLeavesNoCache(t *testing.T) {
	const n = 96
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(n))
	view := "v(X,Z) :- t(X,Y), t(Y,Z). v(X,Z) :- v(X,Y), v(Y,Z). ?(X) :- v(n0,X)."

	if _, err := svc.Query(&QueryRequest{Query: view, MaxDerived: 10}); !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("derived-capped demand evaluation: %v", err)
	}
	// The deadline, injected at a fixed probe count so it lands
	// mid-fixpoint on any machine.
	budgetHook = func(b *plan.Budget) {
		b.SetProbeTrap(plan.BudgetStride, fmt.Errorf("%w: %w", plan.ErrCanceled, context.DeadlineExceeded))
	}
	_, err := svc.Query(&QueryRequest{Query: view})
	budgetHook = nil
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, plan.ErrCanceled) {
		t.Fatalf("deadline inside the demand evaluation: %v", err)
	}
	if st := svc.Stats(); st.OverBudget != 1 || st.TimedOut != 1 {
		t.Fatalf("over budget %d, timed out %d, want 1 and 1", st.OverBudget, st.TimedOut)
	}
	e, err := svc.acquire()
	if err != nil {
		t.Fatal(err)
	}
	e.ovMu.Lock()
	cached := len(e.overlays)
	e.ovMu.Unlock()
	e.release()
	if cached != 0 {
		t.Fatalf("%d overlay entries after aborted demand evaluations", cached)
	}
	tr := explainQuery(t, svc, &QueryRequest{Query: view})
	if !tr.View.Demand || tr.Rows != n-2 {
		t.Fatalf("after the aborts: demand %v, %d rows, want %d", tr.View.Demand, tr.Rows, n-2)
	}
}

// TestDemandExplain is the acceptance scenario on the trace: for the
// churn benchmark's view stated recursively and both linear closures, a
// bound goal evaluates
// on demand with every adorned rule's first-round join driving from its
// magic atom; a second goal with another constant reuses the generation's
// compiled rewriting, its rules' program and its goal's plan; and the
// slow-query log and the service's demand counter show the demand path.
func TestDemandExplain(t *testing.T) {
	var buf bytes.Buffer
	svc := New(Options{SlowQuery: time.Nanosecond, Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	defer svc.Close()
	mustLoad(t, svc, chainSource(16))
	for _, v := range []struct{ rules, goal, adornment string }{
		{recBack, "?(X) :- back(%s,X).", "back#bf"},
		{"v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z). ", "?(X) :- v(%s,X).", "v#bf"},
		{"v(X,Y) :- e(X,Y). v(X,Z) :- v(X,Y), e(Y,Z). ", "?(X) :- v(X,%s).", "v#fb"},
	} {
		st0 := svc.Stats()
		first := explainQuery(t, svc, &QueryRequest{Query: v.rules + fmt.Sprintf(v.goal, "n5")})
		vt := first.View
		if !vt.Demand || vt.Adornment != v.adornment || vt.RewriteCached || vt.MagicDerived == 0 || vt.MagicDerived >= vt.Derived {
			t.Fatalf("%s: first trace %+v", v.rules, vt)
		}
		if first.Stages[1].Name != "view_demand" {
			t.Fatalf("%s: stages %+v", v.rules, first.Stages)
		}
		for _, jo := range vt.JoinOrders {
			if jo.Round == 1 && (jo.Delta != 0 || jo.Order[0] != 0) {
				t.Fatalf("%s: rule %s joins %v (delta %d) in round 1, want the magic atom first", v.rules, jo.Rule, jo.Order, jo.Delta)
			}
		}
		if first.CQ.JoinOrder[0] != 0 {
			t.Fatalf("%s: goal joins %v, want the seed atom first", v.rules, first.CQ.JoinOrder)
		}
		second := explainQuery(t, svc, &QueryRequest{Query: v.rules + fmt.Sprintf(v.goal, "n9")})
		if vt := second.View; !vt.Demand || !vt.RewriteCached || !second.CQ.Cached {
			t.Fatalf("%s: second constant: view %+v, goal plan cached %v", v.rules, vt, second.CQ.Cached)
		}
		if first.Rows == second.Rows {
			t.Fatalf("%s: both constants returned %d rows", v.rules, first.Rows)
		}
		st := svc.Stats()
		if got := st.ViewDemand - st0.ViewDemand; got != 2 {
			t.Fatalf("%s: ViewDemand moved by %d, want 2", v.rules, got)
		}
		if got := st.ViewBuilds - st0.ViewBuilds; got != 2 {
			t.Fatalf("%s: ViewBuilds moved by %d, want 2", v.rules, got)
		}
	}
	if line := buf.String(); !strings.Contains(line, `\"demand\":true`) || !strings.Contains(line, `\"adornment\":\"back#bf\"`) {
		t.Fatalf("slow-query log does not show the demand path: %q", line)
	}
}

// TestCompiledRewritingOwnedByGeneration: the generation owns each demand
// rewriting compiled. Two bound view reads of one shape with different
// constants evaluate the rule program and goal plan its entry holds —
// the traced join orders are those plans' own slices — and a reload, a
// new generation, compiles both anew.
func TestCompiledRewritingOwnedByGeneration(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	const goal = recBack + "?(X) :- back(%s,X)."
	// entry returns the served generation's one view plan.
	entry := func() *viewPlan {
		t.Helper()
		vs := viewPlans(t, svc)
		if len(vs) != 1 {
			t.Fatalf("generation holds %d view plans, want 1", len(vs))
		}
		if vs[0].magic == nil {
			t.Fatal("bound goal compiled as a full view")
		}
		return vs[0]
	}
	// ran asserts that the traced evaluation ran v's compiled plans.
	ran := func(tr *QueryTrace, v *viewPlan) {
		t.Helper()
		if !tr.View.Demand || len(tr.View.JoinOrders) == 0 {
			t.Fatalf("view trace %+v, want a demand evaluation", tr.View)
		}
		for _, jo := range tr.View.JoinOrders {
			if !variantOf(v.rules, jo.Order) {
				t.Fatalf("join %+v does not come from the generation's compiled rules", jo)
			}
		}
		if &tr.CQ.JoinOrder[0] != &v.goal.Order[0] {
			t.Fatal("goal ran a plan other than the generation's")
		}
	}

	mustLoad(t, svc, chainSource(16))
	first := explainQuery(t, svc, &QueryRequest{Query: fmt.Sprintf(goal, "n5")})
	v := entry()
	ran(first, v)
	second := explainQuery(t, svc, &QueryRequest{Query: fmt.Sprintf(goal, "n9")})
	if entry() != v || !second.View.RewriteCached || !second.CQ.Cached {
		t.Fatalf("second constant did not reuse the compiled rewriting: view %+v", second.View)
	}
	ran(second, v)
	if first.Rows == second.Rows {
		t.Fatalf("both constants returned %d rows", first.Rows)
	}

	mustLoad(t, svc, chainSource(16))
	reloaded := explainQuery(t, svc, &QueryRequest{Query: fmt.Sprintf(goal, "n5")})
	v2 := entry()
	if v2.rules == v.rules || v2.goal == v.goal || reloaded.View.RewriteCached {
		t.Fatal("reload served the previous generation's compiled rewriting")
	}
	ran(reloaded, v2)
	if reloaded.Rows != first.Rows {
		t.Fatalf("reload answers %d rows, first load %d", reloaded.Rows, first.Rows)
	}
}

// viewPlans returns the served generation's compiled view plans, one per
// goal shape (the full view's shared rules entry excluded).
func viewPlans(t *testing.T, svc *Service) []*viewPlan {
	t.Helper()
	e, err := svc.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	c := &e.gen.views
	c.mu.RLock()
	defer c.mu.RUnlock()
	var vs []*viewPlan
	for k, v := range c.m {
		if k.goal != "" {
			vs = append(vs, v)
		}
	}
	return vs
}

// TestViewEntrySharedAcrossEpochs: the generation compiles a view's rules
// once. Two goal shapes over the same rules, on two epochs, evaluate the
// one full-view program it holds — both builds' traced join orders are
// that program's own slices — and the second shape reads the first's
// overlay on the epoch that has it.
func TestViewEntrySharedAcrossEpochs(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(12))
	const rules = "back(X,Y) :- t(Y,X). "
	pairs, firsts := rules+"?(X,Y) :- back(X,Y).", rules+"?(Y) :- back(X,Y)."

	built := explainQuery(t, svc, &QueryRequest{Query: pairs})
	shared := explainQuery(t, svc, &QueryRequest{Query: firsts})
	bumpEpoch(t, svc)
	rebuilt := explainQuery(t, svc, &QueryRequest{Query: firsts})
	if built.View.CacheHit || !shared.View.CacheHit || rebuilt.View.CacheHit || rebuilt.View.Demand {
		t.Fatalf("views: built %+v, other shape %+v, next epoch %+v", built.View, shared.View, rebuilt.View)
	}
	vs := viewPlans(t, svc)
	if len(vs) != 2 || vs[0] != vs[1] || vs[0].magic != nil {
		t.Fatalf("generation holds %d goal shapes, want 2 sharing one full-view program", len(vs))
	}
	for _, tr := range []*QueryTrace{built, rebuilt} {
		for _, jo := range tr.View.JoinOrders {
			if !variantOf(vs[0].rules, jo.Order) {
				t.Fatalf("join %+v does not come from the generation's compiled view rules", jo)
			}
		}
	}
	if got := svc.Stats().ViewBuilds; got != 2 {
		t.Fatalf("ViewBuilds = %d, want one per epoch", got)
	}
}

// TestViewEntryRepeatHitsUntilWrite: a repeated bound view query on an
// unchanged epoch is a cache hit on the overlay its first run evaluated
// on demand, with the same answers; a write that changes nothing keeps
// the epoch and the hit, and a write that changes the instance publishes
// an epoch on which the same query misses again and sees the write.
func TestViewEntryRepeatHitsUntilWrite(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(12))
	req := &QueryRequest{Query: recBack + "?(X) :- back(n11,X).", Explain: true}
	run := func(label string, wantHit bool, wantRows int) *QueryResponse {
		t.Helper()
		st0 := svc.Stats()
		resp := mustQuery(t, svc, req)
		vt, st := resp.Explain.View, svc.Stats()
		if !vt.Demand || vt.CacheHit != wantHit || len(resp.Tuples) != wantRows {
			t.Fatalf("%s: view %+v, %d rows, want hit %v and %d rows", label, vt, len(resp.Tuples), wantHit, wantRows)
		}
		if hits, builds := st.ViewHits-st0.ViewHits, st.ViewBuilds-st0.ViewBuilds; (hits == 1) != wantHit || hits+builds != 1 {
			t.Fatalf("%s: view_cache_hits moved by %d, view_builds by %d", label, hits, builds)
		}
		sortRows(resp.Tuples)
		return resp
	}
	first := run("first", false, 11)
	repeat := run("repeat", true, 11)
	if !reflect.DeepEqual(first.Tuples, repeat.Tuples) || repeat.Epoch != first.Epoch {
		t.Fatalf("repeat answered %v at epoch %d, first %v at epoch %d", repeat.Tuples, repeat.Epoch, first.Tuples, first.Epoch)
	}
	if _, err := svc.Insert("e(n0,n1)."); err != nil {
		t.Fatal(err)
	}
	run("after an unchanged write", true, 11)
	if _, err := svc.Insert("e(x0,n0)."); err != nil {
		t.Fatal(err)
	}
	after := run("after a write", false, 12)
	if !containsRow(after.Tuples, []string{"x0"}) {
		t.Fatalf("after the write: %v, want x0 among the answers", after.Tuples)
	}
	run("repeat after the write", true, 12)
}

// variantOf reports whether order is the join order slice of one of the
// compiled program's variants (the same backing array, not equal values).
func variantOf(p *plan.Program, order []int) bool {
	for _, r := range p.Rules {
		for _, v := range r.Variants {
			if len(v.Order) > 0 && len(order) > 0 && &v.Order[0] == &order[0] {
				return true
			}
		}
	}
	return false
}

// TestGroundQueryAllocation: an in-process ground lookup — the path
// BenchmarkS1_QueryLatency/service-ground measures — allocates its answer
// and little else: the collector's first block is sized for a handful of
// rows, not for a thousand.
func TestGroundQueryAllocation(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(64))
	req := &QueryRequest{Pred: "t", Args: []string{"n0", "n63"}}
	query := func() {
		if resp, err := svc.Query(req); err != nil || len(resp.Tuples) != 1 {
			t.Fatalf("ground lookup: %v, %v", resp, err)
		}
	}
	query() // compile and cache the scan plan
	if allocs := testing.AllocsPerRun(100, query); allocs > 12 {
		t.Errorf("ground lookup allocates %v objects", allocs)
	}
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > 1024 {
		t.Errorf("ground lookup allocates %d B, want <= 1 KB", per)
	}
}

// TestDemandReadAllocation: a bound read of a recursive view on a fresh
// epoch — a demand overlay built, published to the epoch's cache and
// read — allocates for what the rewriting derives, not for the
// instance's other relations: the overlay shares every relation it does
// not write with the snapshot, and so does the frozen view its builder
// hands later readers.
func TestDemandReadAllocation(t *testing.T) {
	var src strings.Builder
	src.WriteString(chainSource(16))
	for i := range 40 {
		fmt.Fprintf(&src, "u%d(a,b).\n", i)
	}
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, src.String())
	const query = recBack + "?(X) :- back(n9,X)."
	e, err := svc.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	read := func() {
		fresh := &epoch{svc: svc, gen: e.gen, snap: e.snap}
		var c collectSink
		if _, rows, err := svc.ruleQueryStream(nil, fresh, query, DefaultLimit, &c, nil); err != nil || rows != 9 {
			t.Fatalf("bound read: %d rows, %v", rows, err)
		}
	}
	read() // compile the rewriting
	// ~215 here; a header per relation in the overlay and again in its
	// published view, as both once copied, made it ~380.
	if allocs := testing.AllocsPerRun(50, read); allocs > 260 {
		t.Fatalf("a bound recursive view read on a fresh epoch allocates %v objects", allocs)
	}
}
