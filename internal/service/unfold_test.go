package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/workload"
)

// viewGen draws random non-recursive view programs and goals over the TC
// block instance (stored e and t over nodes n<i>). Predicates are built
// in levels, each rule's body reading only stored predicates and lower
// levels, so no rule set recurses. A set may also give the stored e rules
// of its own (a view head that is a stored predicate, over t only). The
// surface syntax keeps constants out of rules, so they occur in goals
// only, in the body and the output row (ucq's TestUnfoldMatchesNaive
// covers rule constants).
type viewGen struct {
	rng   *rand.Rand
	seed  int64    // names the view predicates: arities differ between draws
	nodes []string // nodes with an edge: constants that match something
	preds []genPred
}

type genPred struct {
	name  string
	arity int
	view  bool
}

var genVars = []string{"X", "Y", "Z", "W"}

// term draws an argument: a variable, or sometimes a constant if consts.
func (g *viewGen) term(vars []string, consts bool) string {
	if consts && g.rng.Intn(4) == 0 {
		return g.constant()
	}
	return vars[g.rng.Intn(len(vars))]
}

func (g *viewGen) constant() string {
	if g.rng.Intn(10) == 0 {
		return "nowhere"
	}
	return g.nodes[g.rng.Intn(len(g.nodes))]
}

// atom draws an atom over one of the given predicates; a variable
// repeats within it one time in four (the instance has no self-loops, so
// a repeat usually matches nothing).
func (g *viewGen) atom(from []genPred, vars []string, consts bool) (string, []string) {
	p := from[g.rng.Intn(len(from))]
	args := make([]string, p.arity)
	for i := range args {
		args[i] = g.term(vars, consts)
		if i > 0 && args[i] == args[0] && len(vars) > 1 && g.rng.Intn(4) != 0 {
			args[i] = g.term(slices.DeleteFunc(slices.Clone(vars), func(v string) bool { return v == args[0] }), consts)
		}
	}
	return fmt.Sprintf("%s(%s)", p.name, strings.Join(args, ",")), args
}

// rule draws "head(...) :- body." for head over predicates in from: one
// or two body atoms, joined on a variable, head arguments the body's
// variables, repeats allowed in the head and the body.
func (g *viewGen) rule(head genPred, from []genPred) string {
	var body, bodyVars []string
	for range 1 + g.rng.Intn(2) {
		a, args := g.atom(from, genVars[:2+g.rng.Intn(3)], false)
		if len(body) > 0 && !slices.ContainsFunc(args, func(x string) bool { return slices.Contains(bodyVars, x) }) {
			continue // a cross product: the view would be quadratic
		}
		body = append(body, a)
		bodyVars = append(bodyVars, args...)
	}
	args := make([]string, head.arity)
	for i := range args {
		args[i] = bodyVars[g.rng.Intn(len(bodyVars))]
	}
	return fmt.Sprintf("%s(%s) :- %s. ", head.name, strings.Join(args, ","), strings.Join(body, ", "))
}

// program draws a view program: two or three levels of view predicates,
// one to three rules per head (at least one head with two or more).
func (g *viewGen) program() string {
	stored := []genPred{{"e", 2, false}, {"t", 2, false}}
	g.preds = append([]genPred(nil), stored...)
	var b strings.Builder
	if g.rng.Intn(3) == 0 {
		// A view head that is also a stored predicate.
		for range 1 + g.rng.Intn(2) {
			b.WriteString(g.rule(stored[0], stored[1:]))
		}
		g.preds[0].view = true
	}
	below := append([]genPred(nil), g.preds...)
	multi := false
	for level := range 2 + g.rng.Intn(2) {
		var here []genPred
		for k := range 1 + g.rng.Intn(2) {
			p := genPred{fmt.Sprintf("v%d_%d_%d", g.seed, level, k), 1 + g.rng.Intn(2), true}
			n := 1 + g.rng.Intn(3)
			if !multi {
				n, multi = max(n, 2), true
			}
			for range n {
				b.WriteString(g.rule(p, below))
			}
			here = append(here, p)
		}
		below = append(below, here...)
		g.preds = append(g.preds, here...)
	}
	return b.String()
}

// goal draws a query with at least one view atom and one constant: one or
// two atoms, output variables a subset of the body's (none: boolean), and
// now and then a constant in the output row. The second atom shares a
// variable with the first, or it holds a constant of its own: a
// disconnected goal, whose answers are a product of a selection and
// another atom's answers, so the instance keeps it small.
func (g *viewGen) goal() string {
	var views []genPred
	for _, p := range g.preds {
		if p.view {
			views = append(views, p)
		}
	}
	for {
		var body, vars []string
		hasConst := false
		for i := range 1 + g.rng.Intn(2) {
			from := g.preds
			if i == 0 {
				from = views
			}
			a, args := g.atom(from, genVars[:1+g.rng.Intn(3)], true)
			if len(body) > 0 && !slices.ContainsFunc(args, func(x string) bool { return slices.Contains(vars, x) || isConst(x) }) {
				continue // a cross product of two unselected answers
			}
			body = append(body, a)
			for _, x := range args {
				if isConst(x) {
					hasConst = true
				} else {
					vars = append(vars, x)
				}
			}
		}
		if !hasConst {
			continue
		}
		var out []string
		for _, v := range vars {
			if g.rng.Intn(2) == 0 && !strings.Contains(strings.Join(out, ","), v) {
				out = append(out, v)
			}
		}
		if len(out) > 0 && g.rng.Intn(6) == 0 {
			out = append(out, g.constant())
		}
		return fmt.Sprintf("?(%s) :- %s.", strings.Join(out, ","), strings.Join(body, ", "))
	}
}

func isConst(x string) bool { return x[0] < 'A' || x[0] > 'Z' }

// disconnected reports whether the goal's two body atoms share no
// variable.
func disconnected(q *logic.CQ) bool {
	if len(q.Atoms) < 2 {
		return false
	}
	for _, x := range q.Atoms[0].Args {
		if x.IsVar() && slices.Contains(q.Atoms[1].Args, x) {
			return false
		}
	}
	return true
}

// naiveOracle answers view rules + query over the served snapshot by
// datalog.Naive of the rules over the snapshot's facts, then the query,
// reports whether the goal unfolds (unfoldView: a union inside the
// bounds, no redundant member) and whether its body is disconnected.
func naiveOracle(t *testing.T, svc *Service, src string) (rows [][]string, fits, split bool) {
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
	out, err := datalog.Naive(tmp, sdb)
	if err != nil {
		t.Fatal(err)
	}
	rows = [][]string{}
	for _, tup := range plan.EvalCQ(out, res.Queries[0]) {
		rows = append(rows, prog.Store.Names(tup))
	}
	_, fits = unfoldView(tmp.TGDs, res.Queries[0], func(p schema.PredID) bool { return sdb.CountPred(p) > 0 })
	return rows, fits, disconnected(res.Queries[0])
}

// TestUnfoldMatchesNaive is the unfolded path's equivalence property:
// seed-deterministic random non-recursive view programs over the TC block
// instance — views over views, several rules per head, constants and
// repeated variables in heads and bodies, the stored e given rules too,
// boolean goals — answered by the goal's unfolding (asserted on the
// trace, with no overlay built) equal datalog.Naive of the rules over the
// snapshot's facts, and a limit one short of the answer returns distinct
// answers of it. A goal past the unfolding's bounds or with a redundant
// member (a disconnected goal, mostly) takes the overlay path and is held
// to the same oracle.
func TestUnfoldMatchesNaive(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	text := workload.TCBlocksText(1)
	mustLoad(t, svc, text)
	g := &viewGen{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "e("); ok {
			a, _, _ := strings.Cut(rest, ",")
			g.nodes = append(g.nodes, a)
		}
	}
	goals, unfolded, answered, limited, split, splitUnfolded := 0, 0, 0, 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		g.rng, g.seed = rand.New(rand.NewSource(seed)), seed
		rules := g.program()
		for range 4 {
			src := rules + g.goal()
			st0 := svc.Stats()
			resp := mustQuery(t, svc, &QueryRequest{Query: src, Explain: true})
			want, fits, disc := naiveOracle(t, svc, src)
			st := svc.Stats()
			if overlay := st.ViewBuilds != st0.ViewBuilds || st.ViewHits != st0.ViewHits; resp.Explain.View.Unfold != fits || overlay == fits {
				t.Fatalf("seed %d: %s: unfolded %v, overlay %v; the goal unfolds: %v", seed, src, resp.Explain.View.Unfold, overlay, fits)
			}
			if fits {
				unfolded++
			}
			if disc {
				split++
				if fits {
					splitUnfolded++
				}
			}
			goals++
			if resp.Bool != nil {
				if *resp.Bool != (len(want) > 0) {
					t.Fatalf("seed %d: %s: %v, oracle %d answers", seed, src, *resp.Bool, len(want))
				}
				continue
			}
			sortRows(resp.Tuples)
			sortRows(want)
			if !reflect.DeepEqual(resp.Tuples, want) {
				t.Fatalf("seed %d: %s:\ngot    %v\noracle %v", seed, src, resp.Tuples, want)
			}
			if len(want) > 0 {
				answered++
			}
			if len(want) < 2 {
				continue
			}
			limited++
			cut := mustQuery(t, svc, &QueryRequest{Query: src, Limit: len(want) - 1})
			if len(cut.Tuples) != len(want)-1 || !cut.Truncated {
				t.Fatalf("seed %d: %s: limit %d returned %d rows, truncated %v", seed, src, len(want)-1, len(cut.Tuples), cut.Truncated)
			}
			seen := map[string]bool{}
			for _, row := range cut.Tuples {
				k := strings.Join(row, ",")
				if seen[k] || !containsRow(want, row) {
					t.Fatalf("seed %d: %s: limited answer %v repeated or not an answer", seed, src, row)
				}
				seen[k] = true
			}
		}
	}
	// The draw must exercise what it claims: most goals unfold (the rest
	// exceed the member cap and take the overlay path, checked the same),
	// many answer something, and a fair share reach the limit check.
	t.Logf("of %d goals %d unfolded, %d answered, %d limited; %d disconnected, %d of them unfolded", goals, unfolded, answered, limited, split, splitUnfolded)
	if unfolded < goals*3/4 || answered < goals/4 || limited < goals/8 || split < goals/16 {
		t.Fatalf("of %d goals %d unfolded, %d answered, %d limited: the generator lost its reach", goals, unfolded, answered, limited)
	}
}

// TestUnfoldedReadExplain: a bound read of the churn benchmark's view is
// unfolded: the trace shows the view_unfold stage and one member, no
// overlay is built or cached, and another constant reuses the
// generation's compiled union. A view head that holds stored facts keeps
// its stored atom as a member of its own.
func TestUnfoldedReadExplain(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(16))
	const view = "back(Y,X) :- t(X,Y). ?(X) :- back(%s,X)."
	first := explainQuery(t, svc, &QueryRequest{Query: fmt.Sprintf(view, "n5")})
	if vt := first.View; !vt.Unfold || vt.Members != 1 || vt.Demand || vt.RewriteCached || vt.CacheHit {
		t.Fatalf("first read: view %+v", vt)
	}
	var stages []string
	for _, s := range first.Stages {
		stages = append(stages, s.Name)
	}
	if got := strings.Join(stages, ","); got != "parse,view_unfold,plan,enumerate" {
		t.Fatalf("stages %s", got)
	}
	second := explainQuery(t, svc, &QueryRequest{Query: fmt.Sprintf(view, "n9")})
	if vt := second.View; !vt.Unfold || !vt.RewriteCached || !second.CQ.Cached || first.Rows != 5 || second.Rows != 9 {
		t.Fatalf("second read: view %+v, plan cached %v, rows %d and %d", vt, second.CQ.Cached, first.Rows, second.Rows)
	}
	st := svc.Stats()
	if st.ViewUnfold != 2 || st.ViewBuilds != 0 || st.ViewDemand != 0 || st.ViewHits != 0 {
		t.Fatalf("stats %+v, want 2 unfolded reads and no overlay", st)
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
		t.Fatalf("%d overlays cached by unfolded reads", cached)
	}

	// Once back holds stored facts, its stored atom is a member too: a
	// new entry of the shape, under the key's stored-head flags.
	if _, err := svc.Insert("back(n5,zz)."); err != nil {
		t.Fatal(err)
	}
	stored := mustQuery(t, svc, &QueryRequest{Query: fmt.Sprintf(view, "n5"), Explain: true})
	if vt := stored.Explain.View; !vt.Unfold || vt.Members != 2 || vt.RewriteCached || len(stored.Tuples) != 6 || !containsRow(stored.Tuples, []string{"zz"}) {
		t.Fatalf("with stored back facts: view %+v, answers %v", vt, stored.Tuples)
	}
}

// TestUnfoldedReadBudget: an unfolded read derives nothing, so a derived
// cap never binds it, while the probe cap and the deadline still do —
// both trip mid-enumeration with their typed errors and count into the
// stats.
func TestUnfoldedReadBudget(t *testing.T) {
	const n = 96
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(n))
	view := "v(X,Z) :- t(X,Y), t(Y,Z). ?(X) :- v(n0,X)."
	if resp, err := svc.Query(&QueryRequest{Query: view, MaxDerived: 1}); err != nil || len(resp.Tuples) != n-2 {
		t.Fatalf("derived-capped unfolded read: %v", err)
	}
	if _, err := svc.Query(&QueryRequest{Query: view, MaxProbes: plan.BudgetStride}); !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("probe-capped unfolded read: %v", err)
	}
	budgetHook = func(b *plan.Budget) {
		b.SetProbeTrap(plan.BudgetStride, fmt.Errorf("%w: %w", plan.ErrCanceled, context.DeadlineExceeded))
	}
	_, err := svc.Query(&QueryRequest{Query: view})
	budgetHook = nil
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline inside the unfolded read: %v", err)
	}
	if st := svc.Stats(); st.OverBudget != 1 || st.TimedOut != 1 || st.ViewUnfold != 3 || st.ViewBuilds != 0 {
		t.Fatalf("stats %+v: want 1 over budget, 1 timed out, 3 unfolded, no build", st)
	}
}

// TestCQShapeCompiledOnce: a plain rule query compiles once per shape,
// its constants run-time parameters: a thousand reads of one shape with
// distinct constants share the one plan, each answering for its own
// constant.
func TestCQShapeCompiledOnce(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(1001))
	for i := range 1000 {
		tr := explainQuery(t, svc, &QueryRequest{Query: fmt.Sprintf("?(Z) :- e(n%d,Y), t(Y,Z).", i)})
		if tr.Rows != 999-i || tr.CQ.Cached != (i > 0) {
			t.Fatalf("read %d: %d rows, plan cached %v", i, tr.Rows, tr.CQ.Cached)
		}
	}
	e, err := svc.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	e.gen.cqPlans.mu.RLock()
	defer e.gen.cqPlans.mu.RUnlock()
	if n := len(e.gen.cqPlans.m); n != 1 {
		t.Fatalf("%d plans compiled, want 1", n)
	}
}

// TestRedundantUnfoldingTakesOverlay: a goal whose unfolding would rerun
// a join for each binding of an existential variable takes the overlay
// path and answers as datalog.Naive does, inside a probe cap that the
// unfolded run would trip. These disconnected goals rerun the enumeration
// of a(X) once per path from Z to their constant: unfolded, they take
// 270 k and 751 k row matches for 1 017 and 1 808 answers; over the
// overlay the goal takes about a thousand and two thousand, and the
// fixpoint 11 k and 85 k probes.
func TestRedundantUnfoldingTakesOverlay(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, workload.TCBlocksText(1))
	for _, src := range []string{
		"a(X) :- t(X,Y), e(Y,Z). b(Z,W) :- t(Z,Y), t(Y,W). ?(X,Z,n96) :- a(X), b(Z,n133).",
		"a(X) :- t(X,Y), t(Y,V). b(Z,W) :- t(Z,Y), t(Y,W). ?(X,Z) :- a(X), b(Z,n149).",
	} {
		start := time.Now()
		resp, err := svc.Query(&QueryRequest{Query: src, Explain: true, MaxProbes: 200_000})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: %v", src, d)
		}
		want, fits, _ := naiveOracle(t, svc, src)
		if vt := resp.Explain.View; fits || vt.Unfold || !vt.Demand {
			t.Fatalf("%s: view %+v, unfolds %v; want the demand overlay", src, vt, fits)
		}
		sortRows(resp.Tuples)
		sortRows(want)
		if !reflect.DeepEqual(resp.Tuples, want) {
			t.Fatalf("%s:\ngot    %v\noracle %v", src, resp.Tuples, want)
		}
	}
}

// TestUnfoldBoundedReturns: a chain of thirty views, each joining two
// copies of the one below, is a short request whose unfolding is one
// member of 2^30 atoms. It stops at the unfolding's bounds and takes the
// demand overlay, which answers at once.
func TestUnfoldBoundedReturns(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	mustLoad(t, svc, chainSource(16))
	var b strings.Builder
	b.WriteString("v0(X,Y) :- e(X,Z), e(Z,Y). ")
	for i := 1; i < 30; i++ {
		fmt.Fprintf(&b, "v%d(X,Y) :- v%d(X,Z), v%d(Z,Y). ", i, i-1, i-1)
	}
	start := time.Now()
	short := explainQuery(t, svc, &QueryRequest{Query: b.String() + "?(Y) :- v2(n0,Y)."})
	long := explainQuery(t, svc, &QueryRequest{Query: b.String() + "?(Y) :- v29(n0,Y)."})
	if d := time.Since(start); d > time.Second {
		t.Errorf("two reads took %v", d)
	}
	if !short.View.Unfold || short.Rows != 1 {
		t.Fatalf("v2 (8 atoms): view %+v, %d rows; want unfolded, the path to n8", short.View, short.Rows)
	}
	if vt := long.View; vt.Unfold || !vt.Demand || long.Rows != 0 {
		t.Fatalf("v29: view %+v, %d rows; want the demand overlay, no answer", vt, long.Rows)
	}
}
