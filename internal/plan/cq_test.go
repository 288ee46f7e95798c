package plan

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

// parseCQ parses "facts + one query" source and returns the instance and
// the query.
func parseCQ(t *testing.T, src string) (*storage.DB, *parser.Result) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Queries) != 1 {
		t.Fatalf("want exactly one query, got %d", len(r.Queries))
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	return db, r
}

// sameAnswers compares two answer sets positionally on term identity
// (reflect.DeepEqual distinguishes nil from empty arity-0 tuples).
func sameAnswers(a, b [][]term.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || storage.CompareTuples(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// naiveCQ is the reference the compiled CQ paths are checked against: a
// nested loop over each body atom's Facts in written order — no postings,
// no join order — binding through atom.MatchAtom, with answers kept only
// when every output term is a constant, deduplicated and sorted as
// EvalCQ promises.
func naiveCQ(db *storage.DB, q *logic.CQ) [][]term.Term {
	facts := make([][]atom.Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		facts[i] = db.Facts(a.Pred)
	}
	seen := storage.NewTupleSet(len(q.Output))
	var out [][]term.Term
	var rec func(i int, s atom.Subst)
	rec = func(i int, s atom.Subst) {
		if i == len(q.Atoms) {
			tup := make([]term.Term, len(q.Output))
			for j, t := range q.Output {
				if tup[j] = s.Apply(t); !tup[j].IsConst() {
					return
				}
			}
			if seen.Add(tup) {
				out = append(out, tup)
			}
			return
		}
		pa := q.Atoms[i]
	facts:
		for _, f := range facts[i] {
			for j, t := range pa.Args {
				if v := s.Apply(t); !v.IsVar() && v != f.Args[j] {
					continue facts // clone only for facts the bound terms admit
				}
			}
			if s2 := maps.Clone(s); atom.MatchAtom(s2, pa, f) {
				rec(i+1, s2)
			}
		}
	}
	rec(0, atom.NewSubst())
	storage.SortTuples(out)
	return out
}

// collect runs the plan, copying every yielded tuple.
func collect(p *CQPlan, db *storage.DB) [][]term.Term {
	var out [][]term.Term
	p.Run(db, func(tup []term.Term) bool {
		out = append(out, append([]term.Term(nil), tup...))
		return true
	})
	return out
}

// TestCQPlanMatchesReference: the compiled plan agrees with the naive
// reference on a representative mix of shapes.
func TestCQPlanMatchesReference(t *testing.T) {
	cases := []string{
		`e(a,b). e(b,c). e(c,d). ?(X,Y) :- e(X,Y).`,
		`e(a,b). e(b,c). e(c,d). ?(X,Z) :- e(X,Y), e(Y,Z).`,
		`e(a,b). e(b,c). p(a). p(c). ?(X) :- e(X,Y), p(Y).`,
		`e(a,b). e(b,c). ?(Y) :- e(a,Y).`,
		`e(a,b). e(b,a). ?(X) :- e(X,X_).`,              // projected second position
		`e(a,a). e(a,b). ?(X) :- e(X,X).`,               // repeated variable in one atom
		`e(a,b). ?(a,Y) :- e(a,Y).`,                     // constant output position
		`e(a,b). ? :- e(a,b).`,                          // boolean, ground
		`e(a,b). ? :- e(b,X).`,                          // boolean, open
		`e(a,b). r(c,d,e). ?(X,W) :- e(X,Y), r(Z,W,V).`, // cartesian product
	}
	for _, src := range cases {
		db, r := parseCQ(t, src)
		q := r.Queries[0]
		want := naiveCQ(db, q)
		got := EvalCQ(db, q)
		if !sameAnswers(got, want) {
			t.Errorf("%s:\ncompiled  %v\nreference %v", src, got, want)
		}
	}
}

// TestCQPlanDedupAndDeterminism: yields are distinct, and two runs of the
// same plan enumerate the same tuples in the same order.
func TestCQPlanDedupAndDeterminism(t *testing.T) {
	db, r := parseCQ(t, `
e(a,b). e(b,c). e(a,c). p(b). p(c).
?(X) :- e(X,Y), p(Y).`)
	p := CompileCQ(r.Queries[0])
	first := collect(p, db)
	seen := storage.NewTupleSet(1)
	for _, tup := range first {
		if !seen.Add(tup) {
			t.Fatalf("duplicate yield %v", tup)
		}
	}
	if second := collect(p, db); !sameAnswers(first, second) {
		t.Fatalf("non-deterministic enumeration: %v vs %v", first, second)
	}
}

// TestCQPlanEarlyStop: yield returning false stops the enumeration — the
// limit pushdown contract.
func TestCQPlanEarlyStop(t *testing.T) {
	db, r := parseCQ(t, `e(a,b). e(b,c). e(c,d). e(d,f). ?(X,Y) :- e(X,Y).`)
	p := CompileCQ(r.Queries[0])
	n := 0
	done := p.Run(db, func([]term.Term) bool {
		n++
		return n < 2
	})
	if n != 2 || done {
		t.Fatalf("early stop: %d yields, done=%v; want 2 yields, done=false", n, done)
	}
}

// TestCQPlanUnboundOutputVar: an output variable occurring in no body atom
// has no constant instantiation, so the plan is unsatisfiable and yields
// nothing. The parser rejects such queries, so the CQ is built directly.
func TestCQPlanUnboundOutputVar(t *testing.T) {
	db, r := parseCQ(t, `e(a,b). ?(X,Y) :- e(X,Y).`)
	q := r.Queries[0]
	bad := &logic.CQ{
		Output: []term.Term{q.Output[0], term.MkVar(1 << 20)},
		Atoms:  q.Atoms,
	}
	if got := EvalCQ(db, bad); len(got) != 0 {
		t.Fatalf("unbound output var: compiled %v; want empty", got)
	}
}

// TestCQPlanNullsNeverAnswer: nulls may witness the join internally but
// never appear in answer tuples.
func TestCQPlanNullsNeverAnswer(t *testing.T) {
	r, err := parser.Parse(`e(a,b). ?(X,Y) :- e(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	pred := r.Facts[0].Pred
	c := r.Program.Store.Const("a")
	db.Insert(atom.Atom{Pred: pred, Args: []term.Term{c, term.MkNull(7)}})
	db.Insert(atom.Atom{Pred: pred, Args: []term.Term{term.MkNull(7), c}})
	q := r.Queries[0]
	got := EvalCQ(db, q)
	if want := naiveCQ(db, q); !sameAnswers(got, want) {
		t.Fatalf("nulls: compiled %v, reference %v", got, want)
	}
	if len(got) != 1 {
		t.Fatalf("nulls leaked into answers: %v", got)
	}
	// The null still witnesses a join: ?(X) :- e(X,Y), e(Y,Z) through the
	// null midpoint must answer a (a -> null7 -> a).
	r2, err := parser.ParseInto(r.Program, `?(X) :- e(X,Y), e(Y,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	q2 := r2.Queries[0]
	got2 := EvalCQ(db, q2)
	if want2 := naiveCQ(db, q2); !sameAnswers(got2, want2) {
		t.Fatalf("null witness: compiled %v, reference %v", got2, want2)
	}
	if len(got2) != 1 {
		t.Fatalf("null midpoint not used as witness: %v", got2)
	}
}

// TestCQPlanCancellation: a cancelled budget context stops a long
// enumeration mid-run with the budget's error.
func TestCQPlanCancellation(t *testing.T) {
	r, err := parser.Parse(`?(X,Y,Z,W) :- e(X,Y), e(Z,W).`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	pred, _ := r.Program.Reg.Lookup("e")
	for i := 0; i < 200; i++ {
		db.Insert(atom.Atom{Pred: pred, Args: []term.Term{term.MkConst(uint32(i)), term.MkConst(uint32(i + 1))}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := CompileCQ(r.Queries[0])
	n := 0
	done, errRun := UCQPlan{p}.RunBudgetTraced(NewBudget(ctx, 0, 0), nil, db, nil, func([]term.Term) bool {
		n++
		if n == 10 {
			cancel()
		}
		return true
	})
	if done || errRun == nil {
		t.Fatalf("cancelled run: done=%v err=%v after %d yields", done, errRun, n)
	}
	if n >= 200*200 {
		t.Fatalf("cancellation did not stop enumeration (%d yields)", n)
	}
}

// TestCQPlanGroundFastPath: a fully bound query compiles to an allBound
// scan and resolves without enumeration.
func TestCQPlanGroundFastPath(t *testing.T) {
	db, r := parseCQ(t, `e(a,b). e(b,c). ? :- e(b,c).`)
	p := CompileCQ(r.Queries[0])
	got := collect(p, db)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("ground boolean: %v", got)
	}
}

// TestCQPlanWitnessSuffix: the join steps after the last one binding an
// answer variable stop at their first complete match, so the row matches
// grow with the answers' bindings, not with the product of the steps that
// only need a witness, and the answers stay the reference's.
func TestCQPlanWitnessSuffix(t *testing.T) {
	var src strings.Builder
	for i := range 200 {
		fmt.Fprintf(&src, "e(a%d,a%d). g(b%d,b%d). ", i, i+1, i, i+1)
	}
	for _, c := range []struct {
		query      string
		maxMatches int
	}{
		{"?(X) :- e(X,Y), g(Z,W).", 400},         // one g match per X
		{"?(X) :- e(X,Y), e(Y,Z).", 400},         // e(Y,Z): one match per X
		{"?(X) :- e(X,Y), g(Z,W), g(W,V).", 600}, // g ⋈ g: one match per X
		{"? :- e(X,Y), e(Y,Z).", 2},              // true: the first witness
	} {
		db, r := parseCQ(t, src.String()+c.query)
		q := r.Queries[0]
		var tr Tracer
		var got [][]term.Term
		if _, err := (UCQPlan{CompileCQ(q)}).RunBudgetTraced(nil, &tr, db, nil, func(tup []term.Term) bool {
			got = append(got, append([]term.Term(nil), tup...))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		storage.SortTuples(got)
		if want := naiveCQ(db, q); !sameAnswers(got, want) {
			t.Fatalf("%s: %d answers, reference %d", c.query, len(got), len(want))
		}
		if tr.CQMatches > c.maxMatches {
			t.Fatalf("%s: %d row matches, want at most %d", c.query, tr.CQMatches, c.maxMatches)
		}
	}
}

// TestCQPlanSemiStep: a join step that binds no slot (every position
// constant, bound or projected away) stops at its first match, since
// each further match leaves the frame as it was: f(Y,Z) with Z dead
// costs one match per Y before the answer-binding g(Y,W), not a hundred.
func TestCQPlanSemiStep(t *testing.T) {
	var src strings.Builder
	for i := range 3 {
		fmt.Fprintf(&src, "e(a,b%d). g(b%d,d%d). ", i, i, i)
		for j := range 100 {
			fmt.Fprintf(&src, "f(b%d,c%d). ", i, j)
		}
	}
	db, r := parseCQ(t, src.String()+"?(Y,W) :- e(a,Y), f(Y,Z), g(Y,W).")
	q := r.Queries[0]
	p := CompileCQ(q)
	var tr Tracer
	var got [][]term.Term
	if _, err := (UCQPlan{p}).RunBudgetTraced(nil, &tr, db, nil, func(tup []term.Term) bool {
		got = append(got, append([]term.Term(nil), tup...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	storage.SortTuples(got)
	if want := naiveCQ(db, q); !sameAnswers(got, want) || len(got) != 3 {
		t.Fatalf("%d answers, reference %d", len(got), len(want))
	}
	if fmt.Sprint(p.Order) != "[0 1 2]" || tr.CQMatches != 9 {
		t.Fatalf("join order %v, %d row matches; want [0 1 2] and 3 per step", p.Order, tr.CQMatches)
	}
}

// TestCQPlanRedundant: a plan is redundant when a step binding an
// existential variable is followed by a binding step that reads none of
// its bindings; a connected path, an answer-only binding before a
// disconnected step, and an independent step that binds nothing are not.
func TestCQPlanRedundant(t *testing.T) {
	for _, c := range []struct {
		query     string
		redundant bool
	}{
		{"?(Z) :- e(c,Y), e(Y,Z).", false},
		{"?(X,Z) :- e(X,Y), e(Y,Z).", false},
		{"?(X,Z) :- e(X,c), e(Z,c).", false},        // X binds only an answer
		{"?(X,Z) :- e(Y,c), e(X,Y), e(Z,c).", true}, // e(Z,c) reruns per Y
		{"?(X) :- e(c,Y), e(Y,X), g(c,W).", false},  // g(c,_) binds nothing
		{"? :- e(c,Y), e(Y,Z), g(c,W), g(W,V).", true},
		{"? :- e(c,Y), e(Y,Z).", false},
	} {
		_, r := parseCQ(t, "e(a,b). g(a,b). "+c.query)
		if got := CompileCQ(r.Queries[0]).Redundant(); got != c.redundant {
			t.Errorf("%s: redundant %v, want %v", c.query, got, c.redundant)
		}
	}
}
