package storage

import (
	"fmt"
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/term"
)

func load(t *testing.T, src string) (*parser.Result, *DB) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := NewDB()
	db.InsertAll(r.Facts)
	return r, db
}

func TestInsertDedup(t *testing.T) {
	r, db := load(t, `e(a,b). e(a,b). e(b,c).`)
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dedup)", db.Len())
	}
	if !db.Contains(r.Facts[0]) {
		t.Fatalf("Contains lost a fact")
	}
	if n := db.InsertAll(r.Facts); n != 0 {
		t.Fatalf("re-insert added %d", n)
	}
	pred := r.Facts[0].Pred
	if db.CountPred(pred) != 2 {
		t.Fatalf("CountPred = %d", db.CountPred(pred))
	}
	if len(db.Facts(pred)) != 2 {
		t.Fatalf("Facts len wrong")
	}
	if len(db.All()) != 2 {
		t.Fatalf("All len wrong")
	}
}

func TestInsertNonGroundPanics(t *testing.T) {
	r, db := load(t, `e(a,b).`)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	bad := atom.New(r.Facts[0].Pred, r.Program.Store.Var("X"), r.Program.Store.Const("a"))
	db.Insert(bad)
}

func TestInsertNullOK(t *testing.T) {
	r, db := load(t, `e(a,b).`)
	n, _ := r.Program.Store.FreshNull()
	withNull := atom.New(r.Facts[0].Pred, r.Program.Store.Const("a"), n)
	if !db.Insert(withNull) {
		t.Fatalf("null atom rejected")
	}
	if !db.Contains(withNull) {
		t.Fatalf("null atom lost")
	}
}

func TestActiveDomainAndConstants(t *testing.T) {
	r, db := load(t, `e(a,b). e(b,c).`)
	dom := db.ActiveDomain()
	if len(dom) != 3 {
		t.Fatalf("dom size = %d, want 3", len(dom))
	}
	n, _ := r.Program.Store.FreshNull()
	db.Insert(atom.New(r.Facts[0].Pred, dom[0], n))
	if len(db.ActiveDomain()) != 4 {
		t.Fatalf("null not in active domain")
	}
	if len(db.Constants()) != 3 {
		t.Fatalf("Constants should exclude nulls")
	}
}

func TestEvalCQPath(t *testing.T) {
	r, db := load(t, `
e(a,b). e(b,c). e(c,d).
?(X,Z) :- e(X,Y), e(Y,Z).
`)
	q := r.Queries[0]
	ans := db.EvalCQ(q)
	if len(ans) != 2 {
		t.Fatalf("answers = %d, want 2 (a..c, b..d)", len(ans))
	}
	st := r.Program.Store
	got := map[string]bool{}
	for _, tup := range ans {
		got[st.Name(tup[0])+"-"+st.Name(tup[1])] = true
	}
	if !got["a-c"] || !got["b-d"] {
		t.Fatalf("wrong answers: %v", got)
	}
}

func TestEvalCQWithConstantSelection(t *testing.T) {
	r, db := load(t, `
e(a,b). e(b,c).
?(X) :- e(a,X).
`)
	ans := db.EvalCQ(r.Queries[0])
	if len(ans) != 1 || r.Program.Store.Name(ans[0][0]) != "b" {
		t.Fatalf("selection failed: %v", ans)
	}
}

func TestEvalCQNullsNotAnswers(t *testing.T) {
	r, db := load(t, `
e(a,b).
?(Y) :- e(X,Y).
`)
	// Insert e(b, null): the null must not surface as an answer.
	st := r.Program.Store
	pred := r.Facts[0].Pred
	n, _ := st.FreshNull()
	db.Insert(atom.New(pred, st.Const("b"), n))
	ans := db.EvalCQ(r.Queries[0])
	if len(ans) != 1 || st.Name(ans[0][0]) != "b" {
		t.Fatalf("nulls leaked into answers: %v", ans)
	}
	// But the null may be used internally for joins.
	r2, err := parser.ParseInto(r.Program, `?(X) :- e(X,Y), e(Y,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	ans2 := db.EvalCQ(r2.Queries[0])
	if len(ans2) != 1 || st.Name(ans2[0][0]) != "a" {
		t.Fatalf("join through null failed: %v", ans2)
	}
}

func TestEvalCQBooleanAndHasAnswer(t *testing.T) {
	r, db := load(t, `
e(a,b). e(b,a).
? :- e(X,Y), e(Y,X).
`)
	ans := db.EvalCQ(r.Queries[0])
	if len(ans) != 1 || len(ans[0]) != 0 {
		t.Fatalf("boolean query should yield the empty tuple: %v", ans)
	}
	if !db.HasAnswer(r.Queries[0], nil) {
		t.Fatalf("HasAnswer(boolean) = false")
	}
}

func TestHasAnswerConstants(t *testing.T) {
	r, db := load(t, `
e(a,b). e(b,c).
?(X,Z) :- e(X,Y), e(Y,Z).
`)
	st := r.Program.Store
	a, c := st.Const("a"), st.Const("c")
	b := st.Const("b")
	if !db.HasAnswer(r.Queries[0], []term.Term{a, c}) {
		t.Fatalf("HasAnswer(a,c) = false")
	}
	if db.HasAnswer(r.Queries[0], []term.Term{a, b}) {
		t.Fatalf("HasAnswer(a,b) = true")
	}
	if db.HasAnswer(r.Queries[0], []term.Term{a}) {
		t.Fatalf("arity mismatch accepted")
	}
}

func TestHasAnswerRepeatedOutputVar(t *testing.T) {
	r, db := load(t, `
e(a,a). e(a,b).
?(X,X) :- e(X,X).
`)
	st := r.Program.Store
	a, b := st.Const("a"), st.Const("b")
	if !db.HasAnswer(r.Queries[0], []term.Term{a, a}) {
		t.Fatalf("HasAnswer(a,a) = false")
	}
	if db.HasAnswer(r.Queries[0], []term.Term{a, b}) {
		t.Fatalf("repeated output var bound to different constants")
	}
}

func TestHomomorphismUsesIndexes(t *testing.T) {
	// A larger instance to make index use observable by correctness (and
	// by not timing out).
	r, err := parser.Parse(`?(X) :- e(X,Y), f(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	st, reg := r.Program.Store, r.Program.Reg
	e := reg.Intern("e", 2)
	f := reg.Intern("f", 1)
	db := NewDB()
	for i := 0; i < 2000; i++ {
		db.Insert(atom.New(e, st.Const(fmt.Sprintf("n%d", i)), st.Const(fmt.Sprintf("n%d", i+1))))
	}
	db.Insert(atom.New(f, st.Const("n2000")))
	ans := db.EvalCQ(r.Queries[0])
	if len(ans) != 1 || st.Name(ans[0][0]) != "n1999" {
		t.Fatalf("indexed eval wrong: %v", ans)
	}
}

func TestCloneIndependence(t *testing.T) {
	r, db := load(t, `e(a,b).`)
	cl := db.Clone()
	st := r.Program.Store
	cl.Insert(atom.New(r.Facts[0].Pred, st.Const("x"), st.Const("y")))
	if db.Len() != 1 || cl.Len() != 2 {
		t.Fatalf("clone not independent: %d/%d", db.Len(), cl.Len())
	}
}

func TestOrderForJoinAvoidsCartesian(t *testing.T) {
	r, _ := load(t, `?(X) :- a(X), b(Y), c(X,Y).`)
	q := r.Queries[0]
	ord := orderForJoin(q.Atoms)
	if len(ord) != 3 {
		t.Fatalf("order lost atoms")
	}
	// After the first atom, every subsequent atom should share a variable
	// with the prefix when possible: c must not come last after a,b split.
	vars := atom.VarSet([]atom.Atom{ord[0]})
	shares := false
	for _, t2 := range ord[1].Args {
		if t2.IsVar() && vars[t2] {
			shares = true
		}
	}
	if !shares {
		t.Fatalf("second atom is a cartesian product: %v", ord)
	}
}

func TestEvalCQDeterministicOrder(t *testing.T) {
	r, db := load(t, `e(a,b). e(b,c). e(c,d).`)
	r2, err := parser.ParseInto(r.Program, `?(X,Y) :- e(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	q := &logic.CQ{Output: r2.Queries[0].Output, Atoms: r2.Queries[0].Atoms}
	first := db.EvalCQ(q)
	second := db.EvalCQ(q)
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("eval wrong size: %d/%d", len(first), len(second))
	}
	for i := range first {
		for j := range first[i] {
			if first[i][j] != second[i][j] {
				t.Fatalf("nondeterministic order")
			}
		}
	}
}
