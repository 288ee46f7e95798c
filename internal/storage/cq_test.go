package storage_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/term"
)

// CQ evaluation over stored instances, through the one read path:
// plan.EvalCQ compiles the query into Probe scans.

func load(t *testing.T, src string) (*parser.Result, *storage.DB) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	return r, db
}

// hasAnswer reports whether the constant tuple c is an answer of q over
// db — the decision problem of §2 for a finite instance.
func hasAnswer(db *storage.DB, q *logic.CQ, c []term.Term) bool {
	return slices.ContainsFunc(plan.EvalCQ(db, q), func(tup []term.Term) bool { return slices.Equal(tup, c) })
}

func TestEvalCQPath(t *testing.T) {
	r, db := load(t, `
e(a,b). e(b,c). e(c,d).
?(X,Z) :- e(X,Y), e(Y,Z).
`)
	q := r.Queries[0]
	ans := plan.EvalCQ(db, q)
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
	ans := plan.EvalCQ(db, r.Queries[0])
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
	ans := plan.EvalCQ(db, r.Queries[0])
	if len(ans) != 1 || st.Name(ans[0][0]) != "b" {
		t.Fatalf("nulls leaked into answers: %v", ans)
	}
	// But the null may be used internally for joins.
	r2, err := parser.ParseInto(r.Program, `?(X) :- e(X,Y), e(Y,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	ans2 := plan.EvalCQ(db, r2.Queries[0])
	if len(ans2) != 1 || st.Name(ans2[0][0]) != "a" {
		t.Fatalf("join through null failed: %v", ans2)
	}
}

func TestEvalCQBooleanAndHasAnswer(t *testing.T) {
	r, db := load(t, `
e(a,b). e(b,a).
? :- e(X,Y), e(Y,X).
`)
	ans := plan.EvalCQ(db, r.Queries[0])
	if len(ans) != 1 || len(ans[0]) != 0 {
		t.Fatalf("boolean query should yield the empty tuple: %v", ans)
	}
	if !hasAnswer(db, r.Queries[0], nil) {
		t.Fatalf("hasAnswer(boolean) = false")
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
	if !hasAnswer(db, r.Queries[0], []term.Term{a, c}) {
		t.Fatalf("hasAnswer(a,c) = false")
	}
	if hasAnswer(db, r.Queries[0], []term.Term{a, b}) {
		t.Fatalf("hasAnswer(a,b) = true")
	}
	if hasAnswer(db, r.Queries[0], []term.Term{a}) {
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
	if !hasAnswer(db, r.Queries[0], []term.Term{a, a}) {
		t.Fatalf("hasAnswer(a,a) = false")
	}
	if hasAnswer(db, r.Queries[0], []term.Term{a, b}) {
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
	db := storage.NewDB()
	for i := 0; i < 2000; i++ {
		db.Insert(atom.New(e, st.Const(fmt.Sprintf("n%d", i)), st.Const(fmt.Sprintf("n%d", i+1))))
	}
	db.Insert(atom.New(f, st.Const("n2000")))
	ans := plan.EvalCQ(db, r.Queries[0])
	if len(ans) != 1 || st.Name(ans[0][0]) != "n1999" {
		t.Fatalf("indexed eval wrong: %v", ans)
	}
}

func TestEvalCQDeterministicOrder(t *testing.T) {
	r, db := load(t, `e(a,b). e(b,c). e(c,d).`)
	r2, err := parser.ParseInto(r.Program, `?(X,Y) :- e(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	q := &logic.CQ{Output: r2.Queries[0].Output, Atoms: r2.Queries[0].Atoms}
	first := plan.EvalCQ(db, q)
	second := plan.EvalCQ(db, q)
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

// TestEvalCQMonotone: adding facts never removes CQ answers.
func TestEvalCQMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r, err := parser.Parse(`?(X,Z) :- e(X,Y), e(Y,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := r.Program.Reg.Lookup("e")
	db := storage.NewDB()
	var prev [][]term.Term
	for step := 0; step < 60; step++ {
		db.Insert(atom.New(e,
			r.Program.Store.Const(fmt.Sprintf("v%d", rng.Intn(8))),
			r.Program.Store.Const(fmt.Sprintf("v%d", rng.Intn(8)))))
		cur := plan.EvalCQ(db, r.Queries[0])
		if len(cur) < len(prev) {
			t.Fatalf("step %d: answers shrank %d -> %d", step, len(prev), len(cur))
		}
		seen := map[string]bool{}
		for _, tup := range cur {
			seen[fmt.Sprint(tup)] = true
		}
		for _, tup := range prev {
			if !seen[fmt.Sprint(tup)] {
				t.Fatalf("step %d: lost answer %v", step, tup)
			}
		}
		prev = cur
	}
}

// TestEvalCQAgainstBruteForce: the indexed join agrees with a naive
// enumeration of all substitutions on random instances.
func TestEvalCQAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r, err := parser.Parse(`?(X) :- e(X,Y), f(Y,X).`)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := r.Program.Reg.Lookup("e")
	f, _ := r.Program.Reg.Lookup("f")
	for trial := 0; trial < 20; trial++ {
		db := storage.NewDB()
		n := 2 + rng.Intn(5)
		cs := make([]term.Term, n)
		for i := range cs {
			cs[i] = r.Program.Store.Const(fmt.Sprintf("t%d_%d", trial, i))
		}
		for i := 0; i < n*2; i++ {
			db.Insert(atom.New(e, cs[rng.Intn(n)], cs[rng.Intn(n)]))
			db.Insert(atom.New(f, cs[rng.Intn(n)], cs[rng.Intn(n)]))
		}
		got := plan.EvalCQ(db, r.Queries[0])
		// Brute force: for every pair (a,b): e(a,b) ∧ f(b,a) → answer a.
		want := map[term.Term]bool{}
		for _, a := range cs {
			for _, b := range cs {
				if db.Contains(atom.New(e, a, b)) && db.Contains(atom.New(f, b, a)) {
					want[a] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d answers, want %d", trial, len(got), len(want))
		}
		for _, tup := range got {
			if !want[tup[0]] {
				t.Fatalf("trial %d: spurious answer %v", trial, tup)
			}
		}
	}
}
