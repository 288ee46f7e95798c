package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/atom"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
)

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

const tcLinear = `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
`

func TestTransitiveClosureAllModes(t *testing.T) {
	src := tcLinear + `
e(a,b). e(b,c). e(c,d). e(d,a).
?(X,Y) :- t(X,Y).
`
	r, db := load(t, src)
	for _, opt := range []Options{
		{},
		{Stratify: true},
		{BiasRecursiveAtom: true},
		{Stratify: true, BiasRecursiveAtom: true},
	} {
		ans, stats, err := Answers(r.Program, db, r.Queries[0], opt)
		if err != nil {
			t.Fatalf("opt %+v: %v", opt, err)
		}
		if len(ans) != 16 { // 4-cycle: everything reaches everything
			t.Fatalf("opt %+v: answers = %d, want 16", opt, len(ans))
		}
		if stats.Derived != 16 {
			t.Fatalf("opt %+v: derived = %d, want 16", opt, stats.Derived)
		}
	}
}

func TestRejectsNonDatalog(t *testing.T) {
	r, db := load(t, `r(X,Z) :- p(X).`) // existential
	if _, _, err := Eval(r.Program, db, Options{}); err == nil {
		t.Fatalf("existential program accepted")
	}
	r2, db2 := load(t, `a(X), b(X) :- c(X).`) // multi-head
	if _, _, err := Eval(r2.Program, db2, Options{}); err == nil {
		t.Fatalf("multi-head program accepted")
	}
	if _, err := Naive(r.Program, db); err == nil {
		t.Fatalf("Naive accepted existential program")
	}
}

func TestStratifiedMatchesUnstratified(t *testing.T) {
	// Multi-stratum program: closure, then reach, then pairs over reach.
	src := tcLinear + `
reach(X) :- t(X,Y), goal(Y).
meet(X,Y) :- reach(X), reach(Y).
e(a,b). e(b,c). e(c,d).
goal(d).
?(X,Y) :- meet(X,Y).
`
	r, db := load(t, src)
	plain, s1, err := Answers(r.Program, db, r.Queries[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	strat, s2, err := Answers(r.Program, db, r.Queries[0], Options{Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(strat) {
		t.Fatalf("stratified disagrees: %d vs %d", len(plain), len(strat))
	}
	if len(plain) != 9 { // reach = {a,b,c}; meet = 3x3
		t.Fatalf("answers = %d, want 9", len(plain))
	}
	if s2.Strata < 3 {
		t.Fatalf("expected >= 3 strata, got %d", s2.Strata)
	}
	if s1.Strata != 0 {
		t.Fatalf("unstratified run reports strata: %d", s1.Strata)
	}
}

func TestSemiNaiveEqualsNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(6)
		src := tcLinear + `
s(X) :- t(X,X).
u(X,Z) :- s(X), t(X,Z).
`
		r, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		db := storage.NewDB()
		e, _ := r.Program.Reg.Lookup("e")
		for i := 0; i < n*2; i++ {
			a := r.Program.Store.Const(fmt.Sprintf("v%d", rng.Intn(n)))
			b := r.Program.Store.Const(fmt.Sprintf("v%d", rng.Intn(n)))
			db.Insert(atom.New(e, a, b))
		}
		semi, _, err := Eval(r.Program, db, Options{Stratify: true, BiasRecursiveAtom: true})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := Naive(r.Program, db)
		if err != nil {
			t.Fatal(err)
		}
		if semi.Len() != naive.Len() {
			t.Fatalf("trial %d: semi-naive %d facts, naive %d facts", trial, semi.Len(), naive.Len())
		}
		for _, f := range naive.All() {
			if !semi.Contains(f) {
				t.Fatalf("trial %d: semi-naive missing %v", trial, f)
			}
		}
	}
}

func TestBiasReducesOrKeepsProbes(t *testing.T) {
	// A long chain where the recursive atom is selective: with the
	// recursive delta atom first the join starts from the (small) delta;
	// written order starts from the full e relation every round.
	var facts string
	for i := 0; i < 60; i++ {
		facts += fmt.Sprintf("e(n%d,n%d).\n", i, i+1)
	}
	src := `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
` + facts
	r, db := load(t, src)
	_, biased, err := Eval(r.Program, db, Options{Stratify: true, BiasRecursiveAtom: true})
	if err != nil {
		t.Fatal(err)
	}
	_, written, err := Eval(r.Program, db, Options{Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	if biased.Probes > written.Probes {
		t.Fatalf("bias should not increase probes: biased=%d written=%d",
			biased.Probes, written.Probes)
	}
}

func TestPeakDeltaReported(t *testing.T) {
	src := tcLinear + "e(a,b). e(b,c). e(c,d).\n"
	r, db := load(t, src)
	_, stats, err := Eval(r.Program, db, Options{Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakDelta == 0 || stats.Rounds == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}

func TestAnswersWithConstantsInQuery(t *testing.T) {
	src := tcLinear + `
e(a,b). e(b,c).
?(X) :- t(a,X).
`
	r, db := load(t, src)
	ans, _, err := Answers(r.Program, db, r.Queries[0], Options{Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("answers = %d, want 2", len(ans))
	}
}

func TestEmptyDatabase(t *testing.T) {
	r, db := load(t, tcLinear)
	out, stats, err := Eval(r.Program, db, Options{Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || stats.Derived != 0 {
		t.Fatalf("empty DB produced facts")
	}
}

// TestEvalInPlaceTraced: under InPlace the derived facts land in the
// caller's db, not a clone, and the trace counts them.
func TestEvalInPlaceTraced(t *testing.T) {
	r, db := load(t, tcLinear+chainFacts(40))
	if _, _, err := Eval(r.Program, db, Options{}); err != nil {
		t.Fatal(err)
	}
	tp, _ := r.Program.Reg.Lookup("t")
	if n := db.CountPred(tp); n != 0 {
		t.Fatalf("evaluation without InPlace wrote %d facts into its input", n)
	}
	tr := &plan.Tracer{}
	out, _, err := Eval(r.Program, db, Options{InPlace: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if out != db {
		t.Fatal("InPlace evaluation returned a copy")
	}
	if n := db.CountPred(tp); n != 40*39/2 {
		t.Fatalf("db holds %d t-facts, want %d", n, 40*39/2)
	}
	if tr.Derived != 40*39/2 {
		t.Fatalf("trace counts %d derived facts, want %d", tr.Derived, 40*39/2)
	}
}
