package core

import (
	"testing"

	"repro/internal/term"
)

const tcSource = `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b). e(b,c).
?(X) :- t(a,X).
`

func TestFromSourceAndAuto(t *testing.T) {
	r, db, qs, err := FromSource(tcSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || db.Len() != 2 {
		t.Fatalf("load wrong: %d queries, %d facts", len(qs), db.Len())
	}
	cls := r.Class()
	if !cls.Warded || !cls.PWL {
		t.Fatalf("TC should classify warded+PWL: %+v", cls)
	}
	ans, info, err := r.CertainAnswers(db, qs[0], Auto)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != ProofTreeLinear {
		t.Fatalf("Auto should pick the linear proof tree for WARD∩PWL, got %v", info.Strategy)
	}
	if len(ans) != 2 {
		t.Fatalf("answers = %d, want 2", len(ans))
	}
	if info.ProofStats == nil || info.ProofStats.Bound == 0 {
		t.Fatalf("proof stats missing")
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	r, db, qs, err := FromSource(tcSource)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"b": true, "c": true}
	for _, s := range []Strategy{ProofTreeLinear, ProofTreeAlternating, ChaseEngine, Translated} {
		ans, info, err := r.CertainAnswers(db, qs[0], s)
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if len(ans) != len(want) {
			t.Fatalf("strategy %v: %d answers, want %d", s, len(ans), len(want))
		}
		for _, a := range ans {
			if !want[r.Program().Store.Name(a[0])] {
				t.Fatalf("strategy %v: unexpected answer %v", s, a)
			}
		}
		if info.Strategy != s {
			t.Fatalf("info.Strategy = %v, want %v", info.Strategy, s)
		}
	}
}

func TestIsCertain(t *testing.T) {
	r, db, qs, err := FromSource(tcSource)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Program().Store.Const("c")
	a := r.Program().Store.Const("a")
	for _, s := range []Strategy{Auto, ChaseEngine, Translated} {
		ok, info, err := r.IsCertain(db, qs[0], []term.Term{c}, s)
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if !ok {
			t.Fatalf("strategy %v: t(a,c) must hold", s)
		}
		if s == ChaseEngine && (info.ChaseStats == nil || info.Incomplete) {
			t.Fatalf("chase: info %+v, want chase stats of a complete run", info)
		}
		ok, _, err = r.IsCertain(db, qs[0], []term.Term{a}, s)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("strategy %v: t(a,a) must not hold", s)
		}
	}

	// A non-recursive program, where the UCQ closure is complete.
	r, db, qs, err = FromSource(`
t(X,Y) :- e(X,Y).
s(X,Z) :- t(X,Y), e(Y,Z).
e(a,b). e(b,c).
?(X) :- s(a,X).
`)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Program().Store
	for tuple, want := range map[string]bool{"c": true, "b": false} {
		ok, info, err := r.IsCertain(db, qs[0], []term.Term{st.Const(tuple)}, UCQRewrite)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want || info.Strategy != UCQRewrite || info.UCQStats == nil || info.Incomplete {
			t.Fatalf("UCQRewrite on s(a,%s): certain %v, info %+v; want certain %v from a complete closure", tuple, ok, info, want)
		}
	}
}

func TestAutoFallsBackToChaseForNonPWL(t *testing.T) {
	r, db, qs, err := FromSource(`
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
e(a,b). e(b,c).
?(X,Y) :- t(X,Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	ans, info, err := r.CertainAnswers(db, qs[0], Auto)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != ChaseEngine {
		t.Fatalf("Auto on warded non-PWL should use the chase, got %v", info.Strategy)
	}
	if len(ans) != 3 {
		t.Fatalf("answers = %d, want 3", len(ans))
	}
	if info.Incomplete {
		t.Fatalf("warded chase that terminated should be complete")
	}
}

func TestExistentialProgramAllEngines(t *testing.T) {
	src := `
r(X,Z) :- p(X).
p(Y) :- r(X,Y).
p(a).
? :- r(X,Y), p(Y).
`
	r, db, qs, err := FromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Auto, ProofTreeLinear, ChaseEngine, Translated} {
		ans, _, err := r.CertainAnswers(db, qs[0], s)
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if len(ans) != 1 {
			t.Fatalf("strategy %v: boolean query must hold", s)
		}
	}
}

func TestNonWardedMarkedIncomplete(t *testing.T) {
	r, db, qs, err := FromSource(`
r(X,Z) :- p(X).
q(Z) :- r(X,Z), r(Y,Z).
p(a).
? :- q(Z).
`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Class().Warded {
		t.Fatalf("program should not be warded")
	}
	_, info, err := r.CertainAnswers(db, qs[0], Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Incomplete {
		t.Fatalf("non-warded chase answers must be flagged incomplete")
	}
}

func TestHybridOracleAgrees(t *testing.T) {
	r, db, qs, err := FromSource(tcSource)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := r.CertainAnswers(db, qs[0], ProofTreeLinear)
	if err != nil {
		t.Fatal(err)
	}
	r.HybridOracle = true
	hybrid, info, err := r.CertainAnswers(db, qs[0], ProofTreeLinear)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(hybrid) {
		t.Fatalf("hybrid oracle changed answers: %d vs %d", len(plain), len(hybrid))
	}
	if info.ProofStats == nil {
		t.Fatalf("hybrid run lost proof stats")
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{Auto, ProofTreeLinear, ProofTreeAlternating, ChaseEngine, Translated, Strategy(99)} {
		if s.String() == "" {
			t.Fatalf("empty strategy name for %d", s)
		}
	}
}
