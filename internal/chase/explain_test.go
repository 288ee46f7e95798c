package chase

import (
	"strings"
	"testing"

	"repro/internal/atom"
)

func TestExplainDerivationTree(t *testing.T) {
	r, db := loadNeg(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b). e(b,c). e(c,d).
`)
	opt := Default()
	opt.Provenance = true
	res, err := Run(r.Program, db, opt)
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	tp, _ := r.Program.Reg.Lookup("t")
	a := r.Program.Store.Const("a")
	d := r.Program.Store.Const("d")
	exp, err := res.Explain(atom.New(tp, a, d))
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	// t(a,d) needs the full chain: depth ≥ 3 (t(a,d) ← t(b,d) ← t(c,d) ← e(c,d)).
	if exp.Depth() < 3 {
		t.Fatalf("depth = %d, want >= 3", exp.Depth())
	}
	s := exp.Format(r.Program)
	for _, want := range []string{"t(a,d)", "[by r2@", "[database]", "e(a,b)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted explanation missing %q:\n%s", want, s)
		}
	}
	// Database facts explain as themselves.
	ep, _ := r.Program.Reg.Lookup("e")
	base, err := res.Explain(atom.New(ep, a, r.Program.Store.Const("b")))
	if err != nil {
		t.Fatalf("explain base: %v", err)
	}
	if base.TGD != -1 || base.Depth() != 0 {
		t.Fatalf("database fact explanation = %+v", base)
	}
}

func TestExplainErrors(t *testing.T) {
	r, db := loadNeg(t, `
t(X,Y) :- e(X,Y).
e(a,b).
`)
	res, err := Run(r.Program, db, Default()) // no provenance
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	tp, _ := r.Program.Reg.Lookup("t")
	a, b := r.Program.Store.Const("a"), r.Program.Store.Const("b")
	if _, err := res.Explain(atom.New(tp, a, b)); err == nil {
		t.Fatalf("explain without provenance accepted")
	}
	opt := Default()
	opt.Provenance = true
	res2, err := Run(r.Program, db, opt)
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	if _, err := res2.Explain(atom.New(tp, b, a)); err == nil {
		t.Fatalf("explaining an absent fact accepted")
	}
}

func TestExplainThroughExistential(t *testing.T) {
	r, db := loadNeg(t, `
hasDept(E,D) :- emp(E).
inDept(D) :- hasDept(E,D).
emp(alice).
`)
	opt := Default()
	opt.Provenance = true
	res, err := Run(r.Program, db, opt)
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	inDept, _ := r.Program.Reg.Lookup("inDept")
	facts := res.DB.Facts(inDept)
	if len(facts) != 1 {
		t.Fatalf("inDept facts = %d", len(facts))
	}
	exp, err := res.Explain(facts[0])
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if exp.Depth() != 2 { // inDept(⊥) ← hasDept(alice,⊥) ← emp(alice)
		t.Fatalf("depth = %d, want 2", exp.Depth())
	}
}

func TestExplainStratifiedProvenance(t *testing.T) {
	r, db := loadNeg(t, `
covered(Y) :- e(X,Y).
bare(X) :- node(X), not covered(X).
node(a). node(b). e(a,b).
`)
	opt := Default()
	opt.Provenance = true
	res, err := Run(r.Program, db, opt)
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	bare, _ := r.Program.Reg.Lookup("bare")
	facts := res.DB.Facts(bare)
	if len(facts) != 1 {
		t.Fatalf("bare facts = %d", len(facts))
	}
	exp, err := res.Explain(facts[0])
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	// The positive trigger is node(a); the negated atom is not a premise.
	if len(exp.Premises) != 1 || exp.TGD != 1 {
		t.Fatalf("explanation = %+v", exp)
	}
}
