package chase

import (
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

func loadNeg(t *testing.T, src string) (*parser.Result, *storage.DB) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	return r, db
}

// TestRunRejectsNegation: Run stratifies negation, and refuses negation
// through recursion, which has no stratification.
func TestRunRejectsNegation(t *testing.T) {
	r, db := loadNeg(t, `win(X) :- move(X,Y), not win(Y). move(a,b).`)
	if _, err := Run(r.Program, db, Default()); err == nil || !strings.Contains(err.Error(), "not stratified") {
		t.Fatalf("Run on unstratified negation: err = %v", err)
	}
}

func TestRunStratifiedNegationPerfectModel(t *testing.T) {
	r, db := loadNeg(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
unreach(X,Y) :- node(X), node(Y), not t(X,Y).
node(a). node(b). node(c).
e(a,b).
`)
	res, err := Run(r.Program, db, Default())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	unreach, _ := r.Program.Reg.Lookup("unreach")
	if got := res.DB.CountPred(unreach); got != 8 { // 9 pairs - (a,b)
		t.Fatalf("unreach facts = %d, want 8", got)
	}
}

// TestRunStratifiedExistentialThenNegation exercises the warded case the
// mild-negation discipline is designed for: an existential stratum closes
// before a negation stratum over a harmless variable fires.
func TestRunStratifiedExistentialThenNegation(t *testing.T) {
	r, db := loadNeg(t, `
hasDept(E,D) :- emp(E).
assigned(E) :- hasDept(E,D).
floating(E) :- person(E), not assigned(E).
emp(alice). person(alice). person(bob).
`)
	res, err := Run(r.Program, db, Default())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	floating, _ := r.Program.Reg.Lookup("floating")
	facts := res.DB.Facts(floating)
	if len(facts) != 1 || r.Program.Store.Name(facts[0].Args[0]) != "bob" {
		t.Fatalf("floating = %d facts, want exactly floating(bob)", len(facts))
	}
	// hasDept invented a null department for alice.
	hasDept, _ := r.Program.Reg.Lookup("hasDept")
	if got := res.DB.CountPred(hasDept); got != 1 {
		t.Fatalf("hasDept facts = %d, want 1", got)
	}
}

func TestRunStratifiedProvenanceRemapsIndices(t *testing.T) {
	r, db := loadNeg(t, `
b(X) :- a(X).
c(X) :- b(X), not skip(X).
skip(X) :- blocked(X).
a(1). blocked(2).
`)
	opt := Default()
	opt.Provenance = true
	res, err := Run(r.Program, db, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every provenance entry must reference a TGD index of the original
	// 3-rule program, and the derived c(1) must come from rule 1.
	cPred, _ := r.Program.Reg.Lookup("c")
	found := false
	for row, d := range res.Prov {
		if d.TGD < 0 || d.TGD >= len(r.Program.TGDs) {
			t.Fatalf("provenance TGD index %d out of range", d.TGD)
		}
		if res.DB.All()[row].Pred == cPred {
			found = true
			if d.TGD != 1 {
				t.Fatalf("c(1) attributed to rule %d, want 1", d.TGD)
			}
		}
	}
	if !found {
		t.Fatalf("no provenance entry for c(1)")
	}
}
