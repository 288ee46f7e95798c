package chase

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/workload"
)

// homs calls fn for every homomorphism from the atoms into db extending
// h: a nested loop over Facts in written order, the naive reference the
// engine's compiled checks are held to. fn returning false stops it; homs
// reports whether it ran to completion.
func homs(db *storage.DB, atoms []atom.Atom, h atom.Subst, fn func(atom.Subst) bool) bool {
	if len(atoms) == 0 {
		return fn(h)
	}
	for _, f := range db.Facts(atoms[0].Pred) {
		if s := maps.Clone(h); atom.MatchAtom(s, atoms[0], f) && !homs(db, atoms[1:], s, fn) {
			return false
		}
	}
	return true
}

// headSatisfiedSubst is the substitution-based I |= σ check used by the
// model test (the engine itself checks through the compiled plan's frame).
func headSatisfiedSubst(db *storage.DB, tgd *logic.TGD, h atom.Subst) bool {
	base := atom.NewSubst()
	for x := range tgd.Frontier() {
		base[x] = h.Apply(x)
	}
	return !homs(db, tgd.Head, base, func(atom.Subst) bool { return false })
}

// TestChaseResultIsModel: a terminating, untruncated restricted chase
// (without pattern suppression) yields an instance satisfying every TGD.
func TestChaseResultIsModel(t *testing.T) {
	srcs := []string{
		`
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b). e(b,c). e(c,d).
`,
		`
r(X,W) :- p(X).
s(Y) :- r(X,Y).
p(a). p(b).
`,
		`
a(X), b(X,W) :- c(X).
d(Y) :- b(X,Y).
c(k1). c(k2).
`,
	}
	for i, src := range srcs {
		r, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		db := storage.NewDB()
		db.InsertAll(r.Facts)
		res, err := Run(r.Program, db, Options{Restricted: true, MaxRounds: 100, MaxFacts: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("case %d truncated", i)
		}
		for ti, tgd := range r.Program.TGDs {
			homs(res.DB, tgd.Body, atom.NewSubst(), func(h atom.Subst) bool {
				if !headSatisfiedSubst(res.DB, tgd, h) {
					t.Fatalf("case %d: TGD %d violated under %v", i, ti, h)
				}
				return true
			})
		}
	}
}

// TestChaseMonotoneUnderFacts: certain answers only grow when facts are
// added (for Datalog programs, where the chase is exact).
func TestChaseMonotoneUnderFacts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
?(X,Y) :- t(X,Y).
`
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := r.Program.Reg.Lookup("e")
	small := storage.NewDB()
	big := storage.NewDB()
	for i := 0; i < 16; i++ {
		f := atom.New(e,
			r.Program.Store.Const(string(rune('a'+rng.Intn(6)))),
			r.Program.Store.Const(string(rune('a'+rng.Intn(6)))))
		big.Insert(f)
		if i < 8 {
			small.Insert(f)
		}
	}
	ansSmall, _, err := CertainAnswers(r.Program, small, r.Queries[0], Default())
	if err != nil {
		t.Fatal(err)
	}
	resBig, err := Run(r.Program, big, Default())
	if err != nil {
		t.Fatal(err)
	}
	ansBig := plan.EvalCQ(resBig.DB, r.Queries[0])
	for _, tup := range ansSmall {
		if !slices.ContainsFunc(ansBig, func(b []term.Term) bool { return slices.Equal(b, tup) }) {
			t.Fatalf("answer lost under fact addition: %v", tup)
		}
	}
}

// TestChaseDeterministicAcrossRuns: same input → same fact set (the
// engine is deterministic even though chase theory allows any order).
func TestChaseDeterministicAcrossRuns(t *testing.T) {
	o, err := workload.GenOWL(workload.OWLParams{Classes: 6, Chains: 2, Restrictions: 2, Individuals: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(o.Program, o.DB, Default())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(o.Program, o.DB, Default())
	if err != nil {
		t.Fatal(err)
	}
	if r1.DB.Len() != r2.DB.Len() || r1.Applications != r2.Applications {
		t.Fatalf("chase nondeterministic: %d/%d vs %d/%d",
			r1.DB.Len(), r1.Applications, r2.DB.Len(), r2.Applications)
	}
}
