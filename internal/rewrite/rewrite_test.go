package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/datalog"
	"repro/internal/parser"
	"repro/internal/prooftree"
	"repro/internal/storage"
	"repro/internal/term"
)

func translate(t *testing.T, src string, qi int) (*parser.Result, *Result) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Translate(r.Program, r.Queries[qi], Options{})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return r, res
}

func evalTranslated(t *testing.T, res *Result, db *storage.DB) map[string]bool {
	t.Helper()
	ans, _, err := datalog.Answers(res.Program, db, res.Query, datalog.Options{Stratify: false})
	if err != nil {
		t.Fatalf("datalog eval of translation: %v", err)
	}
	out := map[string]bool{}
	for _, tup := range ans {
		key := ""
		for _, x := range tup {
			key += fmt.Sprintf("%d:%d|", x.Kind(), x.ID())
		}
		out[key] = true
	}
	return out
}

func tupleKey(tup []term.Term) string {
	key := ""
	for _, x := range tup {
		key += fmt.Sprintf("%d:%d|", x.Kind(), x.ID())
	}
	return key
}

func TestTranslationOutputIsDatalog(t *testing.T) {
	_, res := translate(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
?(X,Y) :- t(X,Y).
`, 0)
	an := analysis.Analyze(res.Program)
	if !an.IsFullSingleHead() {
		t.Fatalf("translated program is not Datalog:\n%s", res.Program.String())
	}
	if ok, vs := an.IsPWL(); !ok {
		t.Fatalf("translated program is not piece-wise linear: %v\n%s", vs, res.Program.String())
	}
	if res.Classes == 0 || res.Bound == 0 {
		t.Fatalf("translation stats empty: %+v", res)
	}
}

func TestTranslationTCEquivalence(t *testing.T) {
	src := `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
?(X,Y) :- t(X,Y).
`
	r, res := translate(t, src, 0)
	// Random graphs: translated Datalog must agree with direct Datalog
	// evaluation of the original program (which is itself Datalog here).
	rng := rand.New(rand.NewSource(5))
	e, _ := r.Program.Reg.Lookup("e")
	for trial := 0; trial < 10; trial++ {
		db := storage.NewDB()
		n := 3 + rng.Intn(4)
		for i := 0; i < n*2; i++ {
			a := r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(n)))
			b := r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(n)))
			db.Insert(atom.New(e, a, b))
		}
		want, _, err := datalog.Answers(r.Program, db, r.Queries[0], datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := evalTranslated(t, res, db)
		if len(got) != len(want) {
			t.Fatalf("trial %d: translated %d answers, direct %d\n%s",
				trial, len(got), len(want), res.Program.String())
		}
		for _, w := range want {
			if !got[tupleKey(w)] {
				t.Fatalf("trial %d: missing answer %v", trial, w)
			}
		}
	}
}

func TestTranslationExistentialBoolean(t *testing.T) {
	// Σ = {P(x) → ∃y R(x,y)}; q = ∃x,y R(x,y). The translation is Datalog
	// yet must answer true exactly when p is non-empty (Theorem 6.3: the
	// COMBINED query is Datalog-expressible even though Σ invents values).
	src := `
r(X,Y) :- p(X).
? :- r(X,Y).
? :- r(X,Y), p(Y).
`
	r, res := translate(t, src, 0)
	db := storage.NewDB()
	p, _ := r.Program.Reg.Lookup("p")
	db.Insert(atom.New(p, r.Program.Store.Const("c")))
	got := evalTranslated(t, res, db)
	if len(got) != 1 {
		t.Fatalf("q1 must hold over {p(c)}:\n%s", res.Program.String())
	}
	empty := storage.NewDB()
	if len(evalTranslated(t, res, empty)) != 0 {
		t.Fatalf("q1 must fail over the empty database")
	}

	// q2 = ∃x,y R(x,y) ∧ P(y): never certain (the witness of Lemma 6.7).
	_, res2 := translate(t, src, 1)
	if len(evalTranslated(t, res2, db)) != 0 {
		t.Fatalf("q2 must not hold:\n%s", res2.Program.String())
	}
}

func TestTranslationRecursiveExistential(t *testing.T) {
	// p(x) → ∃z r(x,z); r(x,y) → p(y): infinite chase; q = ∃x,y (r(x,y) ∧
	// p(y)) is certain over any database with a p-fact.
	src := `
r(X,Z) :- p(X).
p(Y) :- r(X,Y).
? :- r(X,Y), p(Y).
`
	r, res := translate(t, src, 0)
	db := storage.NewDB()
	p, _ := r.Program.Reg.Lookup("p")
	db.Insert(atom.New(p, r.Program.Store.Const("a")))
	if len(evalTranslated(t, res, db)) != 1 {
		t.Fatalf("boolean query must hold:\n%s", res.Program.String())
	}
	if len(evalTranslated(t, res, storage.NewDB())) != 0 {
		t.Fatalf("boolean query must fail on empty DB")
	}
}

func TestTranslationPartitionMergesOutputs(t *testing.T) {
	// t(u,u) :- d(u): the answer (c,c) to ?(X,Y) :- t(X,Y) requires the
	// root partition that merges the two output positions.
	src := `
t(U,U) :- d(U).
?(X,Y) :- t(X,Y).
`
	r, res := translate(t, src, 0)
	db := storage.NewDB()
	d, _ := r.Program.Reg.Lookup("d")
	c := r.Program.Store.Const("c")
	db.Insert(atom.New(d, c))
	got := evalTranslated(t, res, db)
	if !got[tupleKey([]term.Term{c, c})] {
		t.Fatalf("merged-output answer (c,c) missing:\n%s", res.Program.String())
	}
	if len(got) != 1 {
		t.Fatalf("unexpected extra answers: %v", got)
	}
}

func TestTranslationAgreesWithProofTree(t *testing.T) {
	// A warded PWL program with an existential join; compare certain
	// answers from the translation against the proof-tree engine.
	src := `
subclassS(X,Y) :- subclass(X,Y).
subclassS(X,Z) :- subclassS(X,Y), subclass(Y,Z).
type(X,Z) :- type(X,Y), subclassS(Y,Z).
?(X) :- type(a, X).
`
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's node-width bound f_WARD∩PWL = 12 makes the D-independent
	// class space explode combinatorially (the paper's construction
	// enumerates ALL bounded CQs — finite but astronomical). Thanks to the
	// eager promote/decompose normalization, recursion through small
	// classes already captures arbitrarily long data chains, so a small
	// bound is complete for this program; the test validates that against
	// the proof-tree engine.
	res, err := Translate(r.Program, r.Queries[0], Options{Bound: 5})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	db := storage.NewDB()
	st := r.Program.Store
	sc, _ := r.Program.Reg.Lookup("subclass")
	ty, _ := r.Program.Reg.Lookup("type")
	db.Insert(atom.New(ty, st.Const("a"), st.Const("k0")))
	for i := 0; i < 4; i++ {
		db.Insert(atom.New(sc, st.Const(fmt.Sprintf("k%d", i)), st.Const(fmt.Sprintf("k%d", i+1))))
	}
	want, _, err := prooftree.Answers(r.Program, db, r.Queries[0], prooftree.Options{Mode: prooftree.Linear})
	if err != nil {
		t.Fatal(err)
	}
	got := evalTranslated(t, res, db)
	if len(got) != len(want) {
		t.Fatalf("translation: %d answers, proof tree: %d\n%s", len(got), len(want), res.Program.String())
	}
	for _, w := range want {
		if !got[tupleKey(w)] {
			t.Fatalf("missing answer %s", st.Name(w[0]))
		}
	}
}

func TestTranslationRejectsConstantOutputs(t *testing.T) {
	r, err := parser.Parse(`
t(X,Y) :- e(X,Y).
?(X,b) :- t(X,Y), t(Y,b).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(r.Program, r.Queries[0], Options{}); err == nil {
		t.Fatalf("constant output must be rejected")
	}
}

func TestTranslationClassBudget(t *testing.T) {
	r, err := parser.Parse(`
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
?(X,Y) :- t(X,Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(r.Program, r.Queries[0], Options{MaxClasses: 1}); err == nil {
		t.Fatalf("class budget must error out")
	}
}

func TestPartitionsEnumeration(t *testing.T) {
	if got := len(partitions(0)); got != 1 {
		t.Fatalf("partitions(0) = %d", got)
	}
	if got := len(partitions(1)); got != 1 {
		t.Fatalf("partitions(1) = %d", got)
	}
	if got := len(partitions(2)); got != 2 {
		t.Fatalf("partitions(2) = %d", got)
	}
	if got := len(partitions(3)); got != 5 { // Bell(3)
		t.Fatalf("partitions(3) = %d", got)
	}
	for _, p := range partitions(3) {
		if p[0] != 0 {
			t.Fatalf("blocks must be numbered by first occurrence: %v", p)
		}
	}
}
