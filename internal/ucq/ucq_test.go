package ucq

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
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

func asSet(st *term.Store, tuples [][]term.Term) map[string]bool {
	out := make(map[string]bool)
	for _, tup := range tuples {
		parts := make([]string, len(tup))
		for i, x := range tup {
			parts[i] = st.Name(x)
		}
		out[strings.Join(parts, ",")] = true
	}
	return out
}

// TestNonRecursiveOntologySaturates: a subclass chain with an existential —
// the closure must saturate and agree with the chase.
func TestNonRecursiveOntologySaturates(t *testing.T) {
	r, db := load(t, `
staff(X) :- professor(X).
person(X) :- staff(X).
employed(X,E) :- staff(X).
hasEmployer(X) :- employed(X,E).
professor(turing). staff(hopper). person(civilian).
?(X) :- person(X).
?(X) :- hasEmployer(X).
`)
	for qi, q := range r.Queries {
		ans, res, err := Answers(r.Program, db, q, Options{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if !res.Complete {
			t.Fatalf("query %d: non-recursive closure did not saturate (states=%d)", qi, res.States)
		}
		want, _, err := chase.CertainAnswers(r.Program, db, q, chase.Default())
		if err != nil {
			t.Fatalf("query %d: chase: %v", qi, err)
		}
		got := asSet(r.Program.Store, ans)
		exp := asSet(r.Program.Store, want)
		if len(got) != len(exp) {
			t.Fatalf("query %d: ucq %v vs chase %v", qi, got, exp)
		}
		for k := range exp {
			if !got[k] {
				t.Fatalf("query %d: missing %s", qi, k)
			}
		}
	}
}

// TestExistentialJoinNeedsMultiAtomChunk: the q(x) :- R(x,y), S(y) example
// of §4.1 — resolving R alone is unsound, the chunk {R,S} against a
// two-atom head is required.
func TestExistentialJoinNeedsMultiAtomChunk(t *testing.T) {
	r, db := load(t, `
r(X,Y), s(Y) :- p(X).
p(a). r(b,c). s(c). r(d,e).
?(X) :- r(X,Y), s(Y).
`)
	ans, res, err := Answers(r.Program, db, r.Queries[0], Options{})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !res.Complete {
		t.Fatalf("closure did not saturate")
	}
	got := asSet(r.Program.Store, ans)
	// a via the TGD, b directly; d must NOT appear (s(e) unknown).
	if !got["a"] || !got["b"] || got["d"] || len(got) != 2 {
		t.Fatalf("answers = %v, want {a,b}", got)
	}
}

// TestRecursiveProgramPartialButSound: linear transitive closure has an
// infinite rewriting; with a budget the result must be partial and every
// returned answer must be certain.
func TestRecursiveProgramPartialButSound(t *testing.T) {
	r, db := load(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b). e(b,c). e(c,d). e(d,e2).
?(X,Y) :- t(X,Y).
`)
	ans, res, err := Answers(r.Program, db, r.Queries[0], Options{MaxStates: 6})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if res.Complete {
		t.Fatalf("recursive closure claimed completeness at 6 states")
	}
	want, _, err := chase.CertainAnswers(r.Program, db, r.Queries[0], chase.Default())
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	exp := asSet(r.Program.Store, want)
	for k := range asSet(r.Program.Store, ans) {
		if !exp[k] {
			t.Fatalf("unsound answer %s", k)
		}
	}
	// With a generous budget the rewriting covers all paths of the 4-edge
	// chain even though the closure never saturates in general: the chain
	// has bounded diameter, and rewritings longer than the chain evaluate
	// to nothing.
	ans2, res2, err := Answers(r.Program, db, r.Queries[0], Options{MaxStates: 2000, MaxAtoms: 8})
	if err != nil {
		t.Fatalf("rewrite2: %v", err)
	}
	_ = res2
	got2 := asSet(r.Program.Store, ans2)
	if len(got2) != len(exp) {
		t.Fatalf("budgeted UCQ found %d answers, chase %d", len(got2), len(exp))
	}
}

// TestBooleanQuery: Boolean certain answering through the UCQ engine.
func TestBooleanQuery(t *testing.T) {
	r, db := load(t, `
triple(X,P,Y) :- type(X,C), restriction(C,P).
type(a, professor). restriction(professor, teaches).
? :- triple(a, teaches, Y).
`)
	ans, res, err := Answers(r.Program, db, r.Queries[0], Options{})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !res.Complete || len(ans) != 1 || len(ans[0]) != 0 {
		t.Fatalf("boolean answer = %v (complete=%v), want one empty tuple", ans, res.Complete)
	}
}

// TestOutputVariablePreserved: every member CQ must retain the output
// variables (frozen constants cannot vanish during resolution).
func TestOutputVariablePreserved(t *testing.T) {
	r, _ := load(t, `
q(X,Y) :- base(X,Y).
base(X,Y) :- left(X), right(Y).
?(X,Y) :- q(X,Y).
`)
	res, err := Rewrite(r.Program, r.Queries[0], Options{})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !res.Complete || len(res.CQs) < 3 {
		t.Fatalf("states = %d complete = %v, want >= 3 complete", len(res.CQs), res.Complete)
	}
	for i, cq := range res.CQs {
		for _, v := range cq.Output {
			found := false
			for _, a := range cq.Atoms {
				for _, x := range a.Args {
					if x == v {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("CQ %d lost output variable %s", i, r.Program.Store.Name(v))
			}
		}
	}
}

func TestRejectsNegation(t *testing.T) {
	r, _ := load(t, `p(X) :- a(X), not b(X).`)
	q := parser.MustParse(`?(X) :- p(X).`).Queries[0]
	_ = q
	if _, err := Rewrite(r.Program, parser.MustParse(`?(X) :- p(X).`).Queries[0], Options{}); err == nil {
		t.Fatalf("negation accepted")
	}
}

// TestRandomNonRecursiveAgreesWithChase cross-checks the UCQ engine against
// the chase on random acyclic existential programs.
func TestRandomNonRecursiveAgreesWithChase(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		var b strings.Builder
		// A layered acyclic program: layer-k predicates derive from
		// layer-(k-1), sometimes with an existential in the middle position.
		layers := 2 + rng.Intn(3)
		for l := 1; l <= layers; l++ {
			for p := 0; p < 2; p++ {
				src := fmt.Sprintf("p%d_%d", l-1, rng.Intn(2))
				dst := fmt.Sprintf("p%d_%d", l, p)
				if rng.Intn(3) == 0 {
					fmt.Fprintf(&b, "%s(X,W) :- %s(X,Y).\n", dst, src)
				} else {
					fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y).\n", dst, src)
				}
			}
		}
		for i := 0; i < 4+rng.Intn(4); i++ {
			fmt.Fprintf(&b, "p0_%d(c%d,c%d).\n", rng.Intn(2), rng.Intn(3), rng.Intn(3))
		}
		fmt.Fprintf(&b, "?(X) :- p%d_%d(X,Y).\n", layers, rng.Intn(2))
		r, db := load(t, b.String())
		ans, res, err := Answers(r.Program, db, r.Queries[0], Options{})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, b.String())
		}
		if !res.Complete {
			t.Fatalf("trial %d: acyclic program did not saturate", trial)
		}
		want, _, err := chase.CertainAnswers(r.Program, db, r.Queries[0], chase.Default())
		if err != nil {
			t.Fatalf("trial %d: chase: %v", trial, err)
		}
		got := asSet(r.Program.Store, ans)
		exp := asSet(r.Program.Store, want)
		if len(got) != len(exp) {
			t.Fatalf("trial %d: ucq %v vs chase %v\n%s", trial, got, exp, b.String())
		}
		for k := range exp {
			if !got[k] {
				t.Fatalf("trial %d: missing %s", trial, k)
			}
		}
	}
}

// TestAnswerOrderMatchesChase: answers come in the chase's order —
// storage.SortTuples on term identity, c0 c1 … c11 — not the decimal
// order of rendered keys, which put c10 and c11 before c1.
func TestAnswerOrderMatchesChase(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&src, "e(c%d,c%d). ", i, i+1)
	}
	src.WriteString("p(X) :- e(X,Y).\n?(X) :- p(X).\n")
	r, db := load(t, src.String())
	got, _, err := Answers(r.Program, db, r.Queries[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := chase.CertainAnswers(r.Program, db, r.Queries[0], chase.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ucq answers %v, chase answers %v", r.Program.Store.Names(flatten(got)), r.Program.Store.Names(flatten(want)))
	}
}

func flatten(tuples [][]term.Term) []term.Term {
	var out []term.Term
	for _, tup := range tuples {
		out = append(out, tup...)
	}
	return out
}
