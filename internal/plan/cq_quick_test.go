package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

// Randomized property suite: CQPlan against the naive reference (naiveCQ)
// over random instances and random query shapes. Programs are
// generated as source text so every query passes through the same parser
// path the service uses.

// randCQSource generates a random instance plus one random query: a few
// predicates of arity 1–3, random facts over a small constant pool, and a
// query of 1–4 atoms mixing fresh variables, shared variables, and
// constants, with output drawn from the body's variables (plus sometimes a
// constant).
func randCQSource(rng *rand.Rand) string {
	var b strings.Builder
	nPred := 1 + rng.Intn(3)
	arity := make([]int, nPred)
	for p := range arity {
		arity[p] = 1 + rng.Intn(3)
	}
	nConst := 3 + rng.Intn(5)
	cname := func(i int) string { return fmt.Sprintf("c%d", i) }
	nFacts := 1 + rng.Intn(20)
	for i := 0; i < nFacts; i++ {
		p := rng.Intn(nPred)
		args := make([]string, arity[p])
		for j := range args {
			args[j] = cname(rng.Intn(nConst))
		}
		fmt.Fprintf(&b, "p%d(%s). ", p, strings.Join(args, ","))
	}
	// Body: variables shared across atoms with probability; occasional
	// constants.
	nAtoms := 1 + rng.Intn(4)
	var vars []string
	nextVar := 0
	var atoms []string
	for i := 0; i < nAtoms; i++ {
		p := rng.Intn(nPred)
		args := make([]string, arity[p])
		for j := range args {
			switch {
			case rng.Intn(5) == 0: // constant
				args[j] = cname(rng.Intn(nConst))
			case len(vars) > 0 && rng.Intn(2) == 0: // reuse a variable
				args[j] = vars[rng.Intn(len(vars))]
			default: // fresh variable
				v := fmt.Sprintf("V%d", nextVar)
				nextVar++
				vars = append(vars, v)
				args[j] = v
			}
		}
		atoms = append(atoms, fmt.Sprintf("p%d(%s)", p, strings.Join(args, ",")))
	}
	// Output: 0–3 positions from the body's variables, occasionally a
	// constant.
	nOut := rng.Intn(4)
	if len(vars) == 0 {
		nOut = 0
	}
	var out []string
	for i := 0; i < nOut; i++ {
		if rng.Intn(8) == 0 {
			out = append(out, cname(rng.Intn(nConst)))
		} else {
			out = append(out, vars[rng.Intn(len(vars))])
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(&b, "? :- %s.", strings.Join(atoms, ", "))
	} else {
		fmt.Fprintf(&b, "?(%s) :- %s.", strings.Join(out, ","), strings.Join(atoms, ", "))
	}
	return b.String()
}

// TestCQPlanRandomizedEquivalence: over random (instance, query) pairs the
// compiled plan and the reference agree on the full sorted answer set,
// every enumeration is duplicate-free, and re-running the same plan yields
// the same order.
func TestCQPlanRandomizedEquivalence(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 60
	}
	rng := rand.New(rand.NewSource(0x5eed7))
	for i := 0; i < rounds; i++ {
		src := randCQSource(rng)
		r, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("generated source failed to parse: %v\n%s", err, src)
		}
		db := storage.NewDB()
		db.InsertAll(r.Facts)
		q := r.Queries[0]
		want := naiveCQ(db, q)
		got := EvalCQ(db, q)
		if !sameAnswers(got, want) {
			t.Fatalf("round %d: compiled %v != reference %v\n%s", i, got, want, src)
		}

		p := CompileCQ(q)
		first := collect(p, db)
		seen := storage.NewTupleSet(len(q.Output))
		for _, tup := range first {
			if !seen.Add(tup) {
				t.Fatalf("round %d: duplicate yield %v\n%s", i, tup, src)
			}
		}
		if len(first) != len(want) {
			t.Fatalf("round %d: enumeration yielded %d tuples, reference has %d\n%s",
				i, len(first), len(want), src)
		}
		if second := collect(p, db); !sameAnswers(first, second) {
			t.Fatalf("round %d: non-deterministic enumeration\n%s", i, src)
		}
		// The same query with its body constants as parameters runs the
		// same join and enumerates the same answers in the same order.
		pq, params, args := parameterize(r.Program.Store, q)
		pp := CompileCQParams(pq, params)
		var got2 [][]term.Term
		if _, err := (UCQPlan{pp}).RunBudgetTraced(nil, nil, db, args, func(tup []term.Term) bool {
			got2 = append(got2, append([]term.Term(nil), tup...))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(first, got2) || !reflect.DeepEqual(p.Order, pp.Order) {
			t.Fatalf("round %d: parameterized plan (order %v) answers %v, constant plan (order %v) %v\n%s", i, pp.Order, got2, p.Order, first, src)
		}
	}
}

// parameterize restates q with each body constant occurrence a fresh
// parameter variable, returning the query, the variables and the
// constants they stand for.
func parameterize(st *term.Store, q *logic.CQ) (*logic.CQ, []term.Term, []term.Term) {
	out := &logic.CQ{Output: q.Output}
	var params, args []term.Term
	for _, a := range q.Atoms {
		a = a.Clone()
		for j, x := range a.Args {
			if !x.IsVar() {
				a.Args[j] = st.Var(fmt.Sprintf("P#%d", len(params)))
				params, args = append(params, a.Args[j]), append(args, x)
			}
		}
		out.Atoms = append(out.Atoms, a)
	}
	return out, params, args
}

// TestCQPlanRandomizedWithNulls: same equivalence with labeled nulls mixed
// into the instance — nulls must witness joins but never answer.
func TestCQPlanRandomizedWithNulls(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	rng := rand.New(rand.NewSource(0xab5eed))
	for i := 0; i < rounds; i++ {
		src := randCQSource(rng)
		r, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("generated source failed to parse: %v\n%s", err, src)
		}
		db := storage.NewDB()
		db.InsertAll(r.Facts)
		// Rewrite a few fact arguments to labeled nulls and re-insert.
		for _, f := range r.Facts {
			if rng.Intn(3) != 0 {
				continue
			}
			g := f.Clone()
			g.Args[rng.Intn(len(g.Args))] = term.MkNull(uint32(rng.Intn(4)))
			db.Insert(g)
		}
		q := r.Queries[0]
		want := naiveCQ(db, q)
		got := EvalCQ(db, q)
		if !sameAnswers(got, want) {
			t.Fatalf("round %d: compiled %v != reference %v\n%s", i, got, want, src)
		}
		for _, tup := range got {
			for _, x := range tup {
				if !x.IsConst() {
					t.Fatalf("round %d: non-constant answer %v\n%s", i, tup, src)
				}
			}
		}
	}
}
