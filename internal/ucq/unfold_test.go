package ucq

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atom"
	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/term"
)

// unfoldRules are non-recursive rules over stored e and f. Variables
// named K<c> become the constant c (see withConstants): constants in
// heads and bodies, repeated head variables, two rules per head, views
// over views, and rules for the stored e.
const unfoldRules = `
v(X,Y) :- e(X,Y).
v(X,Kb) :- f(X,Y), e(Y,Kc).
v(X,X) :- f(X,Kd).
w(X,Z) :- v(X,Y), v(Y,Z).
w(Ka,Y) :- f(Y,Y).
u(X) :- w(X,X).
u(X) :- v(X,Ka), f(Ka,X).
e(X,Y) :- f(Y,X).
`

// withConstants replaces every variable named K<c> of the rules by the
// constant c: the surface syntax keeps constants out of rules, the
// unfolder does not.
func withConstants(st *term.Store, tgds []*logic.TGD) {
	for _, t := range tgds {
		for _, atoms := range [][]atom.Atom{t.Head, t.Body} {
			for _, a := range atoms {
				for i, x := range a.Args {
					if name := st.Name(x); x.IsVar() && strings.HasPrefix(name, "K") {
						a.Args[i] = st.Const(strings.ToLower(name[1:]))
					}
				}
			}
		}
	}
}

// TestUnfoldMatchesNaive: over random instances of e and f, every goal's
// unfolding — each member compiled with its parameters and the union run
// with the goal's constants — answers what datalog.Naive of the rules
// does, constants in rule heads, rule bodies, goal bodies and the output
// row included.
func TestUnfoldMatchesNaive(t *testing.T) {
	goals := []string{
		"?(Y) :- v(a,Y).", "?(X) :- v(X,b).", "?(X) :- v(X,X).", "? :- v(a,b).",
		"?(Z) :- w(a,Z).", "?(X,Z) :- w(X,Z), f(Z,c).", "?(Y,a) :- u(Y), e(Y,b).",
		"?(X) :- u(X).", "?(Y) :- e(c,Y).", "?(X) :- w(X,a), v(a,X).",
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var src strings.Builder
		src.WriteString(unfoldRules)
		nodes := []string{"a", "b", "c", "d", "g"}
		for _, p := range []string{"e", "f"} {
			for range 8 {
				fmt.Fprintf(&src, "%s(%s,%s). ", p, nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))])
			}
		}
		r, db := load(t, src.String()+strings.Join(goals, " "))
		st := r.Program.Store
		withConstants(st, r.Program.TGDs)
		closed, err := datalog.Naive(r.Program, db)
		if err != nil {
			t.Fatal(err)
		}
		stored := func(p schema.PredID) bool { return db.CountPred(p) > 0 }
		for _, q := range r.Queries {
			members, ok := Unfold(r.Program.TGDs, q, stored, Limits{Members: 256})
			if !ok {
				t.Fatalf("seed %d: %s: not unfolded", seed, q.String(st, r.Program.Reg))
			}
			u := make(plan.UCQPlan, len(members))
			for i, m := range members {
				u[i] = plan.CompileCQParams(m.CQ, m.Params)
			}
			var args []term.Term
			for _, a := range q.Atoms {
				for _, x := range a.Args {
					if !x.IsVar() {
						args = append(args, x)
					}
				}
			}
			var got [][]term.Term
			if _, err := u.RunBudgetTraced(nil, nil, db, args, func(tup []term.Term) bool {
				got = append(got, append([]term.Term(nil), tup...))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			storage.SortTuples(got)
			if want := plan.EvalCQ(closed, q); !reflect.DeepEqual(asSet(st, got), asSet(st, want)) || len(got) != len(want) {
				t.Fatalf("seed %d: %s: %d members answer %v, Naive %v", seed, q.String(st, r.Program.Reg), len(members), asSet(st, got), asSet(st, want))
			}
		}
	}
}

// TestUnfoldRefuses: recursion reachable from the goal, negation, an
// existential head and a union past the cap are not unfolded; recursion
// the goal does not reach is no obstacle, and a goal no rule head unifies
// with is an empty union.
func TestUnfoldRefuses(t *testing.T) {
	for _, c := range []struct {
		src  string
		max  int
		ok   bool
		size int
	}{
		{"t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). ?(Y) :- t(a,Y).", 256, false, 0},
		{"t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). v(X) :- e(X,Y). ?(X) :- v(X), e(X,a).", 256, true, 1},
		{"v(X) :- e(X,Y), not f(X). ?(X) :- v(X).", 256, false, 0},
		{"v(X,N) :- e(X,Y). ?(X) :- v(X,a).", 256, false, 0},
		{"v(X) :- e(X,Y). v(X) :- f(X,Y). ?(X) :- v(X), v(a).", 3, false, 0},
		{"v(X) :- e(X,Y). v(X) :- f(X,Y). ?(X) :- v(X), v(a).", 4, true, 4},
	} {
		r, err := parser.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		members, ok := Unfold(r.Program.TGDs, r.Queries[0], func(schema.PredID) bool { return false }, Limits{Members: c.max})
		if ok != c.ok || len(members) != c.size {
			t.Fatalf("%s (cap %d): %d members, unfolded %v; want %d, %v", c.src, c.max, len(members), ok, c.size, c.ok)
		}
	}
	// Head constants that clash with each other unify with nothing.
	r, err := parser.Parse("v(X,Y) :- e(X,Y). ?(X) :- v(X,X).")
	if err != nil {
		t.Fatal(err)
	}
	st := r.Program.Store
	r.Program.TGDs[0].Head[0].Args = []term.Term{st.Const("a"), st.Const("b")}
	if members, ok := Unfold(r.Program.TGDs, r.Queries[0], func(schema.PredID) bool { return false }, Limits{Members: 8}); !ok || len(members) != 0 {
		t.Fatalf("clashing head constants: %d members, unfolded %v", len(members), ok)
	}
}

// TestUnfoldLimits: a chain of views, each joining two copies of the one
// below, doubles its one member's atoms per level. Thirty levels are a
// short program and a member of 2^30 atoms; the atom and the step bounds
// each end the search early, and a union inside both unfolds.
func TestUnfoldLimits(t *testing.T) {
	chain := func(levels int) string {
		var b strings.Builder
		b.WriteString("v0(X,Y) :- e(X,Z), e(Z,Y). ")
		for i := 1; i < levels; i++ {
			fmt.Fprintf(&b, "v%d(X,Y) :- v%d(X,Z), v%d(Z,Y). ", i, i-1, i-1)
		}
		fmt.Fprintf(&b, "?(Y) :- v%d(a,Y).", levels-1)
		return b.String()
	}
	none := func(schema.PredID) bool { return false }
	for _, c := range []struct {
		levels int
		lim    Limits
		ok     bool
	}{
		{30, Limits{Members: 256, Atoms: 4096, Steps: 4096}, false},
		{30, Limits{Atoms: 4096}, false},
		{30, Limits{Steps: 4096}, false},
		{8, Limits{Members: 256, Atoms: 4096, Steps: 4096}, true}, // 256 atoms, 255 steps
		{8, Limits{Atoms: 255}, false},
		{8, Limits{Steps: 254}, false},
	} {
		r, err := parser.Parse(chain(c.levels))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		members, ok := Unfold(r.Program.TGDs, r.Queries[0], none, c.lim)
		if ok != c.ok || ok && (len(members) != 1 || len(members[0].CQ.Atoms) != 1<<c.levels) {
			t.Fatalf("%d levels under %+v: unfolded %v, %d members", c.levels, c.lim, ok, len(members))
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%d levels under %+v: %v to give up", c.levels, c.lim, d)
		}
	}
}
