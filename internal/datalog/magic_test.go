package datalog

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/workload"
)

// magicPrograms are positive piece-wise linear view programs over the
// stored relations e and f, each with the binary predicate its goals ask
// about. Rule variables named K<i> stand for constants: the parser keeps
// rules constant-free, so the test substitutes node names for them after
// parsing (constants in rule bodies and heads).
var magicPrograms = []struct{ rules, goal string }{
	{"v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z).", "v"},
	{"v(X,Y) :- e(X,Y). v(X,Z) :- v(X,Y), e(Y,Z).", "v"},
	// Mutual recursion across two predicates.
	{"a(X,Y) :- e(X,Y). a(X,Z) :- e(X,Y), b(Y,Z). b(X,Z) :- f(X,Y), a(Y,Z).", "a"},
	{"a(X,Y) :- e(X,Y). a(X,Z) :- e(X,Y), b(Y,Z). b(X,Z) :- f(X,Y), a(Y,Z).", "b"},
	// A view over a recursive view; the second v atom is reached sideways.
	{"v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z). h(X,Z) :- v(X,Y), v(Y,Z).", "h"},
	// Constants in a rule body and in a rule head.
	{"v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z). w(X,Y) :- v(K1,X), f(X,Y).", "w"},
	{"v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z). w(X,K1) :- v(X,K2). w(X,Y) :- f(X,Y).", "w"},
	// The head is a stored predicate: e grows by the view's own rules.
	{"e(X,Z) :- f(X,Y), e(Y,Z).", "e"},
}

// magicGoals are goal templates over the program's predicate P: every
// adornment of a single atom, repeated variables, and multi-atom goals
// mixing view and stored atoms. C<i> are replaced by node names (C9 by a
// constant no fact mentions).
var magicGoals = []string{
	"?(X,Y) :- P(X,Y).", "?(Y) :- P(C1,Y).", "?(X) :- P(X,C1).", "? :- P(C1,C2).",
	"?(X) :- P(X,X).", "? :- P(C1,C1).", "?(Y) :- P(C9,Y).",
	"?(Z) :- e(C1,Y), P(Y,Z).", "?(X,Z) :- P(X,Y), f(Y,Z), e(C1,X).",
	"?(X) :- P(C1,X), P(X,C2).", "?(X,Y,Z) :- e(X,Y), P(Y,Z).", "? :- P(C1,Y), f(Y,Z).",
}

// TestMagicSetsDifferential: on random graphs, for every program × goal,
// evaluating the magic-set rewriting from its seed fact and asking the
// adorned goal gives exactly the answers of the full view (Eval) and of
// the plan-free reference (Naive); every adorned relation is a subset of
// its predicate in the full view; and goals no constant binds are not
// rewritten.
func TestMagicSetsDifferential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		node := func() string { return fmt.Sprintf("n%d", rng.Intn(n)) }
		for pi, mp := range magicPrograms {
			for gi, goal := range magicGoals {
				goal = strings.ReplaceAll(goal, "P(", mp.goal+"(")
				goal = strings.NewReplacer("C1", node(), "C2", node(), "C9", "nowhere").Replace(goal)
				r := parser.MustParse(mp.rules + "\n" + goal)
				prog, q := r.Program, r.Queries[0]
				db := workload.RandomDigraph(n, n+rng.Intn(2*n), seed).DB(prog, "e", "n")
				db.InsertAll(workload.RandomDigraph(n, n, seed+100).Facts(prog, "f", "n"))
				substituteConstants(prog, map[string]term.Term{"K1": prog.Store.Const(node()), "K2": prog.Store.Const(node())})
				label := fmt.Sprintf("seed %d program %d goal %d (%s)", seed, pi, gi, goal)

				full, _, err := Eval(prog, db, Options{Stratify: true, BiasRecursiveAtom: true})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := answers(prog, full, q)
				naive, err := Naive(prog, db)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if ref := answers(prog, naive, q); ref != want {
					t.Fatalf("%s: Eval and Naive disagree:\n%s\n%s", label, want, ref)
				}

				var consts []term.Term
				for _, a := range q.Atoms {
					for _, x := range a.Args {
						if !x.IsVar() {
							consts = append(consts, x)
						}
					}
				}
				mg := analysis.MagicSets(prog, q)
				if mg == nil {
					continue // no constant binds a view atom
				}
				if len(consts) == 0 {
					t.Fatalf("%s: constant-free goal rewritten", label)
				}
				seeded := db.Clone()
				seeded.InsertArgs(mg.Seed, consts)
				demand, _, err := Eval(mg.Prog, seeded, Options{Stratify: true, BiasRecursiveAtom: true})
				if err != nil {
					t.Fatalf("%s: rewriting: %v\n%s", label, err, mg.Prog)
				}
				if got := answers(prog, demand, mg.Query); got != want {
					t.Fatalf("%s: demand answers\n%s\nfull answers\n%s\nrewriting:\n%s", label, got, want, mg.Prog)
				}
				for _, tg := range mg.Prog.TGDs {
					name := prog.Reg.Name(tg.Head[0].Pred)
					if strings.HasPrefix(name, "m#") {
						continue
					}
					orig, _ := prog.Reg.Lookup(name[:strings.IndexByte(name, '#')])
					for _, f := range demand.Facts(tg.Head[0].Pred) {
						if !full.ContainsArgs(orig, f.Args) {
							t.Fatalf("%s: %s holds a fact the full view lacks", label, name)
						}
					}
				}
			}
		}
	}
}

// substituteConstants replaces the named rule variables by constants.
func substituteConstants(prog *logic.Program, by map[string]term.Term) {
	for _, tg := range prog.TGDs {
		for _, a := range append(slices.Clone(tg.Head), tg.Body...) {
			for i, x := range a.Args {
				name, _, _ := strings.Cut(prog.Store.Name(x), "@") // drop the parser's rule tag
				if c, ok := by[name]; ok && x.IsVar() {
					a.Args[i] = c
				}
			}
		}
	}
}

// answers renders a goal's answer set over the instance, sorted.
func answers(prog *logic.Program, db *storage.DB, q *logic.CQ) string {
	var rows []string
	plan.CompileCQ(q).Run(db, func(tup []term.Term) bool {
		rows = append(rows, strings.Join(prog.Store.Names(tup), ","))
		return true
	})
	if q.IsBoolean() {
		return fmt.Sprint(len(rows) > 0)
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
