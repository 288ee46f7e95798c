package analysis

import (
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
)

// magicOf parses "view rules + one goal" and rewrites it.
func magicOf(t *testing.T, src string) (*Magic, *logic.Program) {
	t.Helper()
	r := parser.MustParse(src)
	if len(r.Queries) != 1 {
		t.Fatalf("want one goal, got %d", len(r.Queries))
	}
	return MagicSets(r.Program, r.Queries[0]), r.Program
}

// render drops the parser's per-rule variable tags (X@2 → X) so goldens
// read like the source.
func render(mg *Magic) string {
	var b strings.Builder
	for _, line := range strings.Split(mg.Prog.String()+mg.Query.String(mg.Prog.Store, mg.Prog.Reg), "\n") {
		for i := 0; i < len(line); i++ {
			if line[i] == '@' {
				j := i + 1
				for j < len(line) && line[j] >= '0' && line[j] <= '9' {
					j++
				}
				line = line[:i] + line[j:]
			}
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// TestMagicSetsBack pins the rewriting of the churn benchmark's view: the
// goal's constant moves into the seed, the adorned rule is guarded by its
// magic atom, and the bridge rule admits stored back facts.
func TestMagicSetsBack(t *testing.T) {
	mg, _ := magicOf(t, "back(Y,X) :- t(X,Y). ?(X) :- back(n17,X).")
	if mg == nil {
		t.Fatal("bound goal not rewritten")
	}
	want := `m#back#bf(C#0) :- goal#1(C#0).
back#bf(X#0,X#1) :- m#back#bf(X#0), back(X#0,X#1).
back#bf(Y,X) :- m#back#bf(Y), t(X,Y).
?(X) :- goal#1(C#0), back#bf(C#0,X).
`
	if got := render(mg); got != want {
		t.Fatalf("rewriting:\n%s\nwant:\n%s", got, want)
	}
	if mg.Adornment != "back#bf" || len(mg.MagicPreds) != 1 || mg.Prog.Reg.Name(mg.Seed) != "goal#1" {
		t.Fatalf("adornment %q, %d magic predicates, seed %s", mg.Adornment, len(mg.MagicPreds), mg.Prog.Reg.Name(mg.Seed))
	}
}

// TestMagicSetsLinearTC: on linear transitive closure the magic rules
// follow the one recursive atom — the rewriting of either linear form
// under either binding stays piece-wise linear Datalog — and every rule
// of an adorned predicate leads with its magic atom.
func TestMagicSetsLinearTC(t *testing.T) {
	forms := map[string]string{
		"right": "v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z). ",
		"left":  "v(X,Y) :- e(X,Y). v(X,Z) :- v(X,Y), e(Y,Z). ",
	}
	goals := map[string]string{"bf": "?(X) :- v(a,X).", "fb": "?(X) :- v(X,a).", "bb": "? :- v(a,b)."}
	for fn, rules := range forms {
		for ad, goal := range goals {
			mg, _ := magicOf(t, rules+goal)
			if mg == nil {
				t.Fatalf("%s/%s: not rewritten", fn, ad)
			}
			an := Analyze(mg.Prog)
			if ok, vs := an.IsPWL(); !ok || !an.IsFullSingleHead() {
				t.Fatalf("%s/%s: rewriting not piece-wise linear Datalog: %v\n%s", fn, ad, vs, render(mg))
			}
			magic := map[string]bool{}
			for _, p := range mg.MagicPreds {
				magic[mg.Prog.Reg.Name(p)] = true
			}
			for _, r := range mg.Prog.TGDs {
				head := mg.Prog.Reg.Name(r.Head[0].Pred)
				if !magic[head] && !magic[mg.Prog.Reg.Name(r.Body[0].Pred)] {
					t.Fatalf("%s/%s: rule of %s does not lead with a magic atom\n%s", fn, ad, head, render(mg))
				}
			}
		}
	}
	// The right-linear form asked backwards re-asks its own question: no
	// magic rule beyond the seed's.
	mg, _ := magicOf(t, forms["right"]+goals["fb"])
	if n := strings.Count(render(mg), "\nm#") + 1; n != 1 {
		t.Fatalf("right/fb: %d magic rules, want the seed's alone\n%s", n, render(mg))
	}
}

// TestMagicSetsSideways: bindings pass through atoms that are themselves
// restricted, whatever their written position, and only through those.
func TestMagicSetsSideways(t *testing.T) {
	rules := "v(X,Y) :- e(X,Y). v(X,Z) :- e(X,Y), v(Y,Z). "
	for goal, want := range map[string]string{
		"?(Z) :- e(a,Y), v(Y,Z).":           "v#bf", // the constant reaches v through e
		"?(Z) :- v(a,Y), v(Y,Z).":           "v#bf,v#bf",
		"?(X) :- v(a,X), v(X,b).":           "v#bf,v#bb",
		"?(X,Y,Z) :- e(X,Y), v(Y,Z), f(a).": "",     // e is unrestricted: nothing binds v
		"?(X,Y) :- v(X,Y), e(a,X).":         "v#bf", // restricted atoms go first
		"?(X,Y) :- v(X,Y).":                 "",
		"?(X) :- v(X,X).":                   "",
	} {
		mg, _ := magicOf(t, rules+goal)
		got := ""
		if mg != nil {
			got = mg.Adornment
		}
		if got != want {
			t.Errorf("%s: adornment %q, want %q", goal, got, want)
		}
	}
}

// TestMagicSetsNotApplicable: rules outside positive full single-head
// Datalog are left to the full evaluation.
func TestMagicSetsNotApplicable(t *testing.T) {
	for _, src := range []string{
		"v(X,Y) :- e(X,Y), not f(X,Y). ?(X) :- v(a,X).",
		"v(X,W) :- e(X,Y). ?(X) :- v(a,X).",
		"v(X,Y), w(Y) :- e(X,Y). ?(X) :- v(a,X).",
	} {
		if mg, _ := magicOf(t, src); mg != nil {
			t.Errorf("%s: rewritten", src)
		}
	}
}
