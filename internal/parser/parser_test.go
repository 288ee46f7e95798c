package parser

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/atom"
)

func TestParseFactsRulesQueries(t *testing.T) {
	src := `
% transitive closure, linear form (paper §1.2)
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).

e(a,b). e(b,c).
?(X) :- t(a,X).
`
	r, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(r.Program.TGDs) != 2 {
		t.Fatalf("TGDs = %d, want 2", len(r.Program.TGDs))
	}
	if len(r.Facts) != 2 {
		t.Fatalf("Facts = %d, want 2", len(r.Facts))
	}
	if len(r.Queries) != 1 {
		t.Fatalf("Queries = %d, want 1", len(r.Queries))
	}
	q := r.Queries[0]
	if len(q.Output) != 1 || !q.Output[0].IsVar() {
		t.Fatalf("query output wrong: %v", q.Output)
	}
	// The constant 'a' in the query must be interned as a constant.
	if !q.Atoms[0].Args[0].IsConst() {
		t.Fatalf("query constant parsed as %v", q.Atoms[0].Args[0].Kind())
	}
}

func TestRuleVariableScoping(t *testing.T) {
	src := `
p(X) :- q(X).
r(X) :- s(X).
`
	r, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	v1 := r.Program.TGDs[0].Body[0].Args[0]
	v2 := r.Program.TGDs[1].Body[0].Args[0]
	if v1 == v2 {
		t.Fatalf("X in different rules must be distinct variables")
	}
	// Within one rule the same name is the same variable.
	if r.Program.TGDs[0].Body[0].Args[0] != r.Program.TGDs[0].Head[0].Args[0] {
		t.Fatalf("X within one rule must be one variable")
	}
}

func TestExistentialHeadVariables(t *testing.T) {
	src := `r(X,Z) :- p(X).`
	r := MustParse(src)
	tg := r.Program.TGDs[0]
	ex := tg.Existentials()
	if len(ex) != 1 {
		t.Fatalf("existentials = %v, want one (Z)", ex)
	}
}

func TestMultiAtomHead(t *testing.T) {
	src := `a(X), b(X,W) :- c(X).`
	r := MustParse(src)
	tg := r.Program.TGDs[0]
	if len(tg.Head) != 2 {
		t.Fatalf("head atoms = %d, want 2", len(tg.Head))
	}
	if len(tg.Existentials()) != 1 {
		t.Fatalf("W should be existential")
	}
}

func TestDontCareVariables(t *testing.T) {
	src := `pair(X,U) :- row(_, X, _, U).`
	r, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	b := r.Program.TGDs[0].Body[0]
	if b.Args[0] == b.Args[2] {
		t.Fatalf("two _ occurrences must be distinct variables")
	}
	if !b.Args[0].IsVar() || !b.Args[2].IsVar() {
		t.Fatalf("_ must parse as variables")
	}
}

func TestUnderscorePrefixedVariable(t *testing.T) {
	src := `p(X) :- q(X, _ignored, _ignored).`
	r := MustParse(src)
	b := r.Program.TGDs[0].Body[0]
	if b.Args[1] != b.Args[2] {
		t.Fatalf("named underscore variables with the same name must coincide")
	}
}

func TestStringsAndIntegers(t *testing.T) {
	src := `
price("widget", 42).
price("gad\"get", -7).
`
	r, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(r.Facts) != 2 {
		t.Fatalf("facts = %d", len(r.Facts))
	}
	st := r.Program.Store
	if st.Name(r.Facts[0].Args[0]) != "widget" || st.Name(r.Facts[0].Args[1]) != "42" {
		t.Fatalf("string/int constants wrong: %v", st.Names(r.Facts[0].Args))
	}
	if st.Name(r.Facts[1].Args[0]) != `gad"get` {
		t.Fatalf("escape not handled: %q", st.Name(r.Facts[1].Args[0]))
	}
	if st.Name(r.Facts[1].Args[1]) != "-7" {
		t.Fatalf("negative int: %q", st.Name(r.Facts[1].Args[1]))
	}
}

func TestBooleanQuery(t *testing.T) {
	src := `? :- ctiling(X,Y), finish(Y).`
	r := MustParse(src)
	if len(r.Queries) != 1 || !r.Queries[0].IsBoolean() {
		t.Fatalf("boolean query not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unterminated string", `p("abc`, "unterminated"},
		{"bad colon", `p(X) : q(X).`, `found ": "`},
		{"colon at end of input", `p(a) :`, "expected ':-', found end of input"},
		{"missing dot", `p(X) :- q(X)`, "expected"},
		{"fact with variable", `p(X).`, "variable"},
		{"arity clash", "p(a,b).\np(a).", "arity"},
		{"const in rule", `p(X) :- q(X, a).`, "constants are not allowed"},
		{"output var not in body", `?(Y) :- p(X).`, "output variable"},
		{"stray char", `p(X) :- q(X) & r(X).`, "unexpected character"},
		{"lone term", `p(X) q(X).`, "expected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), c.want)
			}
		})
	}
}

func TestParseIntoSharedContext(t *testing.T) {
	r1 := MustParse(`e(a,b).`)
	r2, err := ParseInto(r1.Program, `t(X,Y) :- e(X,Y).`)
	if err != nil {
		t.Fatalf("ParseInto: %v", err)
	}
	if len(r2.Program.TGDs) != 1 {
		t.Fatalf("TGDs = %d", len(r2.Program.TGDs))
	}
	// Predicate e must be shared.
	id1 := r1.Facts[0].Pred
	id2 := r2.Program.TGDs[0].Body[0].Pred
	if id1 != id2 {
		t.Fatalf("predicate e not shared across ParseInto")
	}
}

func TestRoundTripThroughString(t *testing.T) {
	src := `
subclassS(X,Y) :- subclass(X,Y).
subclassS(X,Z) :- subclassS(X,Y), subclass(Y,Z).
type(X,Z) :- type(X,Y), subclassS(Y,Z).
triple(X,Z,W) :- type(X,Y), restriction(Y,Z).
`
	r := MustParse(src)
	rendered := r.Program.String()
	r2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of rendered program failed: %v\n%s", err, rendered)
	}
	if len(r2.Program.TGDs) != len(r.Program.TGDs) {
		t.Fatalf("round trip changed TGD count")
	}
	for i := range r.Program.TGDs {
		a, b := r.Program.TGDs[i], r2.Program.TGDs[i]
		if len(a.Body) != len(b.Body) || len(a.Head) != len(b.Head) {
			t.Fatalf("round trip changed shape of TGD %d", i)
		}
		if len(a.Existentials()) != len(b.Existentials()) {
			t.Fatalf("round trip changed quantification of TGD %d", i)
		}
	}
}

func TestNullaryAtomRejectedGracefully(t *testing.T) {
	// Zero-arity atoms are permitted syntactically: q() in head position.
	src := `goal() :- p(X).`
	r, err := Parse(src)
	if err != nil {
		t.Fatalf("nullary atom: %v", err)
	}
	if len(r.Program.TGDs[0].Head[0].Args) != 0 {
		t.Fatalf("nullary atom has args")
	}
}

func TestFactDedupNotApplied(t *testing.T) {
	// The parser preserves duplicates; dedup is the storage layer's job.
	r := MustParse(`e(a,b). e(a,b).`)
	if len(r.Facts) != 2 {
		t.Fatalf("parser should not dedup facts")
	}
	if !r.Facts[0].Equal(r.Facts[1]) {
		t.Fatalf("identical facts differ")
	}
}

func TestLargeProgramParses(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 500; i++ {
		b.WriteString("p")
		b.WriteString(strings.Repeat("x", i%5))
		b.WriteString("(X,Y) :- e(X,Y).\n")
	}
	r, err := Parse(b.String())
	if err != nil {
		t.Fatalf("large program: %v", err)
	}
	if len(r.Program.TGDs) != 500 {
		t.Fatalf("TGDs = %d", len(r.Program.TGDs))
	}
}

func TestQueryWithConstantOutput(t *testing.T) {
	src := `?(X,b) :- e(X,Y), f(Y,b).`
	r, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	q := r.Queries[0]
	if !q.Output[1].IsConst() {
		t.Fatalf("constant output term should parse")
	}
	_ = atom.VarSet(q.Atoms)
}

// TestNonASCIISource: names with non-ASCII letters and digits lex whole,
// positions count runes, not bytes, and a predicate name the registry
// keeps does not share the source's bytes.
func TestNonASCIISource(t *testing.T) {
	r, err := Parse("préféré(wörld, ١٢).\n")
	if err != nil {
		t.Fatal(err)
	}
	f := r.Facts[0]
	if got := r.Program.Reg.Name(f.Pred); got != "préféré" {
		t.Fatalf("predicate %q", got)
	}
	if got := r.Program.Store.Names(f.Args); got[0] != "wörld" || got[1] != "١٢" {
		t.Fatalf("arguments %q", got)
	}
	for src, want := range map[string]string{
		"p(é). ü":        "1:8:",
		"p(ö).\nqü(ä) &": "2:7:",
		"ü(a) : q(a).":   "1:6:",
	} {
		if _, err := Parse(src); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error at %s", src, err, want)
		}
	}
	src := strings.Repeat(" ", 1<<10) + "kept(a)."
	r = MustParse(src)
	name := r.Program.Reg.Name(r.Facts[0].Pred)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(name))); p >= lo && p < lo+uintptr(len(src)) {
		t.Fatal("the registry keeps a name inside the program text")
	}
}
