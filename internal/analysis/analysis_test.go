package analysis

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/schema"
)

// owl2ql is Example 3.3 from the paper: the warded (and piece-wise linear)
// fragment of the OWL 2 QL entailment encoding.
const owl2ql = `
subclassS(X,Y) :- subclass(X,Y).
subclassS(X,Z) :- subclassS(X,Y), subclass(Y,Z).
type(X,Z) :- type(X,Y), subclassS(Y,Z).
triple(X,Z,W) :- type(X,Y), restriction(Y,Z).
triple(Z,W,X) :- triple(X,Y,Z), inverse(Y,W).
type(X,W) :- triple(X,Y,Z), restriction(W,Y).
`

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(r.Program)
}

func pred(t *testing.T, a *Analysis, name string) schema.PredID {
	t.Helper()
	id, ok := a.Prog.Reg.Lookup(name)
	if !ok {
		t.Fatalf("predicate %s not found", name)
	}
	return id
}

func TestPredicateGraphAndMutualRecursion(t *testing.T) {
	a := analyze(t, owl2ql)
	sub := pred(t, a, "subclass")
	subS := pred(t, a, "subclassS")
	typ := pred(t, a, "type")
	tri := pred(t, a, "triple")

	if !a.Graph.HasEdge(sub, subS) {
		t.Errorf("missing edge subclass -> subclassS")
	}
	if !a.Graph.MutuallyRecursive(subS, subS) {
		t.Errorf("subclassS is on a self-loop, mutually recursive with itself")
	}
	if !a.Graph.MutuallyRecursive(typ, tri) || !a.Graph.MutuallyRecursive(tri, typ) {
		t.Errorf("type and triple lie on a common cycle")
	}
	if a.Graph.MutuallyRecursive(sub, subS) {
		t.Errorf("subclass (EDB) is not recursive with subclassS")
	}
	if a.Graph.MutuallyRecursive(subS, typ) {
		t.Errorf("subclassS and type are in different SCCs")
	}
	if a.Graph.MutuallyRecursive(sub, sub) {
		t.Errorf("subclass is not on a cycle")
	}
}

func TestAffectedPositionsOWL(t *testing.T) {
	a := analyze(t, owl2ql)
	typ := pred(t, a, "type")
	tri := pred(t, a, "triple")
	sub := pred(t, a, "subclass")

	// Paper: frontier variables at Type[1], Triple[1], Triple[3] are
	// dangerous; those positions (plus nothing else relevant) are affected.
	wantAffected := []schema.Position{
		{Pred: tri, Index: 2}, // Triple[3]: existential W of rule 4
		{Pred: tri, Index: 0}, // Triple[1]
		{Pred: typ, Index: 0}, // Type[1]
	}
	for _, pos := range wantAffected {
		if !a.Affected[pos] {
			t.Errorf("position %s should be affected", a.Prog.Reg.PositionString(pos))
		}
	}
	wantNot := []schema.Position{
		{Pred: tri, Index: 1}, // Triple[2] carries property names
		{Pred: typ, Index: 1},
		{Pred: sub, Index: 0},
		{Pred: sub, Index: 1},
	}
	for _, pos := range wantNot {
		if a.Affected[pos] {
			t.Errorf("position %s should NOT be affected", a.Prog.Reg.PositionString(pos))
		}
	}
}

func TestVariableClassificationOWL(t *testing.T) {
	a := analyze(t, owl2ql)
	// Rule 3: type(X,Z) :- type(X,Y), subclassS(Y,Z).
	r3 := a.Prog.TGDs[2]
	x := r3.Body[0].Args[0]
	y := r3.Body[0].Args[1]
	if got := a.ClassifyVar(r3, x); got != Dangerous {
		t.Errorf("X in rule 3 should be dangerous, got %v", got)
	}
	if got := a.ClassifyVar(r3, y); got != Harmless {
		t.Errorf("Y in rule 3 should be harmless, got %v", got)
	}
	danger := a.DangerousVars(r3)
	if len(danger) != 1 || !danger[x] {
		t.Errorf("DangerousVars(rule3) = %v", danger)
	}
	// Rule 5: triple(Z,W,X) :- triple(X,Y,Z), inverse(Y,W): X and Z dangerous.
	r5 := a.Prog.TGDs[4]
	if len(a.DangerousVars(r5)) != 2 {
		t.Errorf("rule 5 should have 2 dangerous vars, got %v", a.DangerousVars(r5))
	}
	// Its ward is the triple body atom (index 0).
	w, ok := a.Ward(r5)
	if !ok || w != 0 {
		t.Errorf("Ward(rule5) = %d,%v; want 0,true", w, ok)
	}
}

func TestOWLIsWardedAndPWL(t *testing.T) {
	a := analyze(t, owl2ql)
	if ok, vs := a.IsWarded(); !ok {
		t.Errorf("Example 3.3 must be warded; violations: %v", vs)
	}
	if ok, vs := a.IsPWL(); !ok {
		t.Errorf("Example 3.3 must be piece-wise linear; violations: %v", vs)
	}
	if a.IsIL() {
		t.Errorf("rule 3 has two intensional body atoms; not IL")
	}
}

func TestNonWardedProgram(t *testing.T) {
	// z is dangerous in the join rule and occurs in both body atoms at
	// affected positions only — no ward can exist.
	a := analyze(t, `
r(X,Z) :- p(X).
q(Z) :- r(X,Z), r(Y,Z).
`)
	if ok, _ := a.IsWarded(); ok {
		t.Errorf("harmful join must break wardedness")
	}
	if ok, _ := a.IsPWL(); !ok {
		t.Errorf("the program is still piece-wise linear (no recursion at all)")
	}
}

func TestSimpleExistentialRecursionIsWarded(t *testing.T) {
	// The intro example: P(x) → ∃z R(x,z); R(x,y) → P(y). Single-atom
	// bodies ward themselves.
	a := analyze(t, `
r(X,Z) :- p(X).
p(Y) :- r(X,Y).
`)
	if ok, vs := a.IsWarded(); !ok {
		t.Errorf("single-body-atom rules are always warded: %v", vs)
	}
	// And the y variable is indeed dangerous (it unifies with nulls).
	r2 := a.Prog.TGDs[1]
	y := r2.Body[0].Args[1]
	if a.ClassifyVar(r2, y) != Dangerous {
		t.Errorf("y should be dangerous")
	}
}

func TestNonPWLTransitiveClosure(t *testing.T) {
	a := analyze(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
`)
	if ok, _ := a.IsPWL(); ok {
		t.Errorf("associative TC has two recursive body atoms")
	}
	if ok, _ := a.IsWarded(); !ok {
		t.Errorf("associative TC is warded (it is plain Datalog)")
	}
	if !a.IsFullSingleHead() {
		t.Errorf("TC is a Datalog program")
	}
	if a.IsLinearDatalog() {
		t.Errorf("associative TC is not linear")
	}
	idx := a.RecursiveBodyAtoms(a.Prog.TGDs[1])
	if len(idx) != 2 {
		t.Errorf("RecursiveBodyAtoms = %v", idx)
	}
}

func TestLinearTCIsPWLAndLinear(t *testing.T) {
	a := analyze(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
`)
	if ok, _ := a.IsPWL(); !ok {
		t.Errorf("linear TC is PWL")
	}
	if !a.IsLinearDatalog() {
		t.Errorf("linear TC is linear Datalog")
	}
	if !a.IsIL() {
		t.Errorf("linear TC is IL")
	}
}

func TestLevels(t *testing.T) {
	a := analyze(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
s(X,Y) :- t(X,Y).
u(X) :- s(X,Y), t(X,X).
`)
	e := pred(t, a, "e")
	tt := pred(t, a, "t")
	s := pred(t, a, "s")
	u := pred(t, a, "u")
	if got := a.Level(e); got != 1 {
		t.Errorf("level(e) = %d, want 1", got)
	}
	if got := a.Level(tt); got != 2 {
		t.Errorf("level(t) = %d, want 2", got)
	}
	if got := a.Level(s); got != 3 {
		t.Errorf("level(s) = %d, want 3", got)
	}
	if got := a.Level(u); got != 4 {
		t.Errorf("level(u) = %d, want 4", got)
	}
	if a.MaxLevel() != 4 {
		t.Errorf("MaxLevel = %d", a.MaxLevel())
	}
	strata := a.Strata()
	if len(strata) != 4 || len(strata[0]) != 1 || strata[0][0] != e {
		t.Errorf("Strata wrong: %v", strata)
	}
}

func TestLevelsSharedWithinSCC(t *testing.T) {
	a := analyze(t, owl2ql)
	typ := pred(t, a, "type")
	tri := pred(t, a, "triple")
	if a.Level(typ) != a.Level(tri) {
		t.Errorf("mutually recursive predicates must share a level: %d vs %d",
			a.Level(typ), a.Level(tri))
	}
	subS := pred(t, a, "subclassS")
	if !(a.Level(subS) < a.Level(typ)) {
		t.Errorf("subclassS feeds type; level must be strictly smaller")
	}
}

func TestClassifyReport(t *testing.T) {
	r := parser.MustParse(`
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
`)
	c := Classify(r.Program)
	if c.PWL {
		t.Errorf("associative TC classified PWL")
	}
	if !c.Warded || !c.Datalog {
		t.Errorf("TC should be warded Datalog: %+v", c)
	}
	if !c.Linearizable {
		t.Errorf("associative TC is linearizable (paper §1.2)")
	}
	if c.NumTGDs != 2 {
		t.Errorf("NumTGDs = %d", c.NumTGDs)
	}
}

func TestEmptyProgram(t *testing.T) {
	r := parser.MustParse(``)
	a := Analyze(r.Program)
	if ok, _ := a.IsWarded(); !ok {
		t.Errorf("empty program is warded")
	}
	if ok, _ := a.IsPWL(); !ok {
		t.Errorf("empty program is PWL")
	}
	if a.MaxLevel() != 0 {
		t.Errorf("MaxLevel of empty program = %d", a.MaxLevel())
	}
	if a.Strata() != nil {
		t.Errorf("Strata of empty program should be nil")
	}
}
