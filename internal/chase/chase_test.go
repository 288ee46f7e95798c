package chase

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/term"
)

func run(t *testing.T, src string, opt Options) (*parser.Result, *Result) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	res, err := Run(r.Program, db, opt)
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	return r, res
}

func names(r *parser.Result, tuples [][]term.Term) []string {
	var out []string
	for _, tup := range tuples {
		out = append(out, joinNames(r, tup))
	}
	return out
}

func joinNames(r *parser.Result, tup []term.Term) string {
	s := ""
	for i, t := range tup {
		if i > 0 {
			s += ","
		}
		s += r.Program.Store.Name(t)
	}
	return s
}

func TestDatalogFixpointTransitiveClosure(t *testing.T) {
	r, res := run(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b). e(b,c). e(c,d).
?(X,Y) :- t(X,Y).
`, Default())
	ans := plan.EvalCQ(res.DB, r.Queries[0])
	if len(ans) != 6 {
		t.Fatalf("TC answers = %d, want 6: %v", len(ans), names(r, ans))
	}
	if res.Truncated {
		t.Fatalf("finite Datalog chase truncated")
	}
}

func TestSemiNaiveFindsLateJoins(t *testing.T) {
	// The join rule needs t-facts from different rounds in both positions.
	r, res := run(t, `
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
e(a,b). e(b,c). e(c,d). e(d,e1). e(e1,f).
?(X,Y) :- t(X,Y).
`, Default())
	ans := plan.EvalCQ(res.DB, r.Queries[0])
	if len(ans) != 15 {
		t.Fatalf("TC (assoc) answers = %d, want 15", len(ans))
	}
}

func TestExistentialInventsNull(t *testing.T) {
	r, res := run(t, `
r(X,Z) :- p(X).
p(a).
?(X) :- r(a,X).
`, Default())
	// The null is not a constant answer; but the boolean projection holds.
	ans := plan.EvalCQ(res.DB, r.Queries[0])
	if len(ans) != 0 {
		t.Fatalf("null leaked as answer: %v", names(r, ans))
	}
	rq, err := parser.ParseInto(r.Program, `? :- r(a,X).`)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.EvalCQ(res.DB, rq.Queries[0]); len(got) != 1 {
		t.Fatalf("boolean query should hold")
	}
	if res.MaxNullDepth != 1 {
		t.Fatalf("MaxNullDepth = %d, want 1", res.MaxNullDepth)
	}
}

func TestRestrictedChaseSuppressesSatisfiedHeads(t *testing.T) {
	// r(a,b) already satisfies the head for p(a); restricted chase must not
	// invent a null.
	r, res := run(t, `
r(X,Z) :- p(X).
p(a). r(a,b).
`, Options{Restricted: true, MaxRounds: 100})
	if res.DB.Len() != 2 {
		t.Fatalf("restricted chase added facts: %d", res.DB.Len())
	}
	if res.SuppressedRestricted == 0 {
		t.Fatalf("restricted suppression not counted")
	}
	_ = r
}

func TestObliviousChaseFiresAnyway(t *testing.T) {
	_, res := run(t, `
r(X,Z) :- p(X).
p(a). r(a,b).
`, Options{Restricted: false, MaxRounds: 100})
	if res.DB.Len() != 3 {
		t.Fatalf("semi-oblivious chase should add one null fact: %d", res.DB.Len())
	}
}

func TestTerminationControlOnInfiniteChase(t *testing.T) {
	// p(x) → ∃z r(x,z); r(x,y) → p(y): infinite without control.
	r, res := run(t, `
r(X,Z) :- p(X).
p(Y) :- r(X,Y).
p(a).
?(X) :- p(X).
`, Options{Restricted: true, TriggerMemo: true, MaxRounds: 1000, MaxFacts: 100000})
	if res.Truncated {
		t.Fatalf("termination control failed to stop the chase (facts=%d)", res.DB.Len())
	}
	// Certain answers: only p(a) among constants.
	ans := plan.EvalCQ(res.DB, r.Queries[0])
	if len(ans) != 1 || joinNames(r, ans[0]) != "a" {
		t.Fatalf("answers = %v", names(r, ans))
	}
	if res.SuppressedByMemo == 0 {
		t.Fatalf("memo should have suppressed the recursion")
	}
	if res.MemoPatterns == 0 {
		t.Fatalf("memo pattern count missing")
	}
}

func TestWithoutControlTruncates(t *testing.T) {
	_, res := run(t, `
r(X,Z) :- p(X).
p(Y) :- r(X,Y).
p(a).
`, Options{Restricted: true, MaxFacts: 50, MaxRounds: 1000})
	if !res.Truncated {
		t.Fatalf("unbounded chase must hit the fact budget")
	}
}

func TestMaxDepthBoundsNullCascade(t *testing.T) {
	_, res := run(t, `
r(X,Z) :- p(X).
p(Y) :- r(X,Y).
p(a).
`, Options{Restricted: true, MaxDepth: 3, MaxRounds: 1000, MaxFacts: 100000})
	if res.Truncated {
		t.Fatalf("depth-bounded chase should terminate cleanly")
	}
	if res.MaxNullDepth > 3 {
		t.Fatalf("depth bound violated: %d", res.MaxNullDepth)
	}
	if res.SuppressedDepth == 0 {
		t.Fatalf("depth suppression not counted")
	}
}

func TestMultiHeadSharedNull(t *testing.T) {
	r, res := run(t, `
r(X,Z), s(Z) :- p(X).
p(a).
? :- r(X,Y), s(Y).
`, Default())
	// The same fresh null must appear in both head atoms.
	if got := plan.EvalCQ(res.DB, r.Queries[0]); len(got) != 1 {
		t.Fatalf("shared-null join failed")
	}
}

func TestOWL2QLExampleChase(t *testing.T) {
	// Example 3.3 with a tiny ontology: person ⊑ agent, alice:person,
	// person ⊑ ∃hasId (restriction), hasId inverse idOf.
	r, res := run(t, `
subclassS(X,Y) :- subclass(X,Y).
subclassS(X,Z) :- subclassS(X,Y), subclass(Y,Z).
type(X,Z) :- type(X,Y), subclassS(Y,Z).
triple(X,Z,W) :- type(X,Y), restriction(Y,Z).
triple(Z,W,X) :- triple(X,Y,Z), inverse(Y,W).
type(X,W) :- triple(X,Y,Z), restriction(W,Y).

subclass(person, agent).
subclass(agent, entity).
type(alice, person).
restriction(person, hasId).
restriction(idcarrier, hasId).
inverse(hasId, idOf).

?(X) :- type(alice, X).
`, Default())
	if res.Truncated {
		t.Fatalf("OWL example chase truncated")
	}
	ans := plan.EvalCQ(res.DB, r.Queries[0])
	got := map[string]bool{}
	for _, a := range ans {
		got[joinNames(r, a)] = true
	}
	// alice : person (asserted), agent and entity (subclass closure),
	// idcarrier (via the restriction/inverse existential dance:
	// type(alice,person), restriction(person,hasId) → triple(alice,hasId,w);
	// restriction(idcarrier,hasId) → type(alice,idcarrier)).
	for _, want := range []string{"person", "agent", "entity", "idcarrier"} {
		if !got[want] {
			t.Errorf("missing type %s; got %v", want, got)
		}
	}
}

func TestProvenanceRecorded(t *testing.T) {
	_, res := run(t, `
t(X,Y) :- e(X,Y).
e(a,b).
`, Options{Restricted: true, Provenance: true, MaxRounds: 10})
	if len(res.Prov) != 1 {
		t.Fatalf("provenance entries = %d, want 1", len(res.Prov))
	}
	for _, d := range res.Prov {
		if d.TGD != 0 || len(d.Trigger) != 1 {
			t.Fatalf("derivation wrong: %+v", d)
		}
	}
}

func TestCertainAnswersHelper(t *testing.T) {
	r, err := parser.Parse(`
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b). e(b,c).
?(X) :- t(a,X).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	ans, res, err := CertainAnswers(r.Program, db, r.Queries[0], Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("answers = %d, want 2", len(ans))
	}
	if res.Rounds == 0 {
		t.Fatalf("no rounds recorded")
	}
	// Input DB untouched.
	if db.Len() != 2 {
		t.Fatalf("input DB mutated: %d", db.Len())
	}
}

func TestEmptyProgramChase(t *testing.T) {
	r, err := parser.Parse(`e(a,b).`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	res, err := Run(r.Program, db, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Len() != 1 {
		t.Fatalf("empty program changed DB")
	}
}
