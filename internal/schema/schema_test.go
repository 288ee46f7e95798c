package schema

import "testing"

func TestInternStable(t *testing.T) {
	r := NewRegistry()
	p := r.Intern("edge", 2)
	q := r.Intern("node", 1)
	p2 := r.Intern("edge", 2)
	if p != p2 {
		t.Errorf("re-intern changed ID: %d vs %d", p, p2)
	}
	if p == q {
		t.Errorf("distinct predicates share ID")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if r.Name(p) != "edge" || r.Arity(p) != 2 {
		t.Errorf("Name/Arity wrong: %s/%d", r.Name(p), r.Arity(p))
	}
}

func TestInternArityMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Intern("p", 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on arity mismatch")
		}
	}()
	r.Intern("p", 3)
}

func TestCheckArity(t *testing.T) {
	r := NewRegistry()
	r.Intern("p", 2)
	if !r.CheckArity("p", 2) {
		t.Errorf("CheckArity(p,2) = false")
	}
	if r.CheckArity("p", 3) {
		t.Errorf("CheckArity(p,3) = true")
	}
	if !r.CheckArity("unknown", 7) {
		t.Errorf("CheckArity(unknown) = false")
	}
}

func TestLookup(t *testing.T) {
	r := NewRegistry()
	p := r.Intern("p", 1)
	got, ok := r.Lookup("p")
	if !ok || got != p {
		t.Fatalf("Lookup(p) = %v,%v", got, ok)
	}
	if _, ok := r.Lookup("q"); ok {
		t.Fatalf("Lookup(q) should fail")
	}
}

func TestPositions(t *testing.T) {
	r := NewRegistry()
	p := r.Intern("triple", 3)
	ps := r.Positions(p)
	if len(ps) != 3 {
		t.Fatalf("Positions len = %d", len(ps))
	}
	for i, pos := range ps {
		if pos.Pred != p || pos.Index != i {
			t.Errorf("position %d = %+v", i, pos)
		}
	}
	if s := r.PositionString(ps[0]); s != "triple[1]" {
		t.Errorf("PositionString = %q, want triple[1] (1-based)", s)
	}
}

func TestFallbackNames(t *testing.T) {
	r := NewRegistry()
	if r.Name(PredID(42)) == "" {
		t.Errorf("Name of unknown predicate should not be empty")
	}
	if r.Arity(PredID(42)) != -1 {
		t.Errorf("Arity of unknown predicate should be -1")
	}
}

func TestSortedNames(t *testing.T) {
	r := NewRegistry()
	r.Intern("zeta", 1)
	r.Intern("alpha", 1)
	names := r.SortedNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("SortedNames = %v", names)
	}
}
