package logic

import "testing"

// TestCloneContextIndependence: a cloned naming context (Store.Clone,
// Registry.Clone) keeps every term and predicate ID valid and interns
// independently of the original.
func TestCloneContextIndependence(t *testing.T) {
	p := NewProgram()
	x := p.Store.Var("X")
	e := p.Reg.Intern("e", 2)
	store, reg := p.Store.Clone(), p.Reg.Clone()

	// IDs remain valid: names render identically.
	if store.Name(x) != p.Store.Name(x) {
		t.Fatalf("clone renamed a variable")
	}
	if reg.Name(e) != p.Reg.Name(e) {
		t.Fatalf("clone renamed a predicate")
	}
	// New interning in the clone must not leak into the original.
	before := p.Store.NumVars()
	store.Var("OnlyInClone")
	if p.Store.NumVars() != before {
		t.Fatalf("clone shares variable table")
	}
	reg.Intern("only_in_clone", 1)
	if _, ok := p.Reg.Lookup("only_in_clone"); ok {
		t.Fatalf("clone shares predicate table")
	}
	// And vice versa.
	p.Store.Var("OnlyInOriginal")
	if _, ok := store.HasConst("OnlyInOriginal"); ok {
		t.Fatalf("const/var confusion in clone")
	}
	// Null counters advance independently.
	n1 := p.Store.FreshNull()
	n2 := store.FreshNull()
	if n1 != n2 {
		t.Fatalf("null counters should start from the same point: %v vs %v", n1, n2)
	}
}

func TestStoreCloneFreshVarNoClash(t *testing.T) {
	p := NewProgram()
	for i := 0; i < 5; i++ {
		p.Store.FreshVar("w")
	}
	c := p.Store.Clone()
	v1 := p.Store.FreshVar("w")
	v2 := c.FreshVar("w")
	// Same name is fine (separate tables) — but each must be fresh within
	// its own store.
	if p.Store.Name(v1) == "" || c.Name(v2) == "" {
		t.Fatalf("fresh vars unnamed")
	}
}
