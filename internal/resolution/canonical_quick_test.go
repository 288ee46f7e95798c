package resolution

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

// TestCanonicalDistinguishesMerges checks that identifying two distinct
// variables (when they both occur) changes the canonical key.
func TestCanonicalDistinguishesMerges(t *testing.T) {
	st := term.NewStore()
	reg := schema.NewRegistry()
	p := reg.Intern("mp", 2)
	x, y := st.Var("MX"), st.Var("MY")
	s := NewState([]atom.Atom{atom.New(p, x, y)})
	_, k1 := Canonical(s, atom.NewCanonicalizer(st, nil))
	merged := State{Atoms: ApplyFlat(map[term.Term]term.Term{y: x}, s.Atoms)}
	_, k2 := Canonical(merged, atom.NewCanonicalizer(st, nil))
	if k1 == k2 {
		t.Fatalf("merging variables should change the canonical key")
	}
}

// TestApplyFlatNoChains guards against the chain-following bug: a renaming
// whose target names occur in the input must be applied in one step.
func TestApplyFlatNoChains(t *testing.T) {
	st := term.NewStore()
	reg := schema.NewRegistry()
	p := reg.Intern("fp", 2)
	x, v0, v1 := st.Var("FX"), st.Var("v0"), st.Var("v1")
	// x -> v0, v0 -> v1: x and v0 must stay DISTINCT after renaming.
	in := []atom.Atom{atom.New(p, x, v0)}
	out := ApplyFlat(map[term.Term]term.Term{x: v0, v0: v1}, in)
	if out[0].Args[0] != v0 || out[0].Args[1] != v1 {
		t.Fatalf("flat application broken: got %v,%v", out[0].Args[0], out[0].Args[1])
	}
	if out[0].Args[0] == out[0].Args[1] {
		t.Fatalf("chain following conflated distinct variables")
	}
}
