package atom

import (
	"testing"

	"repro/internal/term"
)

// TestCanonicalAllocs: a warmed canonicalizer allocates the renamed atoms,
// their one argument backing and the key, and nothing else — no
// signatures, no rank maps, no interning.
func TestCanonicalAllocs(t *testing.T) {
	c := newCtx()
	state := []Atom{
		c.atom("q", "Y", "Z", "a"),
		c.atom("p", "X", "Y"),
		c.atom("p", "Y", "X"),
		c.atom("r", "Z"),
	}
	cz := NewCanonicalizer(c.st, nil)
	cz.Canonical(state) // warm: scratch and the v0, v1, v2 pool
	if n := testing.AllocsPerRun(100, func() { cz.Canonical(state) }); n > 3 {
		t.Fatalf("Canonical of a 4-atom state: %.1f allocs, want <= 3", n)
	}
}

// TestCanonicalKeyShape: the key is 4 bytes per predicate and per
// argument, and the renamed state uses the pool v0, v1, ... in rank order.
func TestCanonicalKeyShape(t *testing.T) {
	c := newCtx()
	state := []Atom{c.atom("e", "B", "C"), c.atom("e", "A", "B"), c.atom("f", "C", "k")}
	got, key := NewCanonicalizer(c.st, nil).Canonical(state)
	if want := 4 * (3 + 6); len(key) != want {
		t.Fatalf("key is %d bytes, want %d", len(key), want)
	}
	v := func(name string) term.Term { return c.st.Var(name) }
	for _, a := range got {
		for _, x := range a.Args {
			if x.IsVar() && x != v("v0") && x != v("v1") && x != v("v2") {
				t.Fatalf("renamed state has a variable outside the pool: %s", c.st.Name(x))
			}
		}
	}
	// Renaming into names the input already uses is flat: a state over
	// v1, v0 canonicalizes like one over X, Y.
	e := c.reg.Intern("e", 2)
	_, k1 := NewCanonicalizer(c.st, nil).Canonical([]Atom{New(e, v("v1"), v("v0"))})
	_, k2 := NewCanonicalizer(c.st, nil).Canonical([]Atom{c.atom("e", "X", "Y")})
	if k1 != k2 {
		t.Fatalf("pool names in the input changed the key")
	}
}

// TestCanonicalKeyInOrder: Key keeps the atoms' order and ranks nulls by
// first occurrence; constants and variables stay rigid.
func TestCanonicalKeyInOrder(t *testing.T) {
	c := newCtx()
	cz := NewNullCanonicalizer()
	n := []term.Term{term.MkNull(7), term.MkNull(3), term.MkNull(9)}
	r := c.reg.Intern("r", 2)
	a, b := c.st.Const("a"), c.st.Const("b")
	k := func(atoms ...Atom) string { return cz.Key(atoms) }
	if k(New(r, a, n[0]), New(r, n[0], n[1])) != k(New(r, a, n[2]), New(r, n[2], n[0])) {
		t.Fatalf("images equal up to null renaming got different keys")
	}
	if k(New(r, a, n[0]), New(r, n[0], n[1])) == k(New(r, n[0], n[1]), New(r, a, n[0])) {
		t.Fatalf("Key reordered its atoms")
	}
	if k(New(r, a, n[0])) == k(New(r, b, n[0])) {
		t.Fatalf("constants must stay rigid")
	}
	x, y := c.st.Var("X"), c.st.Var("Y")
	if k(New(r, x, n[0])) == k(New(r, y, n[0])) {
		t.Fatalf("variables must stay rigid in a null canonicalizer")
	}
}
