package atom

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/term"
)

type ctx struct {
	st  *term.Store
	reg *schema.Registry
}

func newCtx() *ctx {
	return &ctx{st: term.NewStore(), reg: schema.NewRegistry()}
}

func (c *ctx) atom(pred string, args ...string) Atom {
	ts := make([]term.Term, len(args))
	for i, a := range args {
		if a == "" {
			panic("empty arg")
		}
		if a[0] >= 'A' && a[0] <= 'Z' {
			ts[i] = c.st.Var(a)
		} else if a[0] == '_' {
			ts[i], _ = c.st.FreshNull()
		} else {
			ts[i] = c.st.Const(a)
		}
	}
	return New(c.reg.Intern(pred, len(args)), ts...)
}

func TestAtomBasics(t *testing.T) {
	c := newCtx()
	a := c.atom("edge", "x1", "x2")
	b := c.atom("edge", "x1", "x2")
	d := c.atom("edge", "x1", "x3")
	if !a.Equal(b) {
		t.Errorf("equal atoms not Equal")
	}
	if a.Equal(d) {
		t.Errorf("distinct atoms Equal")
	}
	if !a.IsGround() {
		t.Errorf("const atom should be ground")
	}
	v := c.atom("edge", "X", "x2")
	if v.IsGround() {
		t.Errorf("atom with var is not ground")
	}
	n := c.atom("edge", "_", "x2")
	if !n.IsGround() {
		t.Errorf("atom with null is ground")
	}
}

func TestAtomClone(t *testing.T) {
	c := newCtx()
	a := c.atom("p", "x", "Y")
	b := a.Clone()
	b.Args[0] = c.st.Const("z")
	if a.Args[0] == b.Args[0] {
		t.Fatalf("Clone shares argument storage")
	}
}

func TestAtomHashConsistency(t *testing.T) {
	c := newCtx()
	a := c.atom("p", "x", "Y")
	b := c.atom("p", "x", "Y")
	if a.Hash() != b.Hash() {
		t.Errorf("equal atoms with different hashes")
	}
	d := c.atom("p", "Y", "x")
	if a.Hash() == d.Hash() {
		t.Errorf("hash should distinguish argument order (probabilistically)")
	}
}

func TestAtomString(t *testing.T) {
	c := newCtx()
	a := c.atom("edge", "a", "X")
	if got := a.String(c.st, c.reg); got != "edge(a,X)" {
		t.Errorf("String = %q", got)
	}
}

func TestVarsAndSets(t *testing.T) {
	c := newCtx()
	a := c.atom("p", "X", "a", "Y")
	vs := a.Vars(nil)
	if len(vs) != 2 {
		t.Fatalf("Vars len = %d", len(vs))
	}
	set := VarSet([]Atom{a, c.atom("q", "X", "Z")})
	if len(set) != 3 {
		t.Fatalf("VarSet size = %d, want 3", len(set))
	}
}

func TestSubstApplyChain(t *testing.T) {
	c := newCtx()
	x, y := c.st.Var("X"), c.st.Var("Y")
	a := c.st.Const("a")
	s := NewSubst()
	s[x] = y
	s[y] = a
	if got := s.Apply(x); got != a {
		t.Fatalf("chain resolution failed: %v", got)
	}
	// Cycle must not loop forever.
	s2 := NewSubst()
	s2[x] = y
	s2[y] = x
	_ = s2.Apply(x)
}

func TestSubstBind(t *testing.T) {
	c := newCtx()
	x := c.st.Var("X")
	a, b := c.st.Const("a"), c.st.Const("b")
	s := NewSubst()
	if !s.Bind(x, a) {
		t.Fatalf("Bind(X,a) failed")
	}
	if !s.Bind(x, a) {
		t.Fatalf("Bind(X,a) not idempotent")
	}
	if s.Bind(x, b) {
		t.Fatalf("Bind(X,b) should conflict with X=a")
	}
	if s.Bind(a, b) {
		t.Fatalf("Bind(a,b) on distinct constants should fail")
	}
	if !s.Bind(a, a) {
		t.Fatalf("Bind(a,a) should succeed")
	}
}
