package atom

import (
	"math/rand"
	"testing"

	"repro/internal/term"
)

func TestUnifyTermsBasic(t *testing.T) {
	c := newCtx()
	x := c.st.Var("X")
	a, b := c.st.Const("a"), c.st.Const("b")
	s := NewSubst()
	if !UnifyTerms(s, x, a) {
		t.Fatalf("var-const unify failed")
	}
	if s.Apply(x) != a {
		t.Fatalf("binding lost")
	}
	if UnifyTerms(s, x, b) {
		t.Fatalf("X already bound to a, must not unify with b")
	}
	if !UnifyTerms(s, a, a) {
		t.Fatalf("const self-unify failed")
	}
	if UnifyTerms(NewSubst(), a, b) {
		t.Fatalf("distinct constants unified")
	}
}

func TestUnifyNullsFlexible(t *testing.T) {
	c := newCtx()
	n, _ := c.st.FreshNull()
	a := c.st.Const("a")
	s := NewSubst()
	if !UnifyTerms(s, n, a) {
		t.Fatalf("null should unify with constant in MGU context")
	}
	if s.Apply(n) != a {
		t.Fatalf("null binding lost")
	}
}

func TestUnifyAtoms(t *testing.T) {
	c := newCtx()
	a1 := c.atom("p", "X", "b")
	a2 := c.atom("p", "a", "Y")
	s := NewSubst()
	if !UnifyAtoms(s, a1, a2) {
		t.Fatalf("unifiable atoms failed")
	}
	g1, g2 := s.ApplyAtom(a1), s.ApplyAtom(a2)
	if !g1.Equal(g2) {
		t.Fatalf("unifier does not equalize: %v vs %v",
			g1.String(c.st, c.reg), g2.String(c.st, c.reg))
	}
	if UnifyAtoms(NewSubst(), c.atom("s1", "a"), c.atom("s2", "a")) {
		t.Fatalf("different predicates unified")
	}
}

// Property: for random unifiable pairs, the MGU is most general — any other
// unifier factors through it. We approximate by checking that applying the
// MGU twice equals applying it once (idempotence up to chain resolution).
func TestMGUIdempotent(t *testing.T) {
	c := newCtx()
	rng := rand.New(rand.NewSource(7))
	varPool := []term.Term{c.st.Var("A"), c.st.Var("B"), c.st.Var("C"), c.st.Var("D")}
	constPool := []term.Term{c.st.Const("k1"), c.st.Const("k2")}
	randTerm := func() term.Term {
		if rng.Intn(2) == 0 {
			return varPool[rng.Intn(len(varPool))]
		}
		return constPool[rng.Intn(len(constPool))]
	}
	pred := c.reg.Intern("r", 3)
	for i := 0; i < 300; i++ {
		a := New(pred, randTerm(), randTerm(), randTerm())
		b := New(pred, randTerm(), randTerm(), randTerm())
		s := NewSubst()
		if !UnifyAtoms(s, a, b) {
			continue
		}
		once := s.ApplyAtom(a)
		twice := s.ApplyAtom(once)
		if !once.Equal(twice) {
			t.Fatalf("MGU application not idempotent: %v vs %v",
				once.String(c.st, c.reg), twice.String(c.st, c.reg))
		}
		if !s.ApplyAtom(a).Equal(s.ApplyAtom(b)) {
			t.Fatalf("unifier does not equalize atoms")
		}
	}
}

func TestMatchAtomOneWay(t *testing.T) {
	c := newCtx()
	pat := c.atom("p", "X", "a")
	gr := c.atom("p", "b", "a")
	s := NewSubst()
	if !MatchAtom(s, pat, gr) {
		t.Fatalf("match failed")
	}
	if s.Apply(c.st.Var("X")) != c.st.Const("b") {
		t.Fatalf("X not bound to b")
	}
	// Constants in pattern are rigid.
	if MatchAtom(NewSubst(), c.atom("p", "a", "a"), c.atom("p", "b", "a")) {
		t.Fatalf("rigid constant matched different constant")
	}
	// Nulls in pattern are rigid for matching.
	n := c.atom("p", "_", "a")
	if MatchAtom(NewSubst(), n, gr) {
		t.Fatalf("null should be rigid in MatchAtom")
	}
}
