package guide

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

func mk(pred schema.PredID, args ...term.Term) atom.Atom {
	return atom.New(pred, args...)
}

func TestCanonicalizeNullRenaming(t *testing.T) {
	st := term.NewStore()
	reg := schema.NewRegistry()
	r := reg.Intern("r", 2)
	c := st.Const("c")
	n1, n2, n3 := term.MkNull(0), term.MkNull(1), term.MkNull(2)

	// r(c, n1) ≡ r(c, n2)
	p1 := Canonicalize([]atom.Atom{mk(r, c, n1)})
	p2 := Canonicalize([]atom.Atom{mk(r, c, n2)})
	if p1 != p2 {
		t.Errorf("isomorphic facts have different patterns: %q vs %q", p1, p2)
	}
	// r(n1, n1) ≢ r(n1, n2): equality pattern matters.
	p3 := Canonicalize([]atom.Atom{mk(r, n1, n1)})
	p4 := Canonicalize([]atom.Atom{mk(r, n1, n2)})
	if p3 == p4 {
		t.Errorf("equality pattern lost")
	}
	// Cross-atom sharing: [r(n1,n2), r(n2,n3)] ≡ [r(n2,n3), ...] shifted.
	p5 := Canonicalize([]atom.Atom{mk(r, n1, n2), mk(r, n2, n3)})
	p6 := Canonicalize([]atom.Atom{mk(r, n2, n3), mk(r, n3, n1)})
	if p5 != p6 {
		t.Errorf("cross-atom null sharing should canonicalize equally")
	}
	p7 := Canonicalize([]atom.Atom{mk(r, n1, n2), mk(r, n3, n1)})
	if p5 == p7 {
		t.Errorf("different sharing shapes must differ")
	}
	// Constants are rigid.
	d := st.Const("d")
	if Canonicalize([]atom.Atom{mk(r, c, n1)}) == Canonicalize([]atom.Atom{mk(r, d, n1)}) {
		t.Errorf("constants must distinguish patterns")
	}
}

func TestTriggerMemo(t *testing.T) {
	reg := schema.NewRegistry()
	p := reg.Intern("p", 1)
	n1, n2 := term.MkNull(0), term.MkNull(1)
	m := NewTriggerMemo()
	if !m.Admit(0, []atom.Atom{mk(p, n1)}) {
		t.Fatalf("first trigger must be admitted")
	}
	if m.Admit(0, []atom.Atom{mk(p, n2)}) {
		t.Fatalf("isomorphic trigger must be suppressed")
	}
	if !m.Admit(1, []atom.Atom{mk(p, n2)}) {
		t.Fatalf("different TGD index is a different memo bucket")
	}
	if m.Suppressed() != 1 {
		t.Fatalf("Suppressed = %d", m.Suppressed())
	}
	if m.Size() != 2 {
		t.Fatalf("Size = %d", m.Size())
	}
}
