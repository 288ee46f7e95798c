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

// samePattern reports whether a memo that admitted trigger a suppresses
// trigger b of the same TGD.
func samePattern(a, b []atom.Atom) bool {
	m := NewTriggerMemo()
	m.Admit(0, a)
	return !m.Admit(0, b)
}

func TestTriggerMemoNullRenaming(t *testing.T) {
	st := term.NewStore()
	reg := schema.NewRegistry()
	r := reg.Intern("r", 2)
	c := st.Const("c")
	n1, n2, n3 := term.MkNull(0), term.MkNull(1), term.MkNull(2)
	img := func(atoms ...atom.Atom) []atom.Atom { return atoms }

	// r(c, n1) ≡ r(c, n2)
	if !samePattern(img(mk(r, c, n1)), img(mk(r, c, n2))) {
		t.Errorf("isomorphic facts have different patterns")
	}
	// r(n1, n1) ≢ r(n1, n2): equality pattern matters.
	if samePattern(img(mk(r, n1, n1)), img(mk(r, n1, n2))) {
		t.Errorf("equality pattern lost")
	}
	// Cross-atom sharing: [r(n1,n2), r(n2,n3)] ≡ [r(n2,n3), r(n3,n1)].
	p5 := img(mk(r, n1, n2), mk(r, n2, n3))
	if !samePattern(p5, img(mk(r, n2, n3), mk(r, n3, n1))) {
		t.Errorf("cross-atom null sharing should canonicalize equally")
	}
	if samePattern(p5, img(mk(r, n1, n2), mk(r, n3, n1))) {
		t.Errorf("different sharing shapes must differ")
	}
	// Constants are rigid.
	d := st.Const("d")
	if samePattern(img(mk(r, c, n1)), img(mk(r, d, n1))) {
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
	if m.Size() != 2 {
		t.Fatalf("Size = %d", m.Size())
	}
}
