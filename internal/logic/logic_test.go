package logic

import (
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/term"
)

// build constructs a tiny program: P(x) -> ∃z R(x,z); R(x,y) -> P(y).
func build() (*Program, *TGD, *TGD) {
	p := NewProgram()
	x, y, z := p.Store.Var("X"), p.Store.Var("Y"), p.Store.Var("Z")
	pr := p.Reg.Intern("p", 1)
	r := p.Reg.Intern("r", 2)
	t1 := &TGD{
		Body:  []atom.Atom{atom.New(pr, x)},
		Head:  []atom.Atom{atom.New(r, x, z)},
		Label: "t1",
	}
	t2 := &TGD{
		Body:  []atom.Atom{atom.New(r, x, y)},
		Head:  []atom.Atom{atom.New(pr, y)},
		Label: "t2",
	}
	p.Add(t1)
	p.Add(t2)
	return p, t1, t2
}

func TestFrontierAndExistentials(t *testing.T) {
	p, t1, t2 := build()
	x, y, z := p.Store.Var("X"), p.Store.Var("Y"), p.Store.Var("Z")

	fr := t1.Frontier()
	if !fr[x] || fr[z] || len(fr) != 1 {
		t.Errorf("t1 frontier = %v", fr)
	}
	ex := t1.Existentials()
	if !ex[z] || len(ex) != 1 {
		t.Errorf("t1 existentials = %v", ex)
	}
	if t1.IsFull() {
		t.Errorf("t1 has an existential, not full")
	}
	if !t2.IsFull() {
		t.Errorf("t2 is full")
	}
	fr2 := t2.Frontier()
	if !fr2[y] || fr2[x] {
		t.Errorf("t2 frontier = %v", fr2)
	}
}

func TestRenameFreshens(t *testing.T) {
	p, t1, _ := build()
	r := t1.Rename(p.Store, "v1")
	// Same structure...
	if len(r.Body) != 1 || len(r.Head) != 1 {
		t.Fatalf("rename changed shape")
	}
	// ...but disjoint variables.
	orig := t1.BodyVars()
	for v := range r.BodyVars() {
		if orig[v] {
			t.Fatalf("renamed TGD shares variable with original")
		}
	}
	// Renaming preserves the frontier/existential split.
	if len(r.Frontier()) != 1 || len(r.Existentials()) != 1 {
		t.Fatalf("rename broke quantifier structure")
	}
	// Repeated variables must stay identified.
	p2 := NewProgram()
	x := p2.Store.Var("X")
	pr := p2.Reg.Intern("p", 2)
	q := p2.Reg.Intern("q", 1)
	tg := &TGD{Body: []atom.Atom{atom.New(pr, x, x)}, Head: []atom.Atom{atom.New(q, x)}}
	rn := tg.Rename(p2.Store, "z")
	if rn.Body[0].Args[0] != rn.Body[0].Args[1] {
		t.Fatalf("rename split a repeated variable")
	}
}

func TestProgramSchemaEDB(t *testing.T) {
	p, _, _ := build()
	pr, _ := p.Reg.Lookup("p")
	r, _ := p.Reg.Lookup("r")
	sch := p.Schema()
	if !sch[pr] || !sch[r] {
		t.Fatalf("schema missing predicates: %v", sch)
	}
	heads := p.HeadPreds()
	if !heads[pr] || !heads[r] {
		t.Fatalf("both p and r occur in heads")
	}
	if len(p.EDB()) != 0 {
		t.Fatalf("no EDB predicates in this program")
	}

	// Add an EDB predicate.
	e := p.Reg.Intern("e", 1)
	x := p.Store.Var("X")
	p.Add(&TGD{
		Body: []atom.Atom{atom.New(e, x)},
		Head: []atom.Atom{atom.New(pr, x)},
	})
	edb := p.EDB()
	if !edb[e] || len(edb) != 1 {
		t.Fatalf("EDB = %v, want {e}", edb)
	}
}

func TestMaxBodySize(t *testing.T) {
	p, _, _ := build()
	if got := p.MaxBodySize(); got != 1 {
		t.Fatalf("MaxBodySize = %d", got)
	}
	empty := NewProgram()
	if got := empty.MaxBodySize(); got != 0 {
		t.Fatalf("empty MaxBodySize = %d", got)
	}
}

func TestValidate(t *testing.T) {
	p, _, _ := build()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := NewProgram()
	pr := bad.Reg.Intern("p", 1)
	bad.Add(&TGD{Head: []atom.Atom{atom.New(pr, bad.Store.Var("X"))}})
	if err := bad.Validate(); err == nil {
		t.Fatalf("empty body accepted")
	}
	bad2 := NewProgram()
	pr2 := bad2.Reg.Intern("p", 1)
	bad2.Add(&TGD{
		Body: []atom.Atom{atom.New(pr2, term.MkNull(0))},
		Head: []atom.Atom{atom.New(pr2, bad2.Store.Var("X"))},
	})
	if err := bad2.Validate(); err == nil {
		t.Fatalf("null in rule accepted")
	}
}

func TestStringRendering(t *testing.T) {
	p, t1, _ := build()
	s := t1.String(p.Store, p.Reg)
	if !strings.Contains(s, ":-") || !strings.Contains(s, "r(X,Z)") {
		t.Errorf("TGD string = %q", s)
	}
	q := &CQ{
		Output: []term.Term{p.Store.Var("X")},
		Atoms:  []atom.Atom{t1.Body[0]},
	}
	qs := q.String(p.Store, p.Reg)
	if !strings.Contains(qs, "?(X)") {
		t.Errorf("CQ string = %q", qs)
	}
	ps := p.String()
	if strings.Count(ps, "\n") != 2 {
		t.Errorf("program string = %q", ps)
	}
}

func TestCQHelpers(t *testing.T) {
	p, t1, _ := build()
	x := p.Store.Var("X")
	q := &CQ{Output: []term.Term{x}, Atoms: []atom.Atom{t1.Body[0]}}
	if q.IsBoolean() {
		t.Errorf("q has output, not boolean")
	}
	b := &CQ{Atoms: q.Atoms}
	if !b.IsBoolean() {
		t.Errorf("no output -> boolean")
	}
	cl := q.Clone()
	cl.Atoms[0].Args[0] = p.Store.Const("c")
	if q.Atoms[0].Args[0] == cl.Atoms[0].Args[0] {
		t.Errorf("Clone shares atom storage")
	}
	q2 := &CQ{Output: []term.Term{p.Store.Const("c")}, Atoms: q.Atoms}
	if q2.IsBoolean() {
		t.Errorf("q2 has an output position")
	}
	vs := q.Vars()
	if !vs[x] {
		t.Errorf("Vars missing X")
	}
}

func TestTGDClone(t *testing.T) {
	_, t1, _ := build()
	c := t1.Clone()
	c.Body[0].Args[0] = term.MkConst(99)
	if t1.Body[0].Args[0] == c.Body[0].Args[0] {
		t.Fatalf("Clone shares storage")
	}
	if c.Label != t1.Label {
		t.Fatalf("Clone lost label")
	}
}
