package plan

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/atom"
	"repro/internal/parser"
	"repro/internal/storage"
)

func compile(t *testing.T, src string, opt Options) (*Program, *storage.DB) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	return Compile(r.Program, opt), db
}

const tc = `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b). e(b,c). e(c,d).
`

// TestJoinOrderDeterminism: compiling the same program twice yields
// identical join orders for every (rule, delta position) — the order is a
// pure function of rule and options, never of evaluation state.
func TestJoinOrderDeterminism(t *testing.T) {
	for _, opt := range []Options{{DeltaFirst: true}, {DeltaFirst: false}} {
		p1, _ := compile(t, tc, opt)
		p2, _ := compile(t, tc, opt)
		for ri := range p1.Rules {
			for di := range p1.Rules[ri].Variants {
				o1 := p1.Rules[ri].Variants[di].Order
				o2 := p2.Rules[ri].Variants[di].Order
				if !reflect.DeepEqual(o1, o2) {
					t.Fatalf("deltaFirst=%v rule %d delta %d: orders %v vs %v",
						opt.DeltaFirst, ri, di, o1, o2)
				}
			}
		}
	}
}

// TestJoinOrderShape: with DeltaFirst the delta atom leads and the greedy
// heuristic chains connected atoms; without it the written order survives
// and the delta restriction is applied in place.
func TestJoinOrderShape(t *testing.T) {
	src := `
q(X,W) :- a(X,Y), b(Y,Z), c(Z,W).
a(1,2). b(2,3). c(3,4).
`
	p, _ := compile(t, src, Options{DeltaFirst: true})
	r := p.Rules[0]
	if len(r.Variants) != 3 {
		t.Fatalf("variants = %d, want 3", len(r.Variants))
	}
	for di, v := range r.Variants {
		if v.Order[0] != di || v.DeltaStep != 0 {
			t.Fatalf("delta %d: order %v deltaStep %d, want delta first", di, v.Order, v.DeltaStep)
		}
	}
	// Delta = c(Z,W): the connected chain is c, b, a.
	if want := []int{2, 1, 0}; !reflect.DeepEqual(r.Variants[2].Order, want) {
		t.Fatalf("delta 2 order = %v, want %v (connected chain)", r.Variants[2].Order, want)
	}

	p0, _ := compile(t, src, Options{DeltaFirst: false})
	for di, v := range p0.Rules[0].Variants {
		if want := []int{0, 1, 2}; !reflect.DeepEqual(v.Order, want) {
			t.Fatalf("unbiased delta %d: order = %v, want written order", di, v.Order)
		}
		if v.DeltaStep != di {
			t.Fatalf("unbiased delta %d: deltaStep = %d, want in place", di, v.DeltaStep)
		}
	}
}

// TestSlotAssignment: body variables get slots in first-occurrence order,
// existential head variables follow, and the frontier is the body/head
// intersection.
func TestSlotAssignment(t *testing.T) {
	src := `
r(Y,X,W) :- p(X,Y).
p(1,2).
`
	p, _ := compile(t, src, Options{DeltaFirst: true})
	r := p.Rules[0]
	if r.BodySlots != 2 || r.NumSlots != 3 {
		t.Fatalf("slots = %d/%d, want body 2, total 3", r.BodySlots, r.NumSlots)
	}
	if len(r.ExistSlots) != 1 || r.ExistSlots[0] != 2 {
		t.Fatalf("existential slots = %v, want [2]", r.ExistSlots)
	}
	if len(r.Frontier) != 2 {
		t.Fatalf("frontier = %v, want 2 vars", r.Frontier)
	}
}

// TestExecEnumerates: plan execution enumerates exactly the homomorphisms
// of the body, binding the frame per match.
func TestExecEnumerates(t *testing.T) {
	p, db := compile(t, tc, Options{DeltaFirst: true})
	ex := NewExec(p.Rules[1]) // t(X,Z) :- e(X,Y), t(Y,Z).
	// Seed t with e's edges so the join has matches.
	tp := p.Rules[0]
	seed := NewExec(tp)
	seed.Run(db, 0, 0, func() bool {
		db.Insert(seed.Head(0))
		return true
	})
	var got []string
	ex.Run(db, 0, 0, func() bool {
		got = append(got, p.Source.Store.Name(ex.Head(0).Args[0])+p.Source.Store.Name(ex.Head(0).Args[1]))
		return true
	})
	want := map[string]bool{"ac": true, "bd": true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("joins = %v, want {ac, bd}", got)
	}
}

// TestFrameReuseAcrossRounds: an Exec keeps one frame for its whole life —
// the identical backing array across rounds — and every body slot returns
// to Unbound after each Run, so no per-round or per-binding state leaks.
func TestFrameReuseAcrossRounds(t *testing.T) {
	p, db := compile(t, tc, Options{DeltaFirst: true})
	ex := NewExec(p.Rules[0])
	frame0 := ex.Frame()
	for round := 0; round < 3; round++ {
		ex.Run(db, 0, 0, func() bool {
			db.Insert(ex.Head(0))
			return true
		})
		if &ex.Frame()[0] != &frame0[0] {
			t.Fatalf("round %d: frame reallocated", round)
		}
		for s, v := range ex.Frame() {
			if v != storage.Unbound {
				t.Fatalf("round %d: slot %d left bound to %v", round, s, v)
			}
		}
	}
	if ex.Probes == 0 {
		t.Fatalf("probe counter not maintained")
	}
}

// TestFrameRestoredOnEarlyStop: stopping the enumeration from the callback
// must also unwind the frame.
func TestFrameRestoredOnEarlyStop(t *testing.T) {
	p, db := compile(t, tc, Options{DeltaFirst: true})
	ex := NewExec(p.Rules[0])
	calls := 0
	ex.Run(db, 0, 0, func() bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	for s, v := range ex.Frame() {
		if v != storage.Unbound {
			t.Fatalf("slot %d left bound after early stop", s)
		}
	}
}

// TestDeltaRestriction: the delta variant only enumerates matches whose
// delta atom row is at or after the mark.
func TestDeltaRestriction(t *testing.T) {
	r, err := parser.Parse(`t(X,Y) :- e(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	e, _ := r.Program.Reg.Lookup("e")
	edge := func(i int) atom.Atom {
		return atom.New(e,
			r.Program.Store.Const(fmt.Sprintf("n%d", i)),
			r.Program.Store.Const(fmt.Sprintf("n%d", i+1)))
	}
	for i := 0; i < 10; i++ {
		db.Insert(edge(i))
	}
	mark := db.Mark()
	for i := 10; i < 16; i++ {
		db.Insert(edge(i))
	}
	p := Compile(r.Program, Options{DeltaFirst: true})
	ex := NewExec(p.Rules[0])
	count := 0
	ex.Run(db, 0, mark, func() bool { count++; return true })
	if count != 6 {
		t.Fatalf("delta matches = %d, want 6", count)
	}
}
