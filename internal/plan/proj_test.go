package plan

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

// TestProjectionMaskDeadVariable: a body variable read by no later scan
// and no template compiles to ArgSkip — the probe neither compares nor
// writes its slot — while the same rule compiled with NeedBodyImage keeps
// the binding live.
func TestProjectionMaskDeadVariable(t *testing.T) {
	src := `
h(X) :- p(X,Y).
p(a,b). p(a,c). p(d,e).
`
	p, db := compile(t, src, Options{DeltaFirst: true})
	r := p.Rules[0]
	sp := r.Variants[0].Scans[0]
	if sp.Args[1].Mode != storage.ArgSkip {
		t.Fatalf("dead variable position mode = %v, want ArgSkip", sp.Args[1].Mode)
	}
	binds := 0
	for _, a := range sp.Args {
		if a.Mode == storage.ArgBind {
			binds++
		}
	}
	if binds != 1 || sp.Args[0].Mode != storage.ArgBind {
		t.Fatalf("scan args = %+v, want only X's position bound", sp.Args)
	}
	// The skipped slot must stay unbound during enumeration; matches and
	// head images are unaffected.
	ex := NewExec(r)
	// Y's slot is the body slot no head template reads.
	ySlot := -1
	for s := 0; s < r.BodySlots; s++ {
		inHead := false
		for _, a := range r.Head[0].Args {
			if a.Slot == s {
				inHead = true
			}
		}
		if !inHead {
			ySlot = s
		}
	}
	if ySlot < 0 {
		t.Fatalf("no slot for Y")
	}
	matches := 0
	ex.Run(db, 0, 0, func() bool {
		if ex.Frame()[ySlot] != storage.Unbound {
			t.Fatalf("projected slot was written")
		}
		db.InsertArgs(ex.HeadArgs(0))
		matches++
		return true
	})
	if matches != 3 {
		t.Fatalf("matches = %d, want 3", matches)
	}
	h, _ := p.Source.Reg.Lookup("h")
	if db.CountPred(h) != 2 { // h(a), h(d)
		t.Fatalf("derived %d h-facts, want 2", db.CountPred(h))
	}

	// With NeedBodyImage every body variable stays live.
	full, _ := compile(t, src, Options{DeltaFirst: true, NeedBodyImage: true})
	if m := full.Rules[0].Variants[0].Scans[0].Args[1].Mode; m != storage.ArgBind {
		t.Fatalf("NeedBodyImage position mode = %v, want ArgBind", m)
	}
}

// TestProjectionKeepsJoinAndDiagonalVars: variables read by a later scan,
// by a negated template, or by a repeated position of the same atom are
// never projected away.
func TestProjectionKeepsJoinAndDiagonalVars(t *testing.T) {
	// Y joins p and q; the join must survive projection.
	p, db := compile(t, `
h(X) :- p(X,Y), q(Y).
p(a,b). p(c,d). q(b).
`, Options{DeltaFirst: true})
	ex := NewExec(p.Rules[0])
	matches := 0
	ex.Run(db, 0, 0, func() bool { matches++; return true })
	if matches != 1 {
		t.Fatalf("join matches = %d, want 1 (p(a,b)⋈q(b))", matches)
	}

	// Z occurs twice in one atom: the diagonal constraint must hold even
	// though Z feeds nothing downstream.
	p2, db2 := compile(t, `
g(X) :- r(X,Z,Z).
r(a,u,u). r(b,u,v).
`, Options{DeltaFirst: true})
	sp := p2.Rules[0].Variants[0].Scans[0]
	if sp.Args[1].Mode != storage.ArgBind || sp.Args[2].Mode != storage.ArgBound {
		t.Fatalf("diagonal modes = %v/%v, want ArgBind/ArgBound", sp.Args[1].Mode, sp.Args[2].Mode)
	}
	ex2 := NewExec(p2.Rules[0])
	matches = 0
	ex2.Run(db2, 0, 0, func() bool { matches++; return true })
	if matches != 1 {
		t.Fatalf("diagonal matches = %d, want 1", matches)
	}

	// A variable read only by a negated template stays live.
	r, err := parser.Parse(`
h(X) :- p(X,Y), not q(Y).
p(a,b). p(c,d). q(d).
`)
	if err != nil {
		t.Fatal(err)
	}
	db3 := storage.NewDB()
	db3.InsertAll(r.Facts)
	p3 := Compile(r.Program, Options{DeltaFirst: true})
	if m := p3.Rules[0].Variants[0].Scans[0].Args[1].Mode; m != storage.ArgBind {
		t.Fatalf("negation-read position mode = %v, want ArgBind", m)
	}
	ex3 := NewExec(p3.Rules[0])
	derived := 0
	ex3.Run(db3, 0, 0, func() bool {
		if !ex3.Blocked(db3) {
			derived++
		}
		return true
	})
	if derived != 1 { // only h(a): q(d) blocks p(c,d)
		t.Fatalf("unblocked matches = %d, want 1", derived)
	}
}
