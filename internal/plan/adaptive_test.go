package plan

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

// TestVariantAlternatives: every variant carries the default order as
// Alts[0] plus distinct alternatives seeded at other body atoms; all
// alternatives place the delta restriction on the same body atom.
func TestVariantAlternatives(t *testing.T) {
	src := `
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b).
`
	p, _ := compile(t, src, Options{DeltaFirst: true})
	for di, v := range p.Rules[0].Variants {
		if len(v.Alts) != 2 {
			t.Fatalf("delta %d: %d alts, want 2 (two-atom body)", di, len(v.Alts))
		}
		if v.Alts[0] != &v.JoinPlan {
			t.Fatalf("delta %d: Alts[0] is not the default order", di)
		}
		for ai, a := range v.Alts {
			if a.Order[a.DeltaStep] != di {
				t.Fatalf("delta %d alt %d: DeltaStep %d points at atom %d",
					di, ai, a.DeltaStep, a.Order[a.DeltaStep])
			}
			perm := append([]int(nil), a.Order...)
			sort.Ints(perm)
			for i, bi := range perm {
				if bi != i {
					t.Fatalf("delta %d alt %d: order %v is not a permutation", di, ai, a.Order)
				}
			}
		}
		if v.Alts[1].Order[0] == v.Order[0] {
			t.Fatalf("delta %d: alternative repeats the default driver", di)
		}
	}
}

// TestRunAltSameMatches: every alternative enumerates exactly the matches
// of the default order — selection can never change the fixpoint, only the
// probe count.
func TestRunAltSameMatches(t *testing.T) {
	src := `
q(X,Z) :- e(X,Y), f(Y,Z).
e(a,b). e(b,c). e(c,a). f(b,x). f(c,y).
`
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	p := Compile(r.Program, Options{DeltaFirst: true})
	for di, v := range p.Rules[0].Variants {
		collect := func(alt int) map[string]int {
			out := map[string]int{}
			ex := NewExec(p.Rules[0])
			ex.RunAlt(db, di, alt, 0, func() bool {
				out[fmt.Sprint(ex.Head(0))]++
				return true
			})
			return out
		}
		want := collect(0)
		if len(want) == 0 {
			t.Fatalf("delta %d: no matches through the default order", di)
		}
		for alt := 1; alt < len(v.Alts); alt++ {
			got := collect(alt)
			if len(got) != len(want) {
				t.Fatalf("delta %d alt %d: %d matches, want %d", di, alt, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("delta %d alt %d: %s seen %d times, want %d", di, alt, k, got[k], n)
				}
			}
		}
	}
}

// TestChooseAlt: with balanced cardinalities the compile-time order wins;
// with a delta window decisively larger than the side relation, selection
// swaps to the order that drives from the small relation and probes the
// delta by index.
func TestChooseAlt(t *testing.T) {
	src := `
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b).
`
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := r.Program
	eP, _ := prog.Reg.Lookup("e")
	tP, _ := prog.Reg.Lookup("t")
	p := Compile(prog, Options{DeltaFirst: true})
	rp := p.Rules[0]
	di := 1 // t is the delta atom

	db := storage.NewDB()
	db.InsertAll(r.Facts)
	// Balanced: 1 e fact, small t delta — stay on the default order.
	db.InsertArgs(tP, []term.Term{prog.Store.Const("a"), prog.Store.Const("b")})
	if alt := ChooseAlt(db, rp, di, 0); alt != 0 {
		t.Fatalf("balanced: alt = %d, want 0", alt)
	}
	// Skewed: the t delta window dwarfs e — swap to the e-driven order.
	for i := 0; i < 100; i++ {
		db.InsertArgs(tP, []term.Term{prog.Store.Const(fmt.Sprintf("u%d", i)), prog.Store.Const("b")})
	}
	alt := ChooseAlt(db, rp, di, 0)
	if alt == 0 {
		t.Fatalf("skewed: stayed on the delta-driven order")
	}
	j := rp.Variants[di].Alts[alt]
	if first := rp.Body[j.Order[0]].Pred; first != eP {
		t.Fatalf("skewed: driver pred = %v, want e", first)
	}
	// A shrunken window (recent mark) swings the choice back.
	mark := db.Mark()
	db.InsertArgs(tP, []term.Term{prog.Store.Const("z"), prog.Store.Const("b")})
	if alt := ChooseAlt(db, rp, di, mark); alt != 0 {
		t.Fatalf("small window: alt = %d, want 0", alt)
	}
}
