package plan

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

// TestVariantDeltaFirstOrder: under DeltaFirst every variant compiles one
// join order that leads with its delta atom and visits each body atom
// once, and DeltaStep points at the delta atom.
func TestVariantDeltaFirstOrder(t *testing.T) {
	src := `
t(X,Z) :- e(X,Y), t(Y,Z).
q(X,W) :- e(X,Y), f(Y,Z), t(Z,W).
e(a,b).
`
	p, _ := compile(t, src, Options{DeltaFirst: true})
	for ri, rp := range p.Rules {
		if len(rp.Variants) != len(rp.Body) {
			t.Fatalf("rule %d: %d variants for %d body atoms", ri, len(rp.Variants), len(rp.Body))
		}
		for di, v := range rp.Variants {
			if v.DeltaPos != di {
				t.Fatalf("rule %d delta %d: DeltaPos = %d", ri, di, v.DeltaPos)
			}
			if v.Order[0] != di || v.DeltaStep != 0 {
				t.Fatalf("rule %d delta %d: order %v (DeltaStep %d) does not lead with the delta atom",
					ri, di, v.Order, v.DeltaStep)
			}
			perm := append([]int(nil), v.Order...)
			sort.Ints(perm)
			for i, bi := range perm {
				if bi != i {
					t.Fatalf("rule %d delta %d: order %v is not a permutation", ri, di, v.Order)
				}
			}
			if len(v.Scans) != len(v.Order) {
				t.Fatalf("rule %d delta %d: %d scans for %d steps", ri, di, len(v.Scans), len(v.Order))
			}
		}
	}
	// The three-atom rule with f as delta: the greedy order joins e and t
	// after f, each through the variable f binds.
	if got := p.Rules[1].Variants[1].Order; !reflect.DeepEqual(got, []int{1, 0, 2}) {
		t.Fatalf("q delta f: order %v, want [1 0 2]", got)
	}
}

// TestVariantWrittenOrder: without DeltaFirst every variant keeps the
// written body order, with the delta restriction on its own atom.
func TestVariantWrittenOrder(t *testing.T) {
	src := `
q(X,W) :- e(X,Y), f(Y,Z), t(Z,W).
e(a,b).
`
	p, _ := compile(t, src, Options{})
	for di, v := range p.Rules[0].Variants {
		if !reflect.DeepEqual(v.Order, []int{0, 1, 2}) {
			t.Fatalf("delta %d: order %v, want the written order", di, v.Order)
		}
		if v.DeltaStep != di {
			t.Fatalf("delta %d: DeltaStep = %d", di, v.DeltaStep)
		}
	}
}

// TestRunOrdersSameMatches: the delta-first and the written order of a
// variant enumerate exactly the same matches — the join order moves the
// probe count, never the fixpoint.
func TestRunOrdersSameMatches(t *testing.T) {
	src := `
q(X,W) :- e(X,Y), f(Y,Z), e(Z,W).
e(a,b). e(b,c). e(c,a). e(x,a). f(b,x). f(c,y). f(a,c).
`
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	collect := func(opt Options, di int) map[string]int {
		p := Compile(r.Program, opt)
		out := map[string]int{}
		ex := NewExec(p.Rules[0])
		ex.Run(db, di, 0, func() bool {
			out[fmt.Sprint(ex.Head(0))]++
			return true
		})
		return out
	}
	for di := range r.Program.TGDs[0].Body {
		want := collect(Options{}, di)
		if len(want) == 0 {
			t.Fatalf("delta %d: no matches through the written order", di)
		}
		if got := collect(Options{DeltaFirst: true}, di); !reflect.DeepEqual(got, want) {
			t.Fatalf("delta %d: delta-first matches %v, written order %v", di, got, want)
		}
	}
}
