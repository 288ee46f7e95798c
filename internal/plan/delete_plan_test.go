package plan

import (
	"sort"
	"testing"

	"repro/internal/atom"
	"repro/internal/storage"
	"repro/internal/term"
)

// TestRunSeedEnumeratesThroughRow: for every stored fact and every body
// position over its predicate, runSeed yields exactly the rule instances
// whose body atom at that position IS the seeded fact — verified against a
// full Run with the trigger image inspected per match.
func TestRunSeedEnumeratesThroughRow(t *testing.T) {
	src := `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
j(X,W) :- e(X,Y), e(Y,Z), e(Z,W).
e(a,b). e(b,c). e(c,d). e(a,c).
t(a,b). t(b,c). t(c,d). t(b,d). t(a,c). t(a,d). t(c,c).
`
	// NeedBodyImage keeps every body slot live so the reference run can
	// read the full trigger image.
	p, db := compile(t, src, Options{DeltaFirst: true, NeedBodyImage: true})
	for ri, r := range p.Rules {
		ex := NewExec(r)
		for di := range r.TGD.Body {
			pred := r.TGD.Body[di].Pred
			for _, seed := range db.Facts(pred) {
				row, ok := db.FindRow(seed.Pred, seed.Args)
				if !ok {
					t.Fatalf("rule %d: no row for seed fact", ri)
				}
				var got []string
				ex.runSeed(db, di, row, func() bool {
					got = append(got, atom.SortKey(ex.Head(0)))
					return true
				})
				var want []string
				ex.Run(db, di, 0, func() bool {
					if ex.BodyImage()[di].Equal(seed) {
						want = append(want, atom.SortKey(ex.Head(0)))
					}
					return true
				})
				sort.Strings(got)
				sort.Strings(want)
				if len(got) != len(want) {
					t.Fatalf("rule %d delta %d seed %v: runSeed %d heads, want %d",
						ri, di, seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("rule %d delta %d seed %v: head %d = %q, want %q",
							ri, di, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRunSeedSkipsDeadSideRows: the seed row itself is matched regardless
// of liveness bookkeeping, but the non-seed scans must skip tombstoned
// rows.
func TestRunSeedSkipsDeadSideRows(t *testing.T) {
	src := `
t(X,Z) :- e(X,Y), f(Y,Z).
e(a,b).
f(b,c). f(b,d).
`
	p, db := compile(t, src, Options{DeltaFirst: true})
	r := p.Rules[0]
	ex := NewExec(r)
	fPred := r.TGD.Body[1].Pred
	dead, _ := db.FindRow(fPred, db.Facts(fPred)[0].Args) // f(b,c)
	db.Tombstone(fPred, dead)
	eRow, _ := db.FindRow(r.TGD.Body[0].Pred, db.Facts(r.TGD.Body[0].Pred)[0].Args)
	var heads []string
	ex.runSeed(db, 0, eRow, func() bool {
		heads = append(heads, atom.SortKey(ex.Head(0)))
		return true
	})
	if len(heads) != 1 {
		t.Fatalf("runSeed matched %d instances, want 1 (dead f(b,c) skipped): %v", len(heads), heads)
	}
}

// TestRederivable: head-bound existence checks — constants, repeated head
// variables, predicate mismatch, and sensitivity to tombstones.
func TestRederivable(t *testing.T) {
	src := `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
loop(X,X) :- e(X,Y), e(Y,X).
e(a,b). e(b,c). e(b,a).
t(b,c).
`
	p, db := compile(t, src, Options{DeltaFirst: true})
	prog := p.Source
	c := prog.Store.Const
	pt, _ := prog.Reg.Lookup("t")
	pl, _ := prog.Reg.Lookup("loop")
	pe, _ := prog.Reg.Lookup("e")

	base := NewExec(p.Rules[0]) // t(X,Y) :- e(X,Y)
	step := NewExec(p.Rules[1]) // t(X,Z) :- e(X,Y), t(Y,Z)
	loop := NewExec(p.Rules[2]) // loop(X,X) :- e(X,Y), e(Y,X)

	if !base.Rederivable(db, pt, []term.Term{c("a"), c("b")}) {
		t.Fatalf("t(a,b) not rederivable via base rule despite e(a,b)")
	}
	if base.Rederivable(db, pt, []term.Term{c("a"), c("c")}) {
		t.Fatalf("t(a,c) rederivable via base rule without e(a,c)")
	}
	if !step.Rederivable(db, pt, []term.Term{c("a"), c("c")}) {
		t.Fatalf("t(a,c) not rederivable via step rule despite e(a,b), t(b,c)")
	}
	if step.Rederivable(db, pt, []term.Term{c("c"), c("a")}) {
		t.Fatalf("t(c,a) rederivable with no support")
	}
	// Wrong head predicate: always false, frame untouched.
	if base.Rederivable(db, pe, []term.Term{c("a"), c("b")}) {
		t.Fatalf("Rederivable accepted a different head predicate")
	}
	// Repeated head variable: loop(a,a) needs e(a,Y), e(Y,a) — holds via b;
	// loop(a,b) must fail the head template (X bound twice, inconsistent).
	if !loop.Rederivable(db, pl, []term.Term{c("a"), c("a")}) {
		t.Fatalf("loop(a,a) not rederivable despite e(a,b), e(b,a)")
	}
	if loop.Rederivable(db, pl, []term.Term{c("a"), c("b")}) {
		t.Fatalf("loop(a,b) accepted against head template loop(X,X)")
	}
	// Supports hands over the row each body atom matched, by body position
	// whatever the join order: loop(a,a)'s one instance is e(a,b), e(b,a).
	ab, _ := db.FindRow(pe, []term.Term{c("a"), c("b")})
	ba, _ := db.FindRow(pe, []term.Term{c("b"), c("a")})
	var got [][]int32
	loop.Supports(db, pl, []term.Term{c("a"), c("a")}, func(rows []int32) bool {
		got = append(got, append([]int32(nil), rows...))
		return true
	})
	if len(got) != 1 || got[0][0] != ab || got[0][1] != ba {
		t.Fatalf("Supports(loop(a,a)) rows = %v, want [[%d %d]]", got, ab, ba)
	}
	// Tombstoning the supporting fact kills the rederivation.
	row, _ := db.FindRow(pe, []term.Term{c("a"), c("b")})
	db.Tombstone(pe, row)
	if base.Rederivable(db, pt, []term.Term{c("a"), c("b")}) {
		t.Fatalf("t(a,b) rederivable through tombstoned e(a,b)")
	}
	// Re-inserting it lands a fresh row, and the rederivation is back.
	if !db.InsertArgs(pe, []term.Term{c("a"), c("b")}) {
		t.Fatalf("re-insert of tombstoned e(a,b) found a duplicate")
	}
	if !base.Rederivable(db, pt, []term.Term{c("a"), c("b")}) {
		t.Fatalf("t(a,b) not rederivable after re-insert")
	}
	// The frame must be clean after every call: a normal Run still works.
	count := 0
	base.Run(db, 0, 0, func() bool { count++; return true })
	if count != 3 {
		t.Fatalf("Run after Rederivable calls matched %d rows, want 3", count)
	}
}

// TestRederivePlanShape: head-bound slots compile to comparisons and the
// plan exists exactly for full single-head rules.
func TestRederivePlanShape(t *testing.T) {
	src := `
t(X,Z) :- e(X,Y), t(Y,Z).
r(X,W) :- p(X).
e(a,b).
`
	p, _ := compile(t, src, Options{DeltaFirst: true})
	if p.Rules[0].Rederive == nil {
		t.Fatalf("full single-head rule lacks a rederive plan")
	}
	if p.Rules[1].Rederive != nil {
		t.Fatalf("existential rule compiled a rederive plan")
	}
	// Every argument position of the rederive scans must be a comparison,
	// a binding, or a skip — and at least one position must compare against
	// a head-bound slot in the very first scan (the head seeds the join).
	first := p.Rules[0].Rederive.Scans[0]
	bound := 0
	for _, a := range first.Args {
		if a.Mode == storage.ArgBound {
			bound++
		}
	}
	if bound == 0 {
		t.Fatalf("first rederive scan has no head-bound comparison: %+v", first.Args)
	}
}
