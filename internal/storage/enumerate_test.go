package storage

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/term"
)

// mk builds a tiny naming context plus a db of e/2 facts over constants.
func mkDB(edges [][2]string) (*logic.Program, *DB, func(a, b string) atom.Atom) {
	prog := logic.NewProgram()
	e := prog.Reg.Intern("e", 2)
	fact := func(a, b string) atom.Atom {
		return atom.New(e, prog.Store.Const(a), prog.Store.Const(b))
	}
	db := NewDB()
	for _, ed := range edges {
		db.Insert(fact(ed[0], ed[1]))
	}
	return prog, db, fact
}

func TestMatchEachSince(t *testing.T) {
	prog, db, fact := mkDB([][2]string{{"a", "b"}, {"b", "c"}})
	mark := db.Mark()
	db.Insert(fact("c", "d"))
	db.Insert(fact("d", "e2"))
	e, _ := prog.Reg.Lookup("e")
	pat := atom.New(e, prog.Store.Var("X"), prog.Store.Var("Y"))
	var got []string
	db.MatchEachSince(pat, atom.NewSubst(), mark, func(s atom.Subst) bool {
		got = append(got, prog.Store.Name(s.Apply(pat.Args[0])))
		return true
	})
	if len(got) != 2 {
		t.Fatalf("delta matches = %v, want the 2 post-mark facts", got)
	}
}

func TestHomomorphismsEachDeltaRestriction(t *testing.T) {
	prog, db, fact := mkDB([][2]string{{"a", "b"}})
	mark := db.Mark()
	db.Insert(fact("b", "c"))
	e, _ := prog.Reg.Lookup("e")
	x, y, z := prog.Store.Var("X"), prog.Store.Var("Y"), prog.Store.Var("Z")
	pattern := []atom.Atom{atom.New(e, x, y), atom.New(e, y, z)}
	// Delta on atom 0: only e(b,c) qualifies there, and nothing extends it.
	count := 0
	db.HomomorphismsEach(pattern, nil, 0, mark, func(atom.Subst) bool {
		count++
		return true
	})
	if count != 0 {
		t.Fatalf("delta-0 homomorphisms = %d, want 0", count)
	}
	// Delta on atom 1: e(a,b) ⋈ e(b,c) qualifies.
	count = 0
	var binding string
	db.HomomorphismsEach(pattern, nil, 1, mark, func(s atom.Subst) bool {
		count++
		binding = prog.Store.Name(s.Apply(x)) + prog.Store.Name(s.Apply(y)) + prog.Store.Name(s.Apply(z))
		return true
	})
	if count != 1 || binding != "abc" {
		t.Fatalf("delta-1 homomorphisms = %d (%s), want 1 (abc)", count, binding)
	}
	// Unrestricted (-1) with mark 0 enumerates both joins of the chain.
	count = 0
	db.HomomorphismsEach(pattern, nil, -1, 0, func(atom.Subst) bool {
		count++
		return true
	})
	if count != 1 { // only a->b->c joins
		t.Fatalf("unrestricted homomorphisms = %d, want 1", count)
	}
	// Early stop.
	count = 0
	single := []atom.Atom{atom.New(e, x, y)}
	db.HomomorphismsEach(single, nil, -1, 0, func(atom.Subst) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop ignored: %d", count)
	}
}

// TestHomomorphismsEachThreeAtoms exercises the shim with three atoms:
// the delta atom moves to the front and the rest keep written order.
func TestHomomorphismsEachThreeAtoms(t *testing.T) {
	prog := logic.NewProgram()
	e := prog.Reg.Intern("e", 2)
	lbl := prog.Reg.Intern("lbl", 1)
	c := func(s string) term.Term { return prog.Store.Const(s) }
	db := NewDB()
	db.Insert(atom.New(e, c("a"), c("b")))
	db.Insert(atom.New(e, c("b"), c("c")))
	db.Insert(atom.New(lbl, c("c")))
	x, y, z := prog.Store.Var("X"), prog.Store.Var("Y"), prog.Store.Var("Z")
	pattern := []atom.Atom{
		atom.New(lbl, z),
		atom.New(e, x, y),
		atom.New(e, y, z),
	}
	count := 0
	db.HomomorphismsEach(pattern, nil, 1, 0, func(s atom.Subst) bool {
		count++
		if prog.Store.Name(s.Apply(x)) != "a" {
			t.Fatalf("wrong binding for X")
		}
		return true
	})
	if count != 1 {
		t.Fatalf("homomorphisms = %d, want 1", count)
	}
}
