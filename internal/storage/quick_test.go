package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/parser"
)

// TestInsertContainsConsistency: whatever is inserted is contained; Len
// equals the number of distinct atoms inserted.
func TestInsertContainsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 2)
	q := prog.Reg.Intern("q", 1)
	db := NewDB()
	distinct := make(map[string]bool)
	var all []atom.Atom
	for i := 0; i < 500; i++ {
		var a atom.Atom
		if rng.Intn(2) == 0 {
			a = atom.New(p,
				prog.Store.Const(fmt.Sprintf("c%d", rng.Intn(10))),
				prog.Store.Const(fmt.Sprintf("c%d", rng.Intn(10))))
		} else {
			a = atom.New(q, prog.Store.Const(fmt.Sprintf("c%d", rng.Intn(10))))
		}
		key := a.String(prog.Store, prog.Reg)
		wasNew := db.Insert(a)
		if wasNew == distinct[key] {
			t.Fatalf("Insert new-ness wrong for %s (wasNew=%v)", key, wasNew)
		}
		distinct[key] = true
		all = append(all, a)
	}
	if db.Len() != len(distinct) {
		t.Fatalf("Len = %d, distinct = %d", db.Len(), len(distinct))
	}
	for _, a := range all {
		if !db.Contains(a) {
			t.Fatalf("lost atom %v", a.String(prog.Store, prog.Reg))
		}
	}
}

// TestProbeSinceDelta: the delta restriction sees exactly the facts
// inserted after the mark.
func TestProbeSinceDelta(t *testing.T) {
	r, err := parser.Parse(`?(X,Y) :- e(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := r.Program.Reg.Lookup("e")
	st := r.Program.Store
	db := NewDB()
	db.Insert(atom.New(e, st.Const("a"), st.Const("b")))
	mark := db.Mark()
	db.Insert(atom.New(e, st.Const("b"), st.Const("c")))
	sp := CompileScan(e, []ScanArg{{Mode: ArgBind, Slot: 0}, {Mode: ArgBind, Slot: 1}})
	frame := NewFrame(2)
	var count int
	db.Probe(sp, frame, mark, 0, 1, func() bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("delta matched %d facts, want 1", count)
	}
	count = 0
	db.Probe(sp, frame, 0, 0, 1, func() bool {
		count++
		return true
	})
	if count != 2 {
		t.Fatalf("mark 0 matched %d facts, want 2", count)
	}
}

// TestIndexOfOrdering: IndexOf respects insertion order (needed by the
// chase-tree builder's "unfold newest first" rule).
func TestIndexOfOrdering(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1)
	db := NewDB()
	var atoms []atom.Atom
	for i := 0; i < 10; i++ {
		a := atom.New(p, prog.Store.Const(fmt.Sprintf("k%d", i)))
		atoms = append(atoms, a)
		db.Insert(a)
	}
	for i, a := range atoms {
		idx, ok := db.IndexOf(a)
		if !ok || idx != i {
			t.Fatalf("IndexOf(%d) = %d,%v", i, idx, ok)
		}
	}
	if _, ok := db.IndexOf(atom.New(p, prog.Store.Const("missing"))); ok {
		t.Fatalf("IndexOf found a missing atom")
	}
}
