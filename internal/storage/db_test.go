package storage

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/parser"
)

func load(t *testing.T, src string) (*parser.Result, *DB) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := NewDB()
	db.InsertAll(r.Facts)
	return r, db
}

func TestInsertDedup(t *testing.T) {
	r, db := load(t, `e(a,b). e(a,b). e(b,c).`)
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dedup)", db.Len())
	}
	if !db.Contains(r.Facts[0]) {
		t.Fatalf("Contains lost a fact")
	}
	if n := db.InsertAll(r.Facts); n != 0 {
		t.Fatalf("re-insert added %d", n)
	}
	pred := r.Facts[0].Pred
	if db.CountPred(pred) != 2 {
		t.Fatalf("CountPred = %d", db.CountPred(pred))
	}
	if len(db.Facts(pred)) != 2 {
		t.Fatalf("Facts len wrong")
	}
	if len(db.All()) != 2 {
		t.Fatalf("All len wrong")
	}
}

func TestInsertNonGroundPanics(t *testing.T) {
	r, db := load(t, `e(a,b).`)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	bad := atom.New(r.Facts[0].Pred, r.Program.Store.Var("X"), r.Program.Store.Const("a"))
	db.Insert(bad)
}

func TestInsertNullOK(t *testing.T) {
	r, db := load(t, `e(a,b).`)
	n, _ := r.Program.Store.FreshNull()
	withNull := atom.New(r.Facts[0].Pred, r.Program.Store.Const("a"), n)
	if !db.Insert(withNull) {
		t.Fatalf("null atom rejected")
	}
	if !db.Contains(withNull) {
		t.Fatalf("null atom lost")
	}
}

func TestActiveDomainAndConstants(t *testing.T) {
	r, db := load(t, `e(a,b). e(b,c).`)
	dom := db.ActiveDomain()
	if len(dom) != 3 {
		t.Fatalf("dom size = %d, want 3", len(dom))
	}
	n, _ := r.Program.Store.FreshNull()
	db.Insert(atom.New(r.Facts[0].Pred, dom[0], n))
	if len(db.ActiveDomain()) != 4 {
		t.Fatalf("null not in active domain")
	}
	if len(db.Constants()) != 3 {
		t.Fatalf("Constants should exclude nulls")
	}
}

func TestCloneIndependence(t *testing.T) {
	r, db := load(t, `e(a,b).`)
	cl := db.Clone()
	st := r.Program.Store
	cl.Insert(atom.New(r.Facts[0].Pred, st.Const("x"), st.Const("y")))
	if db.Len() != 1 || cl.Len() != 2 {
		t.Fatalf("clone not independent: %d/%d", db.Len(), cl.Len())
	}
}
