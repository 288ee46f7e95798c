package storage

import (
	"fmt"
	"testing"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

func scanDB(t *testing.T) (*DB, *term.Store, schema.PredID) {
	t.Helper()
	st := term.NewStore()
	reg := schema.NewRegistry()
	e := reg.Intern("e", 2)
	db := NewDB()
	for i := 0; i < 8; i++ {
		db.Insert(atom.New(e, st.Const(fmt.Sprintf("n%d", i)), st.Const(fmt.Sprintf("n%d", i+1))))
	}
	return db, st, e
}

// TestProbeBindsAndResets: a probe binds its ArgBind slots per row and
// leaves the frame untouched afterwards.
func TestProbeBindsAndResets(t *testing.T) {
	db, st, e := scanDB(t)
	sp := CompileScan(e, []ScanArg{
		{Mode: ArgBind, Slot: 0},
		{Mode: ArgBind, Slot: 1},
	})
	frame := NewFrame(2)
	n := 0
	db.Probe(sp, frame, 0, 0, 1, func() bool {
		if frame[0] == Unbound || frame[1] == Unbound {
			t.Fatalf("slots unbound inside callback")
		}
		n++
		return true
	})
	if n != 8 {
		t.Fatalf("matches = %d, want 8", n)
	}
	if frame[0] != Unbound || frame[1] != Unbound {
		t.Fatalf("frame not reset: %v", frame)
	}
	_ = st
}

// TestProbeConstUsesIndex: a constant position restricts the enumeration
// via the precompiled index key.
func TestProbeConstUsesIndex(t *testing.T) {
	db, st, e := scanDB(t)
	sp := CompileScan(e, []ScanArg{
		{Mode: ArgConst, Const: st.Const("n3")},
		{Mode: ArgBind, Slot: 0},
	})
	frame := NewFrame(1)
	var got []term.Term
	db.Probe(sp, frame, 0, 0, 1, func() bool {
		got = append(got, frame[0])
		return true
	})
	if len(got) != 1 || got[0] != st.Const("n4") {
		t.Fatalf("probe for e(n3, X) = %v", got)
	}
}

// TestProbeBoundSlot: a bound slot filters rows like a join would, using
// the frame value for index selection.
func TestProbeBoundSlot(t *testing.T) {
	db, st, e := scanDB(t)
	sp := CompileScan(e, []ScanArg{
		{Mode: ArgBound, Slot: 0},
		{Mode: ArgBind, Slot: 1},
	})
	frame := NewFrame(2)
	frame[0] = st.Const("n5")
	n := 0
	db.Probe(sp, frame, 0, 0, 1, func() bool {
		if frame[1] != st.Const("n6") {
			t.Fatalf("join value = %v", frame[1])
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("matches = %d, want 1", n)
	}
	if frame[0] != st.Const("n5") {
		t.Fatalf("bound slot clobbered")
	}
}

// TestProbeRepeatedVariable: a variable occurring twice in one atom binds
// at its first position and filters at the second, and the mid-atom slot
// must not be used for index selection.
func TestProbeRepeatedVariable(t *testing.T) {
	st := term.NewStore()
	reg := schema.NewRegistry()
	p := reg.Intern("p", 2)
	db := NewDB()
	db.Insert(atom.New(p, st.Const("a"), st.Const("a")))
	db.Insert(atom.New(p, st.Const("a"), st.Const("b")))
	db.Insert(atom.New(p, st.Const("c"), st.Const("c")))
	sp := CompileScan(p, []ScanArg{
		{Mode: ArgBind, Slot: 0},
		{Mode: ArgBound, Slot: 0}, // same variable: diagonal selection
	})
	frame := NewFrame(1)
	n := 0
	db.Probe(sp, frame, 0, 0, 1, func() bool { n++; return true })
	if n != 2 {
		t.Fatalf("diagonal matches = %d, want 2", n)
	}
}

// TestProbeSinceAndShards: the delta mark and shard residues compose and
// partition.
func TestProbeSinceAndShards(t *testing.T) {
	db, _, e := scanDB(t)
	sp := CompileScan(e, []ScanArg{
		{Mode: ArgBind, Slot: 0},
		{Mode: ArgBind, Slot: 1},
	})
	frame := NewFrame(2)
	n := 0
	db.Probe(sp, frame, Mark(5), 0, 1, func() bool { n++; return true })
	if n != 3 {
		t.Fatalf("since matches = %d, want 3", n)
	}
	total := 0
	for shard := 0; shard < 3; shard++ {
		db.Probe(sp, frame, Mark(5), shard, 3, func() bool { total++; return true })
	}
	if total != 3 {
		t.Fatalf("sharded since matches = %d, want 3", total)
	}
}
