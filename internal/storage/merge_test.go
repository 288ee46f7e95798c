package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

// mergeFixture builds a naming context with two predicates of different
// arities for the merge tests.
func mergeFixture() (*term.Store, schema.PredID, schema.PredID) {
	st := term.NewStore()
	reg := schema.NewRegistry()
	return st, reg.Intern("p", 2), reg.Intern("q", 1)
}

// TestMergeBuffersDedup: duplicates against the base instance, within one
// buffer, and across buffers all collapse to a single stored row.
func TestMergeBuffersDedup(t *testing.T) {
	st, p, q := mergeFixture()
	a, b, c := st.Const("a"), st.Const("b"), st.Const("c")

	db := NewDB()
	db.InsertArgs(p, []term.Term{a, b}) // pre-existing: must block the buffered copy

	b1, b2 := NewTupleBuffer(), NewTupleBuffer()
	b1.Append(p, []term.Term{a, b}) // dup vs base
	b1.Append(p, []term.Term{b, c}) // new
	b1.Append(p, []term.Term{b, c}) // dup within b1
	b1.Append(q, []term.Term{a})    // new
	b2.Append(p, []term.Term{b, c}) // dup across buffers
	b2.Append(p, []term.Term{c, a}) // new
	b2.Append(q, []term.Term{a})    // dup across buffers

	added := db.MergeBuffers([]*TupleBuffer{b1, b2}, 1)
	if added != 3 {
		t.Fatalf("added = %d, want 3", added)
	}
	if db.Len() != 4 {
		t.Fatalf("Len = %d, want 4", db.Len())
	}
	for _, want := range []atom.Atom{
		atom.New(p, a, b), atom.New(p, b, c), atom.New(p, c, a), atom.New(q, a),
	} {
		if !db.Contains(want) {
			t.Fatalf("missing %v", want)
		}
	}
	// Re-merging the same buffers must add nothing.
	if again := db.MergeBuffers([]*TupleBuffer{b1, b2}, 2); again != 0 {
		t.Fatalf("re-merge added %d", again)
	}
}

// TestMergeBuffersMatchesInsert: merging random buffers (with nil entries,
// empty buffers, and heavy duplication) is observationally identical to
// per-row insertion in the merge's documented order, for any par and into
// a clone that borrows its source's dedup tables, and preserves every
// store invariant the per-row path guarantees. Every
// fifth trial stages batches past 2048 rows over a base with tombstoned
// rows that the merge re-inserts; every third merges a batch past 2048
// rows into the borrowing clone. A live snapshot taken before the merge
// keeps the pre-merge instance, and merging the same buffers again adds
// nothing.
func TestMergeBuffersMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		st, p, q := mergeFixture()
		big, pinned := trial%5 == 0, trial%3 == 1
		nconst, nbase, nrows := 6, rng.Intn(10), 15
		switch {
		case big:
			nconst, nbase, nrows = 400, 3000, 4000
		case pinned:
			nconst, nbase = 40, 1+nbase
		}
		consts := make([]term.Term, nconst)
		for i := range consts {
			consts[i] = st.Const(fmt.Sprintf("c%d", i))
		}
		tuple := func() []term.Term {
			return []term.Term{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}
		}

		db := NewDB()
		for i := 0; i < nbase; i++ {
			db.InsertArgs(p, tuple())
		}
		var dead [][]term.Term
		if big {
			// Dead rows must be re-insertable.
			for ri := int32(0); ri < 200; ri++ {
				if db.Tombstone(p, ri) {
					dead = append(dead, db.relOf(p).args(ri))
				}
			}
		}
		nb := 1 + rng.Intn(4)
		bufs := make([]*TupleBuffer, nb+1) // one nil entry
		for bi := 0; bi < nb; bi++ {
			b := NewTupleBuffer()
			for i := 0; i < rng.Intn(nrows); i++ {
				if rng.Intn(3) == 0 {
					b.Append(q, []term.Term{consts[rng.Intn(len(consts))]})
				} else {
					b.Append(p, tuple())
				}
			}
			bufs[bi] = b
		}
		if big || pinned {
			b := NewTupleBuffer()
			for b.Len() < 2*2048 {
				b.Append(p, tuple())
			}
			bufs[nb] = b
		}

		// Reference: per-row insertion in merge order (predicates in
		// first-touched order, then buffer order, then append order).
		ref := db.Clone()
		var preds []schema.PredID
		seen := map[schema.PredID]bool{}
		for _, b := range bufs {
			if b == nil {
				continue
			}
			for _, pr := range b.touched {
				if !seen[pr] {
					seen[pr] = true
					preds = append(preds, pr)
				}
			}
		}
		refAdded := 0
		for _, pr := range preds {
			for _, b := range bufs {
				if b == nil || int(pr) >= len(b.bufs) || b.bufs[pr] == nil {
					continue
				}
				pb := b.bufs[pr]
				for k := 0; k < pb.rows(); k++ {
					if ref.InsertArgs(pr, pb.args(k)) {
						refAdded++
					}
				}
			}
		}

		par := 1 + rng.Intn(4)
		if pinned {
			// A clone of a pinned instance borrows its dedup tables, and
			// the source goes on filling them with rows the clone lacks
			// until they grow: the merge must copy them before it grows
			// them.
			defer db.Snapshot().Release()
		}
		got := db.Clone()
		for i := 0; pinned && i < 50; i++ {
			db.InsertArgs(p, tuple())
		}
		probeAt(got, p, 2, trial%2, consts[0]) // one position built, one not
		snap := got.Snapshot()
		before := snap.DB().All()
		added := got.MergeBuffers(bufs, par)
		if added != refAdded {
			t.Fatalf("trial %d: added = %d, want %d", trial, added, refAdded)
		}
		mustVerify(t, got, fmt.Sprintf("trial %d, par %d", trial, par))
		if got.Len() != ref.Len() {
			t.Fatalf("trial %d: Len = %d, want %d", trial, got.Len(), ref.Len())
		}
		refAll, gotAll := ref.All(), got.All()
		for i := range refAll {
			if !refAll[i].Equal(gotAll[i]) {
				t.Fatalf("trial %d: order[%d] = %v, want %v", trial, i, gotAll[i], refAll[i])
			}
		}
		// Store invariants after a bulk merge: every fact resolves through
		// the dedup table to the insertion index per-row insertion gave it,
		// and the positions probed answer alike.
		for i, a := range gotAll {
			gi, ok := got.IndexOf(a)
			wi, wok := ref.IndexOf(a)
			if !ok || !wok || gi != wi {
				t.Fatalf("trial %d: IndexOf(All[%d]) = %d,%v, want %d,%v", trial, i, gi, ok, wi, wok)
			}
		}
		for _, c := range consts[:min(len(consts), 50)] {
			for pos := 0; pos < 2; pos++ {
				if g, w := probeAt(got, p, 2, pos, c), probeAt(ref, p, 2, pos, c); g != w {
					t.Fatalf("trial %d: probe of %v at %d = %s, want %s", trial, c, pos, g, w)
				}
			}
		}
		revived := 0
		for _, args := range dead {
			if got.ContainsArgs(p, args) {
				revived++
			}
		}
		if big && revived == 0 {
			t.Fatalf("trial %d: no tombstoned fact was re-inserted", trial)
		}
		// The snapshot still holds exactly the pre-merge instance.
		mustVerify(t, snap.DB(), fmt.Sprintf("trial %d: snapshot", trial))
		after := snap.DB().All()
		if len(after) != len(before) {
			t.Fatalf("trial %d: snapshot Len = %d, want %d", trial, len(after), len(before))
		}
		for i := range before {
			if !before[i].Equal(after[i]) {
				t.Fatalf("trial %d: snapshot[%d] = %v, want %v", trial, i, after[i], before[i])
			}
		}
		snap.Release()
		if again := got.MergeBuffers(bufs, par); again != 0 {
			t.Fatalf("trial %d: re-merge added %d", trial, again)
		}
		mustVerify(t, got, fmt.Sprintf("trial %d: re-merged", trial))
	}
}

// TestMergeBuffersMarkWindow: facts merged after a mark form the delta
// window, exactly as per-row inserts would.
func TestMergeBuffersMarkWindow(t *testing.T) {
	st, p, _ := mergeFixture()
	db := NewDB()
	for i := 0; i < 5; i++ {
		db.InsertArgs(p, []term.Term{st.Const(fmt.Sprintf("a%d", i)), st.Const("z")})
	}
	mark := db.Mark()
	b := NewTupleBuffer()
	for i := 0; i < 7; i++ {
		b.Append(p, []term.Term{st.Const(fmt.Sprintf("b%d", i)), st.Const("z")})
	}
	b.Append(p, []term.Term{st.Const("a0"), st.Const("z")}) // dup: not part of the delta
	if added := db.MergeBuffers([]*TupleBuffer{b}, 1); added != 7 {
		t.Fatalf("added = %d, want 7", added)
	}
	sp := CompileScan(p, []ScanArg{{Mode: ArgBind, Slot: 0}, {Mode: ArgBind, Slot: 1}})
	frame := NewFrame(2)
	matched := 0
	db.Probe(sp, frame, mark, 0, 1, func() bool { matched++; return true })
	if matched != 7 {
		t.Fatalf("delta scan matched %d, want 7", matched)
	}
}

// TestTupleBufferReset: a reset buffer is empty but reusable, and appends
// after the reset behave like appends into a fresh buffer.
func TestTupleBufferReset(t *testing.T) {
	st, p, q := mergeFixture()
	b := NewTupleBuffer()
	b.Append(p, []term.Term{st.Const("a"), st.Const("b")})
	b.Append(q, []term.Term{st.Const("a")})
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	b.Reset()
	if b.Len() != 0 || len(b.touched) != 0 {
		t.Fatalf("reset buffer not empty: len=%d touched=%d", b.Len(), len(b.touched))
	}
	b.Append(q, []term.Term{st.Const("c")})
	db := NewDB()
	if added := db.MergeBuffers([]*TupleBuffer{b}, 1); added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	if !db.Contains(atom.New(q, st.Const("c"))) {
		t.Fatalf("missing q(c)")
	}
	if db.CountPred(p) != 0 {
		t.Fatalf("stale p rows survived the reset")
	}
}
