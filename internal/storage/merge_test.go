package storage

import (
	"fmt"
	"math/rand"
	"runtime"
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
// per-row insertion in the merge's documented order, for any par, and
// preserves every store invariant the per-row path guarantees.
func TestMergeBuffersMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		st, p, q := mergeFixture()
		consts := make([]term.Term, 6)
		for i := range consts {
			consts[i] = st.Const(fmt.Sprintf("c%d", i))
		}
		tuple := func() []term.Term {
			return []term.Term{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}
		}

		db := NewDB()
		for i := 0; i < rng.Intn(10); i++ {
			db.InsertArgs(p, tuple())
		}
		nb := 1 + rng.Intn(4)
		bufs := make([]*TupleBuffer, nb+1) // one nil entry
		for bi := 0; bi < nb; bi++ {
			b := NewTupleBuffer()
			for i := 0; i < rng.Intn(15); i++ {
				if rng.Intn(3) == 0 {
					b.Append(q, []term.Term{consts[rng.Intn(len(consts))]})
				} else {
					b.Append(p, tuple())
				}
			}
			bufs[bi] = b
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
		got := db.Clone()
		probeAt(got, p, 2, trial%2, consts[0]) // one position built, one not
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
		// Store invariants after a bulk merge: IndexOf agrees with the
		// insertion log, and Mark windows see exactly the merged facts.
		for i, a := range gotAll {
			if gi, ok := got.IndexOf(a); !ok || gi != i {
				t.Fatalf("trial %d: IndexOf(All[%d]) = %d,%v", trial, i, gi, ok)
			}
		}
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
	if n := db.CountSince(p, mark); n != 7 {
		t.Fatalf("CountSince = %d, want 7", n)
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

// TestMergeShardedMatchesSerial: past the sharded-merge threshold the
// intra-relation parallel fold must be byte-identical to the serial merge
// — same accepted set, same insertion order, same indexes — including
// cross-buffer duplicates, duplicates against a base instance with
// tombstoned rows, and a snapshot forcing detach mid-merge.
func TestMergeShardedMatchesSerial(t *testing.T) {
	// MergeBuffers clamps par to GOMAXPROCS; raise it so the sharded path
	// actually runs even when this test executes on a single-CPU box
	// without a -cpu flag.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(41))
	st, p, q := mergeFixture()
	consts := make([]term.Term, 400)
	for i := range consts {
		consts[i] = st.Const(fmt.Sprintf("k%d", i))
	}
	tuple := func() []term.Term {
		return []term.Term{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}
	}
	base := NewDB()
	for i := 0; i < 3000; i++ {
		base.InsertArgs(p, tuple())
	}
	// Tombstone a slice of the base: dead rows must be re-insertable.
	for ri := int32(0); ri < 200; ri++ {
		base.Tombstone(p, ri)
	}
	nb := 4
	bufs := make([]*TupleBuffer, nb)
	for bi := range bufs {
		b := NewTupleBuffer()
		for i := 0; i < 4000; i++ {
			b.Append(p, tuple()) // far past shardedMergeRows, heavy duplication
			if i%5 == 0 {
				b.Append(q, []term.Term{consts[rng.Intn(len(consts))]})
			}
		}
		bufs[bi] = b
	}
	// Position 0 is built and current, so phase C extends it; position 1
	// was never probed and must come out of the merge still unbuilt.
	probeAt(base, p, 2, 0, consts[0])
	serial := base.Clone()
	wantAdded := serial.MergeBuffers(bufs, 1)
	mustVerify(t, serial, "serial")
	if builtAt(serial, p, 0) != base.relOf(p).rows() {
		t.Fatalf("serial merge moved a watermark: %d, want %d", builtAt(serial, p, 0), base.relOf(p).rows())
	}
	for _, par := range []int{2, 4, 8} {
		got := base.Clone()
		// A live snapshot marks every relation shared: the sharded path
		// must detach before phase C mutates sub-tables and postings.
		snap := got.Snapshot()
		added := got.MergeBuffers(bufs, par)
		if added != wantAdded {
			t.Fatalf("par %d: added = %d, want %d", par, added, wantAdded)
		}
		mustVerify(t, got, fmt.Sprintf("par %d", par))
		mustVerify(t, snap.DB(), fmt.Sprintf("par %d: view detached from", par))
		if builtAt(got, p, 0) != got.relOf(p).rows() || builtAt(got, p, 1) != 0 {
			t.Fatalf("par %d: watermarks %d, %d of %d rows; want the built position extended, the other left alone",
				par, builtAt(got, p, 0), builtAt(got, p, 1), got.relOf(p).rows())
		}
		for _, c := range consts[:50] {
			if g, w := probeAt(got, p, 2, 0, c)+probeAt(got, p, 2, 1, c), probeAt(serial, p, 2, 0, c)+probeAt(serial, p, 2, 1, c); g != w {
				t.Fatalf("par %d: probes of %v differ from the serial merge's", par, c)
			}
		}
		if got.Len() != serial.Len() {
			t.Fatalf("par %d: Len = %d, want %d", par, got.Len(), serial.Len())
		}
		gotAll, wantAll := got.All(), serial.All()
		for i := range wantAll {
			if !wantAll[i].Equal(gotAll[i]) {
				t.Fatalf("par %d: order[%d] = %v, want %v", par, i, gotAll[i], wantAll[i])
			}
		}
		// Index integrity: every merged fact resolves through the dedup
		// table to the same global log position as under the serial merge
		// (dead base rows make log positions differ from All() positions).
		for i, a := range gotAll {
			gi, ok := got.IndexOf(a)
			wi, wok := serial.IndexOf(a)
			if !ok || !wok || gi != wi {
				t.Fatalf("par %d: IndexOf(All[%d]) = %d,%v, want %d,%v", par, i, gi, ok, wi, wok)
			}
		}
		// The snapshot still sees exactly the pre-merge state.
		if snap.DB().Len() != base.Len() {
			t.Fatalf("par %d: snapshot Len = %d, want %d", par, snap.DB().Len(), base.Len())
		}
		snap.Release()
		// Dedup-table and posting invariants on the merged result.
		mustVerify(t, got, fmt.Sprintf("par %d", par))
		// Re-merge must be a no-op at any par.
		if again := got.MergeBuffers(bufs, par); again != 0 {
			t.Fatalf("par %d: re-merge added %d", par, again)
		}
	}
}

// TestMergeShardedAcceptRace is the lost-fact regression: phase A's jobs
// mark accepted rows in bitmap words they share (rows of different hash
// sub-shards interleave within one word), so with plain |= marks a bulk
// load dropped facts on a multi-core box. One all-distinct buffer far
// past shardedMergeRows, merged 50 times, must land row for row where
// the serial merge put it, every time. CI runs it under -race -cpu 2,4.
func TestMergeShardedAcceptRace(t *testing.T) {
	st, p, _ := mergeFixture()
	const rows = 8192
	buf := NewTupleBuffer()
	for i := 0; i < rows; i++ {
		buf.Append(p, []term.Term{st.Const(fmt.Sprintf("a%d", i)), st.Const(fmt.Sprintf("b%d", i%97))})
	}
	bufs := []*TupleBuffer{buf}
	serial := NewDB()
	if added := serial.MergeBuffers(bufs, 1); added != rows {
		t.Fatalf("serial merge added %d, want %d", added, rows)
	}
	want := serial.All()
	par := max(2, runtime.GOMAXPROCS(0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par)) // MergeBuffers clamps par to it
	for i := 0; i < 50; i++ {
		got := NewDB()
		if added := got.MergeBuffers(bufs, par); added != rows {
			t.Fatalf("merge %d: added %d of %d rows", i, added, rows)
		}
		// Same rows at the same log positions, each linked into the dedup
		// table (a segment's posting sections follow map order, so the
		// comparison is on the log, not on AppendSegment bytes).
		for g, a := range got.All() {
			if gi, ok := got.IndexOf(a); !a.Equal(want[g]) || !ok || gi != g {
				t.Fatalf("merge %d: log[%d] = %v (IndexOf %d,%v), serial has %v", i, g, a, gi, ok, want[g])
			}
		}
	}
}
