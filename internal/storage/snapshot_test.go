package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/term"
)

// snapAtoms renders a DB state as a deterministic fact list for equality
// checks (insertion order, live rows only).
func snapAtoms(db *DB) []atom.Atom { return db.All() }

func atomsEqual(a, b []atom.Atom) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestSnapshotIsolatesWriterMutations: a snapshot observes exactly the
// facts live at capture, through every read path, while the source keeps
// inserting, tombstoning, re-inserting, and compacting.
func TestSnapshotIsolatesWriterMutations(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 2)
	db := NewDB()
	mk := func(i int) atom.Atom {
		return atom.New(p, prog.Store.Const(fmt.Sprintf("a%d", i)), prog.Store.Const(fmt.Sprintf("b%d", i)))
	}
	for i := 0; i < 50; i++ {
		db.Insert(mk(i))
	}
	snap := db.Snapshot()
	defer snap.Release()
	want := snapAtoms(snap.DB())
	if len(want) != 50 {
		t.Fatalf("snapshot captured %d facts, want 50", len(want))
	}

	// Churn the source: new inserts, deletes of captured facts, re-inserts,
	// and a compaction attempt.
	for i := 50; i < 120; i++ {
		db.Insert(mk(i))
	}
	for i := 0; i < 50; i += 2 {
		row, ok := db.FindRow(p, mk(i).Args)
		if !ok {
			t.Fatalf("fact %d lost", i)
		}
		db.Tombstone(p, row)
	}
	db.Insert(mk(0)) // re-insert one deleted fact as a fresh row
	db.Compact(0.01)

	sdb := snap.DB()
	if got := snapAtoms(sdb); !atomsEqual(got, want) {
		t.Fatalf("snapshot drifted: %d facts, want %d", len(got), len(want))
	}
	if sdb.Len() != 50 || sdb.CountPred(p) != 50 {
		t.Fatalf("snapshot Len/CountPred = %d/%d, want 50/50", sdb.Len(), sdb.CountPred(p))
	}
	for i := 0; i < 50; i++ {
		if !sdb.Contains(mk(i)) {
			t.Fatalf("snapshot lost fact %d", i)
		}
	}
	if sdb.Contains(mk(70)) {
		t.Fatalf("snapshot sees post-capture insert")
	}
	// Probe paths: full scan, posting probe, and the ground-lookup fast path.
	full := CompileScan(p, []ScanArg{{Mode: ArgBind, Slot: 0}, {Mode: ArgBind, Slot: 1}})
	frame := NewFrame(2)
	n := 0
	sdb.Probe(full, frame, 0, 0, 1, func() bool { n++; return true })
	if n != 50 {
		t.Fatalf("snapshot full Probe = %d rows, want 50", n)
	}
	a7 := mk(7)
	ground := CompileScan(p, []ScanArg{
		{Mode: ArgConst, Const: a7.Args[0]}, {Mode: ArgConst, Const: a7.Args[1]}})
	hit := false
	sdb.Probe(ground, frame, 0, 0, 1, func() bool { hit = true; return true })
	if !hit {
		t.Fatalf("snapshot ground lookup missed a captured fact")
	}

	// The source sees its own state, not the snapshot's.
	if db.Len() != 120-25+1 {
		t.Fatalf("source Len = %d, want %d", db.Len(), 120-25+1)
	}
	// A fresh snapshot sees the new state.
	snap2 := db.Snapshot()
	defer snap2.Release()
	if got := snap2.DB().Len(); got != db.Len() {
		t.Fatalf("fresh snapshot Len = %d, want %d", got, db.Len())
	}
}

// TestSnapshotPinsDeferCompact: a live snapshot defers physical
// reclamation of the relations it pins; Release re-enables it.
func TestSnapshotPinsDeferCompact(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1)
	db := NewDB()
	var atoms []atom.Atom
	for i := 0; i < 100; i++ {
		a := atom.New(p, prog.Store.Const(fmt.Sprintf("k%d", i)))
		atoms = append(atoms, a)
		db.Insert(a)
	}
	snap := db.Snapshot()
	for i := 0; i < 100; i += 2 {
		row, _ := db.FindRow(p, atoms[i].Args)
		db.Tombstone(p, row)
	}
	if n := db.Compact(0.1); n != 0 {
		t.Fatalf("Compact reclaimed %d rows from a pinned relation", n)
	}
	if db.dead != 50 {
		t.Fatalf("dead = %d after deferred compact, want 50", db.dead)
	}
	if got := snap.DB().Len(); got != 100 {
		t.Fatalf("snapshot Len = %d, want 100", got)
	}
	snap.Release()
	if n := db.Compact(0.1); n != 50 {
		t.Fatalf("post-release Compact reclaimed %d, want 50", n)
	}
	if db.Len() != 50 || db.dead != 0 {
		t.Fatalf("post-release state Len=%d dead=%d", db.Len(), db.dead)
	}
	snap.Release() // idempotent
}

// TestSnapshotFrozenViewPanics: every mutating entry point panics on a
// snapshot view, and Clone of the view is mutable again.
func TestSnapshotFrozenViewPanics(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1)
	db := NewDB()
	a := atom.New(p, prog.Store.Const("x"))
	db.Insert(a)
	snap := db.Snapshot()
	defer snap.Release()
	sdb := snap.DB()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on frozen view did not panic", name)
			}
		}()
		f()
	}
	b := atom.New(p, prog.Store.Const("y"))
	mustPanic("Insert", func() { sdb.Insert(b) })
	mustPanic("Tombstone", func() { sdb.Tombstone(p, 0) })
	mustPanic("InsertArgs", func() { sdb.InsertArgs(p, b.Args) })
	mustPanic("Compact", func() { sdb.Compact(0) })
	mustPanic("Snapshot", func() { sdb.Snapshot() })
	mustPanic("MergeBuffers", func() { sdb.MergeBuffers(nil, 1) })

	cl := sdb.Clone()
	if !cl.Insert(b) {
		t.Fatalf("Clone of a snapshot view rejected an insert")
	}
	if sdb.Len() != 1 || db.Len() != 1 {
		t.Fatalf("clone mutation leaked into view or source")
	}
}

// TestCloneLeavesNoTrace: a Clone of a live DB overlays a snapshot it
// releases at once and hears only its own probes. So a Compact of the
// source right after the Clone reclaims instead of deferring to a pin,
// and the clone's probe of a never-built position leaves the source's
// next view without it.
func TestCloneLeavesNoTrace(t *testing.T) {
	db, p, consts := postingFixture(400, 30)
	for ri := int32(0); ri < 100; ri++ {
		db.Tombstone(p, ri)
	}
	cl := db.Clone()
	if got := db.Compact(0.1); got != 100 {
		t.Fatalf("Compact right after Clone reclaimed %d rows, want 100", got)
	}
	ref := indexed(cl)
	for _, c := range consts {
		if got, want := probeAt(cl, p, 2, 1, c), probeAt(ref, p, 2, 1, c); got != want {
			t.Fatalf("clone probe of %v: %q, want %q", c, got, want)
		}
	}
	mustVerify(t, cl, "clone of the compacted source")
	snap := db.Snapshot()
	defer snap.Release()
	if got := builtAt(snap.DB(), p, 1); got != 0 {
		t.Fatalf("the clone's probe made the source build position 1 (watermark %d)", got)
	}
}

// TestSnapshotConcurrentIsolation is the randomized snapshot-isolation
// property test: a single writer applies random insert / delete /
// re-insert / compact batches and publishes a snapshot (with its expected
// fact list) after each, while reader goroutines continuously verify
// published snapshots — full state equality plus probe spot-checks —
// against the state recorded at capture. Readers must never observe
// in-flight inserts, tombstones, or compaction moves. Run under
// -race -cpu 1,2,4 in CI.
func TestSnapshotConcurrentIsolation(t *testing.T) {
	prog := logic.NewProgram()
	preds := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 1}, {"r", 3}}
	ids := make([]struct {
		id    int32
		arity int
	}, len(preds))
	for i, pc := range preds {
		ids[i] = struct {
			id    int32
			arity int
		}{int32(prog.Reg.Intern(pc.name, pc.arity)), pc.arity}
	}
	// Pre-intern every constant the writer will use: term.Store is not
	// concurrency-safe, and readers render via the same store.
	consts := make([]term.Term, 40)
	for i := range consts {
		consts[i] = prog.Store.Const(fmt.Sprintf("c%d", i))
	}

	type published struct {
		snap   *Snapshot
		expect []atom.Atom
	}
	var (
		mu   sync.Mutex
		pubs []published
		done = make(chan struct{})
	)

	db := NewDB()
	ref := newRefLiveDB()
	rng := rand.New(rand.NewSource(211))
	mk := func() atom.Atom {
		pc := preds[rng.Intn(len(preds))]
		id := prog.Reg.Intern(pc.name, pc.arity)
		args := make([]term.Term, pc.arity)
		for j := range args {
			args[j] = consts[rng.Intn(len(consts))]
		}
		return atom.New(id, args...)
	}

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				if len(pubs) == 0 {
					mu.Unlock()
					continue
				}
				pub := pubs[rng.Intn(len(pubs))]
				mu.Unlock()
				sdb := pub.snap.DB()
				got := sdb.All()
				if !atomsEqual(got, pub.expect) {
					errs <- fmt.Errorf("snapshot state drifted: %d facts, want %d", len(got), len(pub.expect))
					return
				}
				if sdb.Len() != len(pub.expect) {
					errs <- fmt.Errorf("snapshot Len = %d, want %d", sdb.Len(), len(pub.expect))
					return
				}
				// Spot-check the probe paths on a random expected fact.
				if len(pub.expect) > 0 {
					a := pub.expect[rng.Intn(len(pub.expect))]
					if !sdb.Contains(a) {
						errs <- fmt.Errorf("snapshot lost %v via dedup lookup", a)
						return
					}
					args := make([]ScanArg, len(a.Args))
					for i, c := range a.Args {
						args[i] = ScanArg{Mode: ArgConst, Const: c}
					}
					sp := CompileScan(a.Pred, args)
					hit := false
					sdb.Probe(sp, nil, 0, 0, 1, func() bool { hit = true; return true })
					if !hit {
						errs <- fmt.Errorf("snapshot ground probe missed %v", a)
						return
					}
				}
			}
		}(int64(300 + w))
	}

	// Writer: 80 batches of random mutations, a snapshot published after
	// each. Compaction is attempted regularly; with every snapshot still
	// pinned it defers, which is itself part of the contract under test.
	for batch := 0; batch < 80; batch++ {
		for op := 0; op < 10; op++ {
			switch {
			case len(ref.rows) > 0 && rng.Intn(3) == 0:
				a := ref.rows[rng.Intn(len(ref.rows))]
				row, ok := db.FindRow(a.Pred, a.Args)
				if !ok {
					t.Fatalf("batch %d: live fact has no row", batch)
				}
				db.Tombstone(a.Pred, row)
				ref.delete(a)
			case rng.Intn(8) == 0 && db.dead > 0:
				db.Compact(0.01)
			default:
				a := mk()
				want := ref.insert(a)
				if got := db.Insert(a); got != want {
					t.Fatalf("batch %d: Insert = %v, reference says %v", batch, got, want)
				}
			}
		}
		snap := db.Snapshot()
		expect := make([]atom.Atom, len(ref.rows))
		for i, a := range ref.rows {
			expect[i] = a.Clone()
		}
		mu.Lock()
		pubs = append(pubs, published{snap: snap, expect: expect})
		mu.Unlock()
		select {
		case err := <-errs:
			close(done)
			wg.Wait()
			t.Fatal(err)
		default:
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Final writer state matches the sequential reference, snapshots still
	// verify, and releasing them re-enables full reclamation.
	checkLiveEquivalence(t, prog, db, ref, "final")
	mu.Lock()
	for _, pub := range pubs {
		if got := pub.snap.DB().Len(); got != len(pub.expect) {
			t.Fatalf("post-run snapshot Len = %d, want %d", got, len(pub.expect))
		}
		pub.snap.Release()
	}
	mu.Unlock()
	db.Compact(0)
	if db.dead != 0 {
		t.Fatalf("dead = %d after post-release full compact", db.dead)
	}
	checkLiveEquivalence(t, prog, db, ref, "post-compact")
}

// TestCompactLocalized: compacting one churning relation leaves the other
// relations' row handles, marks, and insertion spans completely untouched,
// and the insertion-log holes stay invisible to every read path until the
// squash reclaims them.
func TestCompactLocalized(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1) // churning
	q := prog.Reg.Intern("q", 1) // stable
	db := NewDB()
	mkP := func(i int) atom.Atom { return atom.New(p, prog.Store.Const(fmt.Sprintf("p%d", i))) }
	mkQ := func(i int) atom.Atom { return atom.New(q, prog.Store.Const(fmt.Sprintf("q%d", i))) }
	// Interleave inserts so the two relations share the log.
	for i := 0; i < 100; i++ {
		db.Insert(mkP(i))
		db.Insert(mkQ(i))
	}
	mark := db.Mark()
	for i := 100; i < 120; i++ {
		db.Insert(mkQ(i))
	}
	qRows := make([]int32, 120)
	for i := 0; i < 120; i++ {
		row, ok := db.FindRow(q, mkQ(i).Args)
		if !ok {
			t.Fatalf("q%d missing", i)
		}
		qRows[i] = row
	}
	// Kill most of p; q is untouched, so only p crosses the threshold.
	for i := 0; i < 100; i += 2 {
		row, _ := db.FindRow(p, mkP(i).Args)
		db.Tombstone(p, row)
	}
	if n := db.Compact(0.4); n != 50 {
		t.Fatalf("Compact reclaimed %d, want 50", n)
	}
	// q handles, counts, and the outstanding mark survive the compaction.
	for i := 0; i < 120; i++ {
		row, ok := db.FindRow(q, mkQ(i).Args)
		if !ok || row != qRows[i] {
			t.Fatalf("q%d handle moved: %d -> %d (ok=%v)", i, qRows[i], row, ok)
		}
	}
	if got := windowCounter(db, q)(mark); got != 20 {
		t.Fatalf("window count (q, mark) = %d after localized compact, want 20", got)
	}
	if db.Len() != 50+120 || db.CountPred(p) != 50 {
		t.Fatalf("Len=%d CountPred(p)=%d, want 170/50", db.Len(), db.CountPred(p))
	}
	// p survivors are probeable and the relation is physically packed.
	for i := 1; i < 100; i += 2 {
		if !db.Contains(mkP(i)) {
			t.Fatalf("p%d lost by localized compact", i)
		}
	}
	if r := db.relOf(p); r.rows() != 50 || r.nDead != 0 {
		t.Fatalf("p relation not packed: rows=%d nDead=%d", r.rows(), r.nDead)
	}
	// Drive churn until holes dominate: the squash drops them and resets
	// the log without losing observational state.
	for round := 0; round < 6; round++ {
		for i := 0; i < 200; i++ {
			db.Insert(mkP(10000 + 1000*round + i))
		}
		for i := 0; i < 200; i++ {
			row, _ := db.FindRow(p, mkP(10000+1000*round+i).Args)
			db.Tombstone(p, row)
		}
		db.Compact(0.4)
	}
	if db.holes != 0 {
		t.Fatalf("holes = %d after squash-worthy churn, want 0", db.holes)
	}
	if db.Len() != 170 {
		t.Fatalf("Len = %d after churn, want 170", db.Len())
	}
	for i := 0; i < 120; i++ {
		if !db.Contains(mkQ(i)) {
			t.Fatalf("q%d lost after squash", i)
		}
	}
	if got := len(db.All()); got != 170 {
		t.Fatalf("All = %d rows after squash, want 170", got)
	}
}

// TestOverlaySnapshotSharesUnwritten: an overlay holds its source view's
// frozen relations until it writes one, and a snapshot of it hands out
// each relation the overlay never wrote as that frozen relation, with a
// header of its own only for a relation it appended to or tombstoned in —
// so building and publishing an overlay with one derived relation costs
// the same whatever the instance's relation count. The snapshot holds
// exactly the overlay's facts either way.
func TestOverlaySnapshotSharesUnwritten(t *testing.T) {
	prog := logic.NewProgram()
	db := NewDB()
	const rels = 24
	preds := make([]atom.Atom, 0, rels)
	for i := range rels {
		p := prog.Reg.Intern(fmt.Sprintf("r%d", i), 2)
		for j := range 8 {
			a := atom.New(p, prog.Store.Const(fmt.Sprintf("a%d", j)), prog.Store.Const(fmt.Sprintf("b%d", j)))
			db.Insert(a)
			if j == 0 {
				preds = append(preds, a)
			}
		}
	}
	base := db.Snapshot()
	defer base.Release()
	view := base.DB()
	fresh := prog.Reg.Intern("derived", 1)
	ov := view.Overlay()
	ov.Insert(atom.New(fresh, prog.Store.Const("x")))
	ov.Insert(atom.New(preds[3].Pred, prog.Store.Const("new"), prog.Store.Const("row")))
	row, _ := ov.FindRow(preds[5].Pred, preds[5].Args)
	ov.Tombstone(preds[5].Pred, row)

	snap := ov.Snapshot()
	defer snap.Release()
	got := snap.DB()
	for i, a := range preds {
		shared := got.relOf(a.Pred) == view.relOf(a.Pred)
		if written := i == 3 || i == 5; shared == written {
			t.Fatalf("relation r%d: shared with the source view %v, written by the overlay %v", i, shared, written)
		}
	}
	if !atomsEqual(snapAtoms(got), snapAtoms(ov)) {
		t.Fatal("the overlay's snapshot differs from the overlay")
	}
	mustVerify(t, got, "snapshot of an overlay")

	// Overlaying the view and publishing the overlay cost what the
	// overlay wrote: one derived relation beside 24 untouched ones takes a
	// handful of objects (a header per relation, as each of the two steps
	// once copied, is over a hundred).
	allocs := testing.AllocsPerRun(50, func() {
		o := view.Overlay()
		o.Insert(atom.New(fresh, prog.Store.Const("x")))
		o.Snapshot().Release()
	})
	if allocs > 20 {
		t.Fatalf("overlay, one insert and its snapshot over %d relations allocate %v objects", rels, allocs)
	}
}
