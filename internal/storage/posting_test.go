package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/term"
)

func mustVerify(t testing.TB, db *DB, label string) {
	t.Helper()
	if err := db.Verify(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// probeAt returns the tuples a scan keyed on constant c at position pos
// enumerates, in enumeration order — the posting path when the position's
// list is shorter than the relation.
func probeAt(db *DB, pred schema.PredID, arity, pos int, c term.Term) string {
	args := make([]ScanArg, arity)
	for i := range args {
		args[i] = ScanArg{Mode: ArgBind, Slot: i}
	}
	args[pos] = ScanArg{Mode: ArgConst, Const: c}
	sp := CompileScan(pred, args)
	frame := NewFrame(arity)
	var out []byte
	db.Probe(sp, frame, 0, 0, 1, func() bool {
		out = fmt.Appendf(out, "%v;", frame)
		return true
	})
	return string(out)
}

// builtAt reports position pos's watermark on db's relation of pred.
func builtAt(db *DB, pred schema.PredID, pos int) int {
	return int(db.relOf(pred).idx[pos].built)
}

// indexed returns db's live facts inserted in order into a fresh DB with
// every position of every relation built: the reference the lazily
// indexed stores must answer like. It shares nothing with db, so its
// builds never count as db's.
func indexed(db *DB) *DB {
	out := NewDB()
	out.InsertAll(db.All())
	for _, r := range out.rels {
		if r != nil {
			for i := range r.idx {
				r.catchUp(i)
			}
		}
	}
	return out
}

func postingFixture(rows, domain int) (*DB, schema.PredID, []term.Term) {
	st, p, _ := mergeFixture()
	consts := make([]term.Term, domain)
	for i := range consts {
		consts[i] = st.Const(fmt.Sprintf("k%d", i))
	}
	rng := rand.New(rand.NewSource(int64(rows)))
	db := NewDB()
	for db.Len() < rows {
		db.InsertArgs(p, []term.Term{consts[rng.Intn(domain)], consts[rng.Intn(domain)]})
	}
	return db, p, consts
}

// TestPostingsBuiltOnFirstProbe walks one position through its states on
// a writer-owned store: never built while only written, built whole by the
// first probe, behind after more writes, caught up by the next probe —
// and left alone by probes of the other position.
func TestPostingsBuiltOnFirstProbe(t *testing.T) {
	db, p, consts := postingFixture(500, 40)
	if builtAt(db, p, 0) != 0 || builtAt(db, p, 1) != 0 {
		t.Fatalf("inserts built postings: watermarks %d, %d", builtAt(db, p, 0), builtAt(db, p, 1))
	}
	mustVerify(t, db, "cold")
	ref := indexed(db)
	for _, c := range consts {
		if got, want := probeAt(db, p, 2, 1, c), probeAt(ref, p, 2, 1, c); got != want {
			t.Fatalf("first probe of %v: %q, want %q", c, got, want)
		}
	}
	if builtAt(db, p, 0) != 0 || builtAt(db, p, 1) != 500 {
		t.Fatalf("after probing position 1: watermarks %d, %d, want 0, 500", builtAt(db, p, 0), builtAt(db, p, 1))
	}
	for i := 0; i < 100; i++ {
		db.InsertArgs(p, []term.Term{consts[i%7], consts[(i+40-1)%40]})
	}
	n := db.CountPred(p)
	if builtAt(db, p, 1) != 500 {
		t.Fatalf("inserts moved the watermark to %d", builtAt(db, p, 1))
	}
	mustVerify(t, db, "behind")
	ref = indexed(db)
	for _, c := range consts {
		if got, want := probeAt(db, p, 2, 1, c), probeAt(ref, p, 2, 1, c); got != want {
			t.Fatalf("probe of %v after more inserts: %q, want %q", c, got, want)
		}
	}
	if builtAt(db, p, 0) != 0 || builtAt(db, p, 1) != n {
		t.Fatalf("after catch-up: watermarks %d, %d, want 0, %d", builtAt(db, p, 0), builtAt(db, p, 1), n)
	}
	mustVerify(t, db, "caught up")
}

// TestSnapshotCatchesUpBuiltPositions: a position that is built at all is
// current on every view taken afterwards, and a view's probe of it leaves
// no trace (no late build); a never-built one stays never built.
func TestSnapshotCatchesUpBuiltPositions(t *testing.T) {
	db, p, consts := postingFixture(300, 25)
	probeAt(db, p, 2, 0, consts[3])
	for i := 0; i < 50; i++ {
		db.InsertArgs(p, []term.Term{consts[i%25], consts[(i*7+1)%25]})
	}
	n := db.CountPred(p)
	if builtAt(db, p, 0) != 300 {
		t.Fatalf("watermark %d before the snapshot, want 300", builtAt(db, p, 0))
	}
	snap := db.Snapshot()
	defer snap.Release()
	sdb := snap.DB()
	if builtAt(sdb, p, 0) != n || builtAt(sdb, p, 1) != 0 {
		t.Fatalf("view watermarks %d, %d, want %d, 0", builtAt(sdb, p, 0), builtAt(sdb, p, 1), n)
	}
	mustVerify(t, sdb, "view")
	mustVerify(t, db, "source after Snapshot")
	before := obsLateBuilds.Load()
	ref := indexed(db)
	for _, c := range consts {
		if got, want := probeAt(sdb, p, 2, 0, c), probeAt(ref, p, 2, 0, c); got != want {
			t.Fatalf("view probe of %v: %q, want %q", c, got, want)
		}
	}
	if d := obsLateBuilds.Load() - before; d != 0 {
		t.Fatalf("%d late builds for a position the writer carries", d)
	}
}

// TestLateBuildOncePerView is the concurrent first-probe property: readers
// race to probe a never-built position of frozen views while the writer
// keeps inserting, publishing, tombstoning and compacting. Every view
// builds the position at most once, every answer equals a fully indexed
// copy's, and once a reader has asked, the writer's next view carries the
// position. Run under -race -cpu 1,2,4 in CI.
func TestLateBuildOncePerView(t *testing.T) {
	db, p, consts := postingFixture(2000, 60)
	type view struct {
		snap *Snapshot
		ref  *DB
	}
	publish := func() view { return view{snap: db.Snapshot(), ref: indexed(db)} }
	first := publish()
	lateBefore := obsLateBuilds.Load()

	const readers = 6
	var (
		mu    sync.Mutex
		views = []view{first}
		wg    sync.WaitGroup
		done  = make(chan struct{})
	)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				v := views[rng.Intn(len(views))]
				mu.Unlock()
				if n == 0 {
					v = first // every reader's first probe hits the same cold position
				}
				c := consts[rng.Intn(len(consts))]
				if got, want := probeAt(v.snap.DB(), p, 2, 1, c), probeAt(v.ref, p, 2, 1, c); got != want {
					t.Errorf("view probe of %v: %q, want %q", c, got, want)
					return
				}
			}
		}(int64(w))
	}
	rng := rand.New(rand.NewSource(99))
	for batch := 0; batch < 40; batch++ {
		for i := 0; i < 30; i++ {
			db.InsertArgs(p, []term.Term{consts[rng.Intn(60)], consts[rng.Intn(60)]})
		}
		if row, ok := db.FindRow(p, db.FactArgs(p, int32(rng.Intn(db.relOf(p).rows())))); ok {
			db.Tombstone(p, row)
		}
		if batch%8 == 7 {
			db.CompactAll(0.001)
			mustVerify(t, db, "source after CompactAll")
		}
		v := publish()
		mu.Lock()
		views = append(views, v)
		mu.Unlock()
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	// Build whatever no reader got to, then count: one build per view that
	// was taken with the position cold, none for the views taken after the
	// writer heard of it.
	cold := 0
	for _, v := range views {
		if builtAt(v.snap.DB(), p, 1) == 0 {
			cold++
		}
		probeAt(v.snap.DB(), p, 2, 1, consts[0])
		mustVerify(t, v.snap.DB(), "view after its late build")
	}
	if got := int(obsLateBuilds.Load() - lateBefore); got != cold {
		t.Fatalf("%d late builds for %d views taken with the position cold", got, cold)
	}
	t.Logf("%d of %d views were taken before the writer heard a reader wanted the position", cold, len(views))
	// Whoever built it first asked the writer to carry it: the next view
	// has it current, through the compactions that replaced the relation.
	next := db.Snapshot()
	if got, want := builtAt(next.DB(), p, 1), next.DB().relOf(p).rows(); got != want {
		t.Fatalf("the writer did not take the position over: next view's watermark %d of %d rows", got, want)
	}
	mustVerify(t, db, "source")
	next.Release()
	for _, v := range views {
		v.snap.Release()
	}
}

// TestOverlaysShareOneLateBuild: the demand-view path makes a throwaway
// overlay per query, so a cold position of a relation the overlays only
// read must be built once on the view they share, not once per overlay —
// while an overlay that writes the relation owns what it builds.
func TestOverlaysShareOneLateBuild(t *testing.T) {
	db, p, consts := postingFixture(1500, 50)
	snap := db.Snapshot()
	defer snap.Release()
	ref := indexed(db)
	before := obsLateBuilds.Load()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				ov := snap.DB().Overlay()
				c := consts[(w*25+k)%50]
				if got, want := probeAt(ov, p, 2, 0, c), probeAt(ref, p, 2, 0, c); got != want {
					t.Errorf("overlay probe of %v: %q, want %q", c, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d := obsLateBuilds.Load() - before; d != 1 {
		t.Fatalf("%d builds for 100 overlays of one view, want 1", d)
	}
	ov := snap.DB().Overlay()
	ov.InsertArgs(p, []term.Term{consts[0], consts[0]}) // detaches p
	ref.InsertArgs(p, []term.Term{consts[0], consts[0]})
	ref = indexed(ref)
	for _, c := range consts {
		if got, want := probeAt(ov, p, 2, 0, c), probeAt(ref, p, 2, 0, c); got != want {
			t.Fatalf("detached overlay probe of %v: %q, want %q", c, got, want)
		}
	}
	mustVerify(t, ov, "detached overlay")
	mustVerify(t, snap.DB(), "view under the overlays")
	if d := obsLateBuilds.Load() - before; d != 1 {
		t.Fatalf("a detached overlay's build counted as the view's (%d)", d)
	}
}

// TestLateBuildSurvivesOwn: a position a reader built late on a view
// covers exactly the rows an overlay of it holds, so the overlay's first
// append keeps that build as the position's frozen base and indexes the
// new rows into a tail, instead of rebuilding the position from row 0 —
// for a Clone, and for an overlay whose view readers keep probing the
// shared build meanwhile. Run under -race -cpu 1,2,4,8 in CI.
func TestLateBuildSurvivesOwn(t *testing.T) {
	db, p, consts := postingFixture(1000, 50)
	watermarks := func(d *DB) (int, int) {
		pos := d.relOf(p).idx[0]
		return int(pos.split), int(pos.built)
	}
	agree := func(d *DB, label string) {
		t.Helper()
		ref := indexed(d)
		for _, c := range consts {
			if got, want := probeAt(d, p, 2, 0, c), probeAt(ref, p, 2, 0, c); got != want {
				t.Fatalf("%s: probe of %v: %q, want %q", label, c, got, want)
			}
		}
		mustVerify(t, d, label)
	}
	// appendRow inserts the first pair from the k-th on that d lacks.
	appendRow := func(d *DB, k int) {
		for ; !d.InsertArgs(p, []term.Term{consts[k%50], consts[k/50%50]}); k++ {
		}
	}

	cl := db.Clone()
	probeAt(cl, p, 2, 0, consts[0]) // a late build over the clone's 1000 rows
	appendRow(cl, 0)
	agree(cl, "clone after its first append")
	if split, built := watermarks(cl); split != 1000 || built != 1001 {
		t.Fatalf("clone: split %d, built %d, want 1000, 1001", split, built)
	}

	snap := db.Snapshot()
	defer snap.Release()
	view := snap.DB()
	probeAt(view, p, 2, 0, consts[0])
	ov := view.Overlay()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				probeAt(view, p, 2, 0, consts[(w+k)%len(consts)])
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		appendRow(ov, 37*i)
		probeAt(ov, p, 2, 0, consts[i%50])
	}
	close(done)
	wg.Wait()
	agree(ov, "overlay after 50 appends")
	if split, built := watermarks(ov); split != 1000 || built != 1050 {
		t.Fatalf("overlay: split %d, built %d, want 1000, 1050", split, built)
	}
	agree(view, "view under the overlay")
}

// BenchmarkProbeFrozen pins the steady-state cost of a probe of a built
// position on a frozen view — the path every service read takes — so the
// watermark check in relation.posting stays a compare, not a lock or an
// atomic. A development aid, not a ledger entry.
func BenchmarkProbeFrozen(b *testing.B) {
	db, p, consts := postingFixture(50000, 2000)
	probeAt(db, p, 2, 0, consts[0])
	snap := db.Snapshot()
	defer snap.Release()
	sdb := snap.DB()
	sp := CompileScan(p, []ScanArg{{Mode: ArgBound, Slot: 0}, {Mode: ArgBind, Slot: 1}})
	frame := NewFrame(2)
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame[0] = consts[i%len(consts)]
		sdb.Probe(sp, frame, 0, 0, 1, func() bool { rows++; return true })
	}
	if rows == 0 {
		b.Fatal("no rows")
	}
}
