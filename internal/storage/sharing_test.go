package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/schema"
	"repro/internal/term"
)

// tuple2 is one binary fact of the sharing suite's model.
type tuple2 [2]term.Term

// epochModel is the instance recorded when a view was published: its live
// tuples in insertion order, and every tuple that was ever stored up to
// then (the ground lookups that must miss).
type epochModel struct {
	live []tuple2
	gone []tuple2
}

func (m *epochModel) has(tp tuple2) bool { return slices.Contains(m.live, tp) }

// probe is what a scan keyed on c at position pos must enumerate, rendered
// as probeAt renders it: the keyed position's slot stays unbound.
func (m *epochModel) probe(pos int, c term.Term) string {
	var out []byte
	for _, tp := range m.live {
		if tp[pos] == c {
			tp[pos] = Unbound
			out = fmt.Appendf(out, "%v;", tp[:])
		}
	}
	return string(out)
}

// check holds every read path of db — ground lookups, keyed probes of both
// positions, the full scan — to the model.
func (m *epochModel) check(db *DB, p schema.PredID, consts []term.Term, rng *rand.Rand) error {
	facts := db.Facts(p)
	if len(facts) != len(m.live) || db.CountPred(p) != len(m.live) {
		return fmt.Errorf("full scan: %d facts (count %d), recorded %d", len(facts), db.CountPred(p), len(m.live))
	}
	for i, a := range facts {
		if tuple2(a.Args) != m.live[i] {
			return fmt.Errorf("full scan: row %d is %v, recorded %v", i, a.Args, m.live[i])
		}
	}
	for k := 0; k < 8; k++ {
		c := consts[rng.Intn(len(consts))]
		for pos := 0; pos < 2; pos++ {
			if got, want := probeAt(db, p, 2, pos, c), m.probe(pos, c); got != want {
				return fmt.Errorf("probe of position %d for %v: %q, recorded %q", pos, c, got, want)
			}
		}
		if tp := m.live[rng.Intn(len(m.live))]; !db.ContainsArgs(p, tp[:]) {
			return fmt.Errorf("ground lookup misses recorded %v", tp)
		}
		if len(m.gone) > 0 {
			if tp := m.gone[rng.Intn(len(m.gone))]; db.ContainsArgs(p, tp[:]) != m.has(tp) {
				return fmt.Errorf("ground lookup of %v: %v, recorded %v", tp, !m.has(tp), m.has(tp))
			}
		}
	}
	return nil
}

// secondWriter takes an Overlay and a Clone of a view the live writer has
// moved on from and inserts into both: tuples the view holds (duplicates),
// tuples only the live writer stored since (new here), and tuples nobody
// stored. Each copy must end up with exactly the view's facts plus its
// own, and leave the view as recorded.
func secondWriter(view *DB, m *epochModel, p schema.PredID, later []tuple2, consts []term.Term, rng *rand.Rand) error {
	for name, cp := range map[string]*DB{"overlay": view.Overlay(), "clone": view.Clone()} {
		own := &epochModel{live: slices.Clone(m.live), gone: m.gone}
		for k := 0; k < 60; k++ {
			var tp tuple2
			switch {
			case k%3 == 0 && len(later) > 0:
				tp = later[rng.Intn(len(later))]
			case k%3 == 1:
				tp = m.live[rng.Intn(len(m.live))]
			default:
				tp = tuple2{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}
			}
			isNew := !own.has(tp)
			if got := cp.InsertArgs(p, tp[:]); got != isNew {
				return fmt.Errorf("%s: insert of %v new=%v, want %v", name, tp, got, isNew)
			}
			if isNew {
				own.live = append(own.live, tp)
			}
		}
		k := rng.Intn(len(own.live))
		row, _ := cp.FindRow(p, own.live[k][:])
		if !cp.Tombstone(p, row) {
			return fmt.Errorf("%s: tombstone of its row %d refused", name, row)
		}
		own.gone = append(slices.Clone(own.gone), own.live[k])
		own.live = slices.Delete(own.live, k, k+1)
		if err := own.check(cp, p, consts, rng); err != nil {
			return fmt.Errorf("%s after its own writes: %w", name, err)
		}
		if err := cp.Verify(); err != nil {
			return fmt.Errorf("%s after its own writes: %w", name, err)
		}
	}
	if err := m.check(view, p, consts, rng); err != nil {
		return fmt.Errorf("view under an overlay and a clone: %w", err)
	}
	return nil
}

// TestPinnedEpochsUnderWrites is the sharing-rule property: every epoch
// stays pinned while the one writer keeps inserting (growing the dedup
// table, extending and folding posting tails), tombstoning, reviving,
// re-inserting deleted facts (dead and live rows of one tuple in one
// chain), and compacting. Readers hold every pinned view to the instance
// recorded at its publish — position 0 is carried by the writer from the
// start, position 1 is first built late, by a reader, and carried from
// then on — and act as second writers of old views' row spaces through
// overlays and clones. Verify runs on the live instance after every step.
// Run under -race -cpu 1,2,4 in CI.
func TestPinnedEpochsUnderWrites(t *testing.T) {
	st, p, _ := mergeFixture()
	consts := make([]term.Term, 48)
	for i := range consts {
		consts[i] = st.Const(fmt.Sprintf("k%d", i))
	}
	rng := rand.New(rand.NewSource(20))
	randTuple := func() tuple2 { return tuple2{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]} }

	db := NewDB()
	type entry struct {
		tp   tuple2
		live bool
	}
	var (
		rows []entry // the live relation's physical rows since the last compaction
		gone []tuple2
	)
	insert := func(tp tuple2) {
		isNew := !slices.ContainsFunc(rows, func(e entry) bool { return e.live && e.tp == tp })
		if got := db.InsertArgs(p, tp[:]); got != isNew {
			t.Fatalf("insert of %v new=%v, want %v", tp, got, isNew)
		}
		if isNew {
			rows = append(rows, entry{tp, true})
		}
	}
	for len(rows) < 300 {
		insert(randTuple())
	}
	probeAt(db, p, 2, 0, consts[0])

	type pinned struct {
		snap  *Snapshot
		model *epochModel
	}
	var (
		mu     sync.Mutex
		epochs []pinned
		later  []tuple2 // tuples stored after the first publish
		wg     sync.WaitGroup
		done   = make(chan struct{})
		checks atomic.Int64 // views readers have held to their models
	)
	publish := func() {
		m := &epochModel{gone: slices.Clone(gone)}
		for _, e := range rows {
			if e.live {
				m.live = append(m.live, e.tp)
			}
		}
		mu.Lock()
		epochs = append(epochs, pinned{db.Snapshot(), m})
		mu.Unlock()
	}
	publish()

	for w := 0; w < 4; w++ {
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
				e := epochs[rng.Intn(len(epochs))]
				lt := slices.Clone(later)
				mu.Unlock()
				err := e.model.check(e.snap.DB(), p, consts, rng)
				if err == nil && n%5 == 0 {
					err = secondWriter(e.snap.DB(), e.model, p, lt, consts, rng)
				}
				if err != nil {
					t.Error(err)
					return
				}
				checks.Add(1)
			}
		}(int64(w))
	}

	foldsBefore := obsFolds.Load()
	for epoch := 1; epoch <= 14; epoch++ {
		for k := 0; k < 90; k++ {
			tp := randTuple()
			insert(tp)
			mu.Lock()
			later = append(later, tp)
			mu.Unlock()
		}
		mustVerify(t, db, fmt.Sprintf("epoch %d after inserts", epoch))
		// Tombstone a tenth of the live rows; insert a third of those
		// again at once, as fresh rows of this step.
		for ri := range rows {
			if !rows[ri].live || rng.Intn(10) != 0 {
				continue
			}
			if !db.Tombstone(p, int32(ri)) {
				t.Fatalf("epoch %d: tombstone of live row %d refused", epoch, ri)
			}
			rows[ri].live = false
			gone = append(gone, rows[ri].tp)
			if rng.Intn(3) == 0 {
				insert(rows[ri].tp)
			}
		}
		mustVerify(t, db, fmt.Sprintf("epoch %d after tombstones", epoch))
		// Deleted facts come back as fresh rows behind their dead ones.
		for k := 0; k < 20; k++ {
			insert(gone[rng.Intn(len(gone))])
		}
		mustVerify(t, db, fmt.Sprintf("epoch %d after re-inserts", epoch))
		if epoch%4 == 0 {
			if db.CompactAll(0.02) == 0 {
				t.Fatalf("epoch %d: nothing to compact", epoch)
			}
			rows = slices.DeleteFunc(rows, func(e entry) bool { return !e.live })
			mustVerify(t, db, fmt.Sprintf("epoch %d after CompactAll", epoch))
		}
		publish()
		// Readers get at every epoch's views while the writer stands at
		// it, however few cores there are.
		for target := checks.Load() + 8; checks.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	if obsFolds.Load() == foldsBefore {
		t.Fatal("the stream never folded a tail")
	}
	// Every view once more, now that nothing moves: all of it as recorded,
	// structurally sound, and writable through an overlay and a clone.
	tails, late := 0, 0
	for i, e := range epochs {
		if err := e.model.check(e.snap.DB(), p, consts, rng); err != nil {
			t.Fatalf("epoch %d at the end: %v", i, err)
		}
		if err := secondWriter(e.snap.DB(), e.model, p, later, consts, rng); err != nil {
			t.Fatalf("epoch %d at the end: %v", i, err)
		}
		mustVerify(t, e.snap.DB(), fmt.Sprintf("view of epoch %d", i))
		r := e.snap.DB().relOf(p)
		if r.idx[0].tail != nil {
			tails++
		}
		if r.idx[1].base == nil {
			late++
		}
		e.snap.Release()
	}
	if tails == 0 || late == 0 || late == len(epochs) {
		t.Fatalf("of %d views %d carry a tail and %d built position 1 late: want some of each", len(epochs), tails, late)
	}
	mustVerify(t, db, "source at the end")
}

// TestDuplicateInsertCopiesNothing: a write that changes nothing copies
// nothing. After Snapshot() a duplicate insert and a tombstone of a dead
// row allocate no memory on the live relation, and a duplicate insert
// into an overlay leaves it reading through the view's dedup arrays.
func TestDuplicateInsertCopiesNothing(t *testing.T) {
	db, p, consts := postingFixture(2000, 50)
	probeAt(db, p, 2, 0, consts[0])
	db.Tombstone(p, 3)
	snap := db.Snapshot()
	defer snap.Release()
	dup := slices.Clone(db.FactArgs(p, 7))
	cow := obsCowBytes.Load()
	if n := testing.AllocsPerRun(20, func() {
		if db.InsertArgs(p, dup) || db.Tombstone(p, 3) {
			t.Fatal("a no-op write reported a change")
		}
	}); n != 0 {
		t.Fatalf("no-op writes after Snapshot() allocate %v times", n)
	}
	ov := snap.DB().Overlay()
	if ov.InsertArgs(p, dup) || ov.Tombstone(p, 3) {
		t.Fatal("a no-op write on an overlay reported a change")
	}
	if r := ov.relOf(p); !r.borrowed || !r.deadShared {
		t.Fatalf("no-op writes made the overlay copy (borrowed %v, bitmap shared %v)", r.borrowed, r.deadShared)
	}
	if d := obsCowBytes.Load() - cow; d != 0 {
		t.Fatalf("no-op writes copied %d bytes", d)
	}
}
