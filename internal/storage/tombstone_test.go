package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/term"
)

// refLiveDB extends the reference list semantics of columnar_quick_test
// with deletion: a deduplicated ordered list of LIVE atoms. Deleting
// removes the atom from the list (order of survivors preserved);
// re-inserting a deleted fact appends it at the end, exactly like the
// columnar store (the old row stays dead, a fresh row is appended).
type refLiveDB struct {
	rows []atom.Atom
	seen map[string]bool
}

func newRefLiveDB() *refLiveDB { return &refLiveDB{seen: make(map[string]bool)} }

func (r *refLiveDB) insert(a atom.Atom) bool {
	k := atom.SortKey(a)
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.rows = append(r.rows, a.Clone())
	return true
}

func (r *refLiveDB) delete(a atom.Atom) bool {
	k := atom.SortKey(a)
	if !r.seen[k] {
		return false
	}
	delete(r.seen, k)
	for i, x := range r.rows {
		if x.Equal(a) {
			r.rows = append(r.rows[:i], r.rows[i+1:]...)
			return true
		}
	}
	return false
}

// checkLiveEquivalence asserts the columnar DB agrees with the reference
// on Len, All (live insertion order), per-predicate Facts/CountPred,
// Contains, substitution matching, and ActiveDomain.
func checkLiveEquivalence(t *testing.T, prog *logic.Program, db *DB, ref *refLiveDB, label string) {
	t.Helper()
	mustVerify(t, db, label)
	if db.Len() != len(ref.rows) {
		t.Fatalf("%s: Len = %d, want %d", label, db.Len(), len(ref.rows))
	}
	all := db.All()
	if len(all) != len(ref.rows) {
		t.Fatalf("%s: All = %d rows, want %d", label, len(all), len(ref.rows))
	}
	for i, a := range all {
		if !a.Equal(ref.rows[i]) {
			t.Fatalf("%s: All[%d] = %s, want %s", label, i,
				a.String(prog.Store, prog.Reg), ref.rows[i].String(prog.Store, prog.Reg))
		}
		if !db.Contains(a) {
			t.Fatalf("%s: Contains lost live row %d", label, i)
		}
	}
	byPred := make(map[string][]atom.Atom)
	for _, a := range ref.rows {
		byPred[prog.Reg.Name(a.Pred)] = append(byPred[prog.Reg.Name(a.Pred)], a)
	}
	arities := map[string]int{"p": 2, "q": 1, "r": 3}
	for _, name := range []string{"p", "q", "r"} {
		id, ok := prog.Reg.Lookup(name)
		if !ok {
			continue
		}
		want := byPred[name]
		got := db.Facts(id)
		if len(got) != len(want) || db.CountPred(id) != len(want) {
			t.Fatalf("%s: Facts(%s) = %d rows (CountPred %d), want %d",
				label, name, len(got), db.CountPred(id), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: Facts(%s)[%d] out of live insertion order", label, name, i)
			}
		}
		// A full scan must enumerate exactly the live rows.
		args := make([]ScanArg, arities[name])
		for j := range args {
			args[j] = ScanArg{Mode: ArgBind, Slot: j}
		}
		count := 0
		db.Probe(CompileScan(id, args), NewFrame(len(args)), 0, 0, 1, func() bool { count++; return true })
		if count != len(want) {
			t.Fatalf("%s: Probe(%s) = %d matches, want %d", label, name, count, len(want))
		}
	}
	dom := db.ActiveDomain()
	wantDom := make(map[term.Term]bool)
	for _, a := range ref.rows {
		for _, x := range a.Args {
			wantDom[x] = true
		}
	}
	if len(dom) != len(wantDom) {
		t.Fatalf("%s: ActiveDomain size = %d, want %d", label, len(dom), len(wantDom))
	}
	for _, x := range dom {
		if !wantDom[x] {
			t.Fatalf("%s: dead-only term %v still in active domain", label, x)
		}
	}
}

// TestTombstoneObservationalEquivalence drives random interleaved
// insert / tombstone / re-insert / Compact sequences into the columnar DB
// and the reference live-list model, asserting observational equality
// after every batch. This is the PR 2 property suite extended to
// tombstoned relations.
func TestTombstoneObservationalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		prog := logic.NewProgram()
		preds := []struct {
			name  string
			arity int
		}{{"p", 2}, {"q", 1}, {"r", 3}}
		db := NewDB()
		ref := newRefLiveDB()
		mk := func() atom.Atom {
			pc := preds[rng.Intn(len(preds))]
			id := prog.Reg.Intern(pc.name, pc.arity)
			args := make([]term.Term, pc.arity)
			for j := range args {
				args[j] = prog.Store.Const(fmt.Sprintf("c%d", rng.Intn(10)))
			}
			return atom.New(id, args...)
		}
		for step := 0; step < 60; step++ {
			switch {
			case len(ref.rows) > 0 && rng.Intn(3) == 0:
				// Tombstone a random live fact.
				a := ref.rows[rng.Intn(len(ref.rows))]
				row, ok := db.FindRow(a.Pred, a.Args)
				if !ok {
					t.Fatalf("trial %d step %d: live fact has no row", trial, step)
				}
				if !db.Tombstone(a.Pred, row) {
					t.Fatalf("trial %d step %d: Tombstone on live row returned false", trial, step)
				}
				if db.Tombstone(a.Pred, row) {
					t.Fatalf("trial %d step %d: double Tombstone returned true", trial, step)
				}
				if db.Contains(a) {
					t.Fatalf("trial %d step %d: tombstoned fact still contained", trial, step)
				}
				ref.delete(a)
			case rng.Intn(6) == 0 && db.dead > 0:
				db.Compact(0.01) // aggressive: reclaim nearly any dead row
			default:
				a := mk()
				want := ref.insert(a)
				if got := db.Insert(a); got != want {
					t.Fatalf("trial %d step %d: Insert = %v, reference says %v",
						trial, step, got, want)
				}
			}
			checkLiveEquivalence(t, prog, db, ref, fmt.Sprintf("trial %d step %d", trial, step))
		}
		// Final full compaction must change nothing observable.
		db.Compact(0)
		if db.dead != 0 {
			t.Fatalf("trial %d: dead = %d after full compact", trial, db.dead)
		}
		checkLiveEquivalence(t, prog, db, ref, fmt.Sprintf("trial %d post-compact", trial))
	}
}

// windowCounter returns a count of p's live rows inserted at or after a
// mark: a Probe of that delta window binding every position.
func windowCounter(db *DB, p schema.PredID) func(since Mark) int {
	r := db.relOf(p)
	if r == nil {
		return func(Mark) int { return 0 }
	}
	args := make([]ScanArg, r.arity)
	for i := range args {
		args[i] = ScanArg{Mode: ArgBind, Slot: i}
	}
	sp, frame := CompileScan(p, args), NewFrame(r.arity)
	return func(since Mark) int {
		n := 0
		db.Probe(sp, frame, since, 0, 1, func() bool { n++; return true })
		return n
	}
}

// TestTombstoneMarkWindows: Probe windows, whole and sharded, count live
// rows only, for tombstones flipped before and inside the window.
func TestTombstoneMarkWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 2)
	db := NewDB()
	mk := func(i int) atom.Atom {
		return atom.New(p, prog.Store.Const(fmt.Sprintf("a%d", i)), prog.Store.Const(fmt.Sprintf("b%d", i)))
	}
	for i := 0; i < 100; i++ {
		db.Insert(mk(i))
	}
	mark := db.Mark()
	for i := 100; i < 200; i++ {
		db.Insert(mk(i))
	}
	// Kill a random mix of rows on both sides of the mark.
	liveInWindow := 100
	for i := 0; i < 200; i += 1 + rng.Intn(4) {
		row, ok := db.FindRow(p, mk(i).Args)
		if !ok {
			continue
		}
		db.Tombstone(p, row)
		if i >= 100 {
			liveInWindow--
		}
	}
	sp := CompileScan(p, []ScanArg{{Mode: ArgBind, Slot: 0}, {Mode: ArgBind, Slot: 1}})
	frame := NewFrame(2)
	got := 0
	db.Probe(sp, frame, mark, 0, 1, func() bool { got++; return true })
	if got != liveInWindow {
		t.Fatalf("Probe window = %d, want %d live rows", got, liveInWindow)
	}
	for _, shards := range []int{2, 3, 5} {
		total := 0
		for sh := 0; sh < shards; sh++ {
			db.Probe(sp, frame, mark, sh, shards, func() bool { total++; return true })
		}
		if total != liveInWindow {
			t.Fatalf("shards %d: partition = %d, want %d", shards, total, liveInWindow)
		}
	}
}

// TestTombstoneDedupAfterReinsert: a fact deleted and re-inserted occupies
// a fresh row; the dead row stays skipped and dedup works on the new one.
func TestTombstoneDedupAfterReinsert(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1)
	db := NewDB()
	a := atom.New(p, prog.Store.Const("x"))
	db.Insert(a)
	row0, _ := db.FindRow(p, a.Args)
	db.Tombstone(p, row0)
	if db.Contains(a) || db.Len() != 0 || !db.rels[p].isDead(row0) {
		t.Fatalf("tombstoned fact still visible")
	}
	if !db.Insert(a) {
		t.Fatalf("re-insert of tombstoned fact not accepted")
	}
	row1, ok := db.FindRow(p, a.Args)
	if !ok || row1 == row0 {
		t.Fatalf("re-insert landed on the dead row (row0=%d row1=%d ok=%v)", row0, row1, ok)
	}
	if db.Insert(a) {
		t.Fatalf("duplicate accepted after re-insert")
	}
	if db.Len() != 1 || db.CountPred(p) != 1 {
		t.Fatalf("Len/CountPred = %d/%d, want 1/1", db.Len(), db.CountPred(p))
	}
}

// TestCompactCloneIsolation: tombstones flipped on one side of a clone
// stay invisible to the other, and compacting one side leaves the other
// intact (the rebuilt backings are fresh).
func TestCompactCloneIsolation(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1)
	db := NewDB()
	var atoms []atom.Atom
	for i := 0; i < 100; i++ {
		a := atom.New(p, prog.Store.Const(fmt.Sprintf("k%d", i)))
		atoms = append(atoms, a)
		db.Insert(a)
	}
	cl := db.Clone()
	for i := 0; i < 100; i += 2 {
		row, _ := cl.FindRow(p, atoms[i].Args)
		cl.Tombstone(p, row)
	}
	if cl.Len() != 50 || db.Len() != 100 {
		t.Fatalf("Len after one-sided tombstones: clone %d orig %d", cl.Len(), db.Len())
	}
	if n := cl.Compact(0.1); n != 50 {
		t.Fatalf("Compact reclaimed %d, want 50", n)
	}
	if cl.Len() != 50 || cl.dead != 0 {
		t.Fatalf("clone after compact: Len %d dead %d", cl.Len(), cl.dead)
	}
	for i, a := range atoms {
		if !db.Contains(a) {
			t.Fatalf("original lost fact %d after clone compacted", i)
		}
		if (i%2 == 0) == cl.Contains(a) {
			t.Fatalf("clone fact %d visibility wrong after compact", i)
		}
	}
	// Both sides keep working independently after the compact.
	extra := atom.New(p, prog.Store.Const("fresh"))
	if !cl.Insert(extra) || !db.Insert(extra) {
		t.Fatalf("post-compact inserts rejected")
	}
	if cl.Len() != 51 || db.Len() != 101 {
		t.Fatalf("post-compact Len: clone %d orig %d", cl.Len(), db.Len())
	}
}

// TestReinsertAtGrowthBoundary sweeps every relation size across the
// dedup table's growth boundaries: deleting and re-inserting each fact
// grows the table past dead rows, and every row, live or dead, must stay
// linked exactly once, so that killing the fresh row hides the fact.
func TestReinsertAtGrowthBoundary(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1)
	for n := 1; n <= 100; n++ {
		db := NewDB()
		var atoms []atom.Atom
		for i := 0; i < n; i++ {
			a := atom.New(p, prog.Store.Const(fmt.Sprintf("k%d", i)))
			atoms = append(atoms, a)
			db.Insert(a)
		}
		for i := range atoms {
			row, _ := db.FindRow(p, atoms[i].Args)
			db.Tombstone(p, row)
			if !db.Insert(atoms[i]) {
				t.Fatalf("n=%d fact %d: re-insert after tombstone was a duplicate", n, i)
			}
			fresh, _ := db.FindRow(p, atoms[i].Args)
			db.Tombstone(p, fresh)
			if db.Contains(atoms[i]) {
				t.Fatalf("n=%d fact %d: contained after its fresh row's tombstone", n, i)
			}
			if !db.Insert(atoms[i]) || !db.Contains(atoms[i]) {
				t.Fatalf("n=%d fact %d: lost after the final re-insert", n, i)
			}
		}
		r := db.relOf(p)
		counts := make(map[int32]int)
		for _, v := range r.tabEntries() {
			if v >= 0 {
				counts[v]++
			}
		}
		if len(counts) != 3*n {
			t.Fatalf("n=%d: tab holds %d distinct rows, want %d", n, len(counts), 3*n)
		}
		for ri, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: row %d linked %d times", n, ri, c)
			}
		}
	}
}

// TestDedupTableLiveInvariant: liveness is the bitmap and nothing else.
// Kills leave the dedup table as it was — every row linked exactly once,
// live or dead — a probe finds a tuple's live row and only that, a
// re-inserted fact becomes a fresh row in the chain its dead rows stay
// in, and the dead-inclusive probe Verify uses answers with the newest
// row of the tuple whatever its liveness.
func TestDedupTableLiveInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1)
	db := NewDB()
	fact := func(k int) atom.Atom { return atom.New(p, prog.Store.Const(fmt.Sprintf("k%d", k))) }
	// newest[k] is the newest row of fact k; live[k] whether it is live.
	newest := make([]int32, 60)
	live := make([]bool, 60)
	for k := range newest {
		db.Insert(fact(k))
		newest[k], live[k] = int32(k), true
	}
	r := db.relOf(p)
	for step := 0; step < 600; step++ {
		k := rng.Intn(len(newest))
		before := r.tabEntries()
		grew := false
		switch {
		case live[k]:
			if !db.Tombstone(p, newest[k]) {
				t.Fatalf("step %d: tombstone of live row %d refused", step, newest[k])
			}
			live[k] = false
		default:
			if !db.Insert(fact(k)) {
				t.Fatalf("step %d: re-insert of deleted fact %d was a duplicate", step, k)
			}
			newest[k], live[k], grew = int32(r.rows()-1), true, true
		}
		if after := r.tabEntries(); !grew && !slices.Equal(before, after) {
			t.Fatalf("step %d: a kill wrote the dedup table", step)
		}
		counts := make(map[int32]int)
		for _, v := range r.tabEntries() {
			if v != tabEmpty {
				counts[v]++
			}
		}
		if len(counts) != r.rows() {
			t.Fatalf("step %d: tab links %d distinct rows of %d", step, len(counts), r.rows())
		}
		for ri, n := range counts {
			if n != 1 || ri < 0 || int(ri) >= r.rows() {
				t.Fatalf("step %d: row %d linked %d times", step, ri, n)
			}
		}
		for k := range newest {
			row, ok := db.FindRow(p, fact(k).Args)
			if ok != live[k] || ok && row != newest[k] {
				t.Fatalf("step %d: FindRow(k%d) = %d,%v, want row %d live %v", step, k, row, ok, newest[k], live[k])
			}
			args := fact(k).Args
			if row, ok := r.findAny(hashArgs(p, args), args); !ok || row != newest[k] {
				t.Fatalf("step %d: findAny(k%d) = %d,%v, want %d", step, k, row, ok, newest[k])
			}
		}
		mustVerify(t, db, fmt.Sprintf("step %d", step))
	}
	if r.rows() <= len(newest) || r.nDead == 0 {
		t.Fatalf("stream never re-inserted a deleted fact (%d rows, %d dead)", r.rows(), r.nDead)
	}
}
