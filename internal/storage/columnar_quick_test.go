package storage

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/term"
)

// refDB is the executable reference semantics of the seed fact store: an
// append-only deduplicated list of atoms. The columnar DB must be
// observationally identical to it on every operation the engines use.
type refDB struct {
	rows []atom.Atom
	seen map[string]bool
}

func newRefDB() *refDB { return &refDB{seen: make(map[string]bool)} }

func (r *refDB) insert(a atom.Atom) bool {
	k := atom.SortKey(a)
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.rows = append(r.rows, a.Clone())
	return true
}

// randomInstance drives the same random insert sequence (with duplicates)
// into both stores and returns them plus the inserted atoms.
func randomInstance(t *testing.T, rng *rand.Rand, steps int) (*logic.Program, *DB, *refDB) {
	t.Helper()
	prog := logic.NewProgram()
	preds := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 1}, {"r", 3}}
	db := NewDB()
	ref := newRefDB()
	for i := 0; i < steps; i++ {
		pc := preds[rng.Intn(len(preds))]
		id := prog.Reg.Intern(pc.name, pc.arity)
		args := make([]term.Term, pc.arity)
		for j := range args {
			if rng.Intn(8) == 0 {
				args[j] = term.MkNull(uint32(rng.Intn(4)))
			} else {
				args[j] = prog.Store.Const(fmt.Sprintf("c%d", rng.Intn(12)))
			}
		}
		a := atom.New(id, args...)
		wantNew := ref.insert(a)
		if got := db.Insert(a); got != wantNew {
			t.Fatalf("step %d: Insert = %v, reference says %v for %s",
				i, got, wantNew, a.String(prog.Store, prog.Reg))
		}
	}
	return prog, db, ref
}

// TestColumnarObservationalEquivalence: the columnar DB agrees with the
// reference list semantics on dedup/newness, Len, All (insertion order),
// Facts (per-predicate insertion order), Contains, IndexOf, ActiveDomain,
// and Mark delta windows, across random instances.
func TestColumnarObservationalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		prog, db, ref := randomInstance(t, rng, 300)
		if db.Len() != len(ref.rows) {
			t.Fatalf("Len = %d, want %d", db.Len(), len(ref.rows))
		}
		all := db.All()
		if len(all) != len(ref.rows) {
			t.Fatalf("All = %d rows, want %d", len(all), len(ref.rows))
		}
		for i, a := range all {
			if !a.Equal(ref.rows[i]) {
				t.Fatalf("All[%d] = %s, want %s", i,
					a.String(prog.Store, prog.Reg), ref.rows[i].String(prog.Store, prog.Reg))
			}
			if idx, ok := db.IndexOf(a); !ok || idx != i {
				t.Fatalf("IndexOf(All[%d]) = %d,%v", i, idx, ok)
			}
			if !db.Contains(a) {
				t.Fatalf("Contains lost row %d", i)
			}
		}
		// Facts(p) must be the per-predicate subsequence of the insertion
		// order, and CountPred must agree.
		for _, name := range []string{"p", "q", "r"} {
			id, ok := prog.Reg.Lookup(name)
			if !ok {
				continue
			}
			var want []atom.Atom
			for _, a := range ref.rows {
				if a.Pred == id {
					want = append(want, a)
				}
			}
			got := db.Facts(id)
			if len(got) != len(want) || db.CountPred(id) != len(want) {
				t.Fatalf("Facts(%s) = %d rows (CountPred %d), want %d",
					name, len(got), db.CountPred(id), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("Facts(%s)[%d] out of insertion order", name, i)
				}
			}
		}
		// ActiveDomain: set of all terms, constants first not required but
		// deterministic ascending key order is.
		dom := db.ActiveDomain()
		wantDom := make(map[term.Term]bool)
		for _, a := range ref.rows {
			for _, x := range a.Args {
				wantDom[x] = true
			}
		}
		if len(dom) != len(wantDom) {
			t.Fatalf("ActiveDomain size = %d, want %d", len(dom), len(wantDom))
		}
		for i, x := range dom {
			if !wantDom[x] {
				t.Fatalf("spurious domain term %v", x)
			}
			if i > 0 && dom[i-1].Key() >= x.Key() {
				t.Fatalf("ActiveDomain not strictly ordered at %d", i)
			}
		}
	}
}

// TestColumnarMarkWindows: facts at or after a mark are exactly the
// insertion-order suffix, for marks taken at random points of the insert
// sequence, via Probe.
func TestColumnarMarkWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 2)
	db := NewDB()
	var marks []Mark
	var counts []int // distinct facts present when each mark was taken
	for i := 0; i < 400; i++ {
		if rng.Intn(20) == 0 {
			marks = append(marks, db.Mark())
			counts = append(counts, db.Len())
		}
		db.Insert(atom.New(p,
			prog.Store.Const(fmt.Sprintf("a%d", rng.Intn(15))),
			prog.Store.Const(fmt.Sprintf("b%d", rng.Intn(15)))))
	}
	marks = append(marks, db.Mark())
	counts = append(counts, db.Len())
	sp := CompileScan(p, []ScanArg{{Mode: ArgBind, Slot: 0}, {Mode: ArgBind, Slot: 1}})
	frame := NewFrame(2)
	for mi, m := range marks {
		want := db.Len() - counts[mi]
		got := 0
		db.Probe(sp, frame, m, 0, 1, func() bool { got++; return true })
		if got != want {
			t.Fatalf("mark %d: Probe window = %d, want %d", mi, got, want)
		}
		// Range shards partition the window for every shard count.
		for _, shards := range []int{2, 3, 7} {
			total := 0
			for sh := 0; sh < shards; sh++ {
				db.Probe(sp, frame, m, sh, shards, func() bool { total++; return true })
			}
			if total != want {
				t.Fatalf("mark %d shards %d: partition = %d, want %d", mi, shards, total, want)
			}
		}
	}
}

// TestColumnarCandidatesSelectivity: the index-selected candidate set is a
// superset of the true matches and never larger than the relation.
func TestColumnarCandidatesSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	prog, db, ref := randomInstance(t, rng, 300)
	p, _ := prog.Reg.Lookup("p")
	r := db.relOf(p)
	if r == nil {
		t.Fatalf("no relation for p")
	}
	frame := NewFrame(1)
	for i := 0; i < 12; i++ {
		c := prog.Store.Const(fmt.Sprintf("c%d", i))
		rows := r.posting(0, c)
		want := 0
		for _, a := range ref.rows {
			if a.Pred == p && a.Args[0] == c {
				want++
			}
		}
		got := 0
		sp := CompileScan(p, []ScanArg{{Mode: ArgConst, Const: c}, {Mode: ArgBind, Slot: 0}})
		db.Probe(sp, frame, 0, 0, 1, func() bool { got++; return true })
		if got != want {
			t.Fatalf("c%d: Probe = %d, want %d", i, got, want)
		}
		if rows.size() > r.rows() {
			t.Fatalf("c%d: candidate set larger than relation", i)
		}
		if rows.size() < want {
			t.Fatalf("c%d: candidates = %d < %d matches (unsound index)", i, rows.size(), want)
		}
	}
}

// tabEntries flattens the partitioned dedup table into one slot slice, so
// invariant checks keep treating it as a single logical table.
func (r *relation) tabEntries() []int32 {
	var out []int32
	for s := 0; s < relShards; s++ {
		for k := range r.tabs[s] {
			out = append(out, atomic.LoadInt32(&r.tabs[s][k]))
		}
	}
	return out
}

// TestDedupTableInvariant: every local row appears in the dedup table
// exactly once, across growth epochs (including the rows that trigger
// growth) and in clones.
func TestDedupTableInvariant(t *testing.T) {
	prog := logic.NewProgram()
	p := prog.Reg.Intern("p", 1)
	db := NewDB()
	check := func(d *DB, label string) {
		r := d.relOf(p)
		counts := make(map[int32]int)
		empty := 0
		for _, ri := range r.tabEntries() {
			if ri < 0 {
				empty++
				continue
			}
			counts[ri]++
		}
		if len(counts) != r.rows() || empty != len(r.tabEntries())-r.rows() {
			t.Fatalf("%s: tab holds %d distinct rows (+%d empty) for %d rows",
				label, len(counts), empty, r.rows())
		}
		for ri, n := range counts {
			if n != 1 {
				t.Fatalf("%s: row %d appears %d times in dedup table", label, ri, n)
			}
		}
	}
	for i := 0; i < 100; i++ {
		db.Insert(atom.New(p, prog.Store.Const(fmt.Sprintf("k%d", i))))
		check(db, fmt.Sprintf("after insert %d", i))
	}
	cl := db.Clone()
	for i := 0; i < 50; i++ {
		cl.Insert(atom.New(p, prog.Store.Const(fmt.Sprintf("cl%d", i))))
	}
	check(cl, "clone after divergence")
	check(db, "original after clone divergence")
}

// TestCloneSharedBackingIsolation: a clone is observationally identical,
// and divergent inserts on both sides stay invisible to each other even
// though the columnar backings are shared cap-limited.
func TestCloneSharedBackingIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	prog, db, _ := randomInstance(t, rng, 200)
	cl := db.Clone()
	if cl.Len() != db.Len() {
		t.Fatalf("clone Len = %d, want %d", cl.Len(), db.Len())
	}
	snapshot := db.All()
	for i, a := range cl.All() {
		if !a.Equal(snapshot[i]) {
			t.Fatalf("clone row %d differs", i)
		}
	}
	p, _ := prog.Reg.Lookup("p")
	mkFact := func(tag string, i int) atom.Atom {
		return atom.New(p, prog.Store.Const(fmt.Sprintf("%s%d", tag, i)), prog.Store.Const(tag))
	}
	// Diverge: both sides append distinct fresh facts, repeatedly enough to
	// force posting/backing growth on both sides.
	for i := 0; i < 200; i++ {
		if !db.Insert(mkFact("orig", i)) {
			t.Fatalf("orig insert %d not new", i)
		}
		if !cl.Insert(mkFact("clone", i)) {
			t.Fatalf("clone insert %d not new", i)
		}
	}
	for i := 0; i < 200; i++ {
		if cl.Contains(mkFact("orig", i)) {
			t.Fatalf("clone sees original's insert %d", i)
		}
		if db.Contains(mkFact("clone", i)) {
			t.Fatalf("original sees clone's insert %d", i)
		}
	}
	// Re-inserting the shared prefix must still dedup on both sides.
	for _, a := range snapshot {
		if db.Insert(a) || cl.Insert(a) {
			t.Fatalf("shared prefix lost from dedup after divergence")
		}
	}
	// The shared prefix must be intact on both sides.
	for i, a := range snapshot {
		if !db.Row(i).Equal(a) || !cl.Row(i).Equal(a) {
			t.Fatalf("shared prefix row %d corrupted", i)
		}
	}
}
