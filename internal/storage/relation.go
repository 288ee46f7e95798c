package storage

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

// hashKey is what row hashes mix for a term: kind<<32 | ID, a constant's
// being the term itself. Checkpoints hold row hashes (and nothing placed
// by them), so it may not change for any kind.
func hashKey(t term.Term) uint64 { return uint64(t.Kind())<<32 | uint64(t.ID()) }

// relation is the columnar store for one predicate: a flat, arity-strided
// backing array of terms, a predicate-local dedup table, and one
// term-keyed index per argument position. Every structure is local to the
// predicate, so growth, dedup chains, and index postings never interleave
// across predicates — the compact record layout the Vadalog pipeline
// (Bellomarini et al., VLDB 2018) builds its throughput on.
type relation struct {
	pred  schema.PredID
	arity int
	// cols is the arity-strided backing array: local row r occupies
	// cols[r*arity : (r+1)*arity]. Inserting a fact is one bulk append —
	// no per-fact slice header, argument allocation or hash survives. nrows
	// counts its rows (the bulk merge numbers them after appending).
	cols  []term.Term
	nrows int
	// spans maps local rows to global insertion indexes as runs: span k
	// covers rows [spans[k].row, spans[k+1].row) (the last one up to
	// rows()), which hold the consecutive indexes spans[k].at, +1, ….
	// Rows land in bursts, so a relation holds a handful of spans, not one
	// index per row. The indexes are strictly increasing, so a Mark-based
	// delta window is a contiguous local row range [firstSince(mark),
	// rows()), resolved by binary search over the spans.
	spans []span
	// tab is the dedup table: an open-addressed, linear-probing hash set
	// of local rows, live and dead alike, a row's probe starting at its
	// home slot (see home). A slot holds the row's number and a tag of
	// its hash (see rowMask). Its only mutation is "empty slot -> row
	// number", so the array is shared for good with every view taken of
	// the relation: a reader treats a slot naming a row it does not have
	// as empty (see find). Readers load slots atomically; the writer
	// stores them atomically into an array that tabShared says a view may
	// be reading (one handed out by Snapshot() and not replaced by growth
	// since). tabUsed counts this relation's own occupied slots — the
	// load-factor input.
	tab       []int32
	tabUsed   int32
	tabShared bool
	// idx[i] is position i's posting index, built on first probe; late and
	// want serve probes of a frozen view's never-built positions (non-nil
	// late: this relation still holds exactly a frozen view's rows; want
	// is shared by a live relation, its views and its compacted
	// successors). See posting.go.
	idx  []position
	late *lateIndex
	want []atomic.Bool
	// dead is the liveness bitmap (one bit per local row, words allocated
	// on first kill; rows beyond the bitmap are live) and nDead the count
	// of tombstoned rows. See tombstone.go.
	dead  []uint64
	nDead int
	// second marks an overlay relation (a Clone is one): a second writer
	// of a row space, which may not append where the first one does (see
	// posIndex.clone). borrowed marks that tab still belongs to that other
	// writer: the first row this relation appends takes a private copy
	// first (own). deadShared marks that someone else reads the bitmap:
	// the first kill copies it. pins counts live snapshots
	// referencing this relation's backings: Compact defers pinned
	// relations. pins is atomic because snapshots release from reader
	// goroutines; the flags are only touched by the relation's writer.
	// See snapshot.go.
	second     bool
	borrowed   bool
	deadShared bool
	pins       atomic.Int32
	// frozen marks a relation Snapshot handed out: immutable, and shared
	// by every DB that holds it — the snapshot's view, and each overlay of
	// it until the overlay writes the relation (DB.rel copies the header
	// first, see overlay).
	frozen bool
}

func newRelation(pred schema.PredID, arity int) *relation {
	return &relation{
		pred:  pred,
		arity: arity,
		idx:   make([]position, arity),
		want:  make([]atomic.Bool, arity),
	}
}

// overlay returns a header of the frozen relation r for an overlay to
// write: it reads r's backings and copies what it changes (see
// DB.Overlay).
func (r *relation) overlay() *relation {
	nr := r.view()
	nr.second, nr.borrowed, nr.deadShared = true, true, true
	return nr
}

// rows is the number of stored facts.
func (r *relation) rows() int { return r.nrows }

// args returns the argument tuple of local row ri as a cap-limited view of
// the backing array: safe to hand out because rows are immutable and
// appends past the view's cap cannot alias it.
func (r *relation) args(ri int32) []term.Term {
	o := int(ri) * r.arity
	return r.cols[o : o+r.arity : o+r.arity]
}

// atomAt materializes local row ri as an atom sharing the columnar backing.
func (r *relation) atomAt(ri int32) atom.Atom {
	return atom.Atom{Pred: r.pred, Args: r.args(ri)}
}

// equalRow reports whether local row ri holds exactly args.
func (r *relation) equalRow(ri int32, args []term.Term) bool {
	row := r.args(ri)
	for i := range row {
		if row[i] != args[i] {
			return false
		}
	}
	return true
}

// find returns the LIVE local row holding args, if present, given their
// hash. Dead rows stay linked, so a tuple match on a tombstoned row keeps
// probing: a re-inserted fact sits further down the same chain. A slot
// naming a row this relation does not have — empty, or filled by the table's
// writer after this view was taken — ends the chain: slots never revert, so
// no chain of rows visible here crosses a slot that was empty when the view
// was taken.
func (r *relation) find(h uint64, args []term.Term) (int32, bool) {
	tab := r.tab
	if len(tab) == 0 {
		return 0, false
	}
	n, m := uint32(r.nrows), rowMask(len(tab))
	tag := tagOf(h, m)
	for i := home(h, len(tab)); ; i = nextSlot(i, len(tab)) {
		v := uint32(atomic.LoadInt32(&tab[i]))
		ri := int32(v & m)
		if uint32(ri) >= n {
			return 0, false
		}
		if v&^m == tag && r.equalRow(ri, args) && !r.isDead(ri) {
			return ri, true
		}
	}
}

// findAny returns the most recently inserted row holding args, live or
// dead. At most the newest row of a tuple is live (a fact is re-inserted
// only while every earlier row of it is dead), which Verify checks with
// it.
func (r *relation) findAny(h uint64, args []term.Term) (int32, bool) {
	tab := r.tab
	if len(tab) == 0 {
		return 0, false
	}
	best := tabEmpty
	n, m := uint32(r.nrows), rowMask(len(tab))
	tag := tagOf(h, m)
	for i := home(h, len(tab)); ; i = nextSlot(i, len(tab)) {
		v := uint32(atomic.LoadInt32(&tab[i]))
		ri := int32(v & m)
		if uint32(ri) >= n {
			return best, best != tabEmpty
		}
		if ri > best && v&^m == tag && r.equalRow(ri, args) {
			best = ri
		}
	}
}

// home returns the slot of an n-slot table at which the probe for fact
// hash h starts: the high word of the Fibonacci-mixed hash times n. The
// multiply-high reads the hash's high bits, which FNV-1a leaves nearly
// independent of small term IDs; the premultiply spreads them.
func home(h uint64, n int) int {
	hi, _ := bits.Mul64(h*0x9E3779B97F4A7C15, uint64(n))
	return int(hi)
}

// rowMask returns the bits of an n-slot table's slot that hold a row
// number: enough for every row the table can link, fewer than n. The
// bits above them, up to the sign bit, hold the same bits of the row's
// fact hash (tagOf), so a probe passes most rows of other tuples without
// reading their columns; the empty code -1 reads as a row number no
// relation has.
func rowMask(n int) uint32 { return 1<<bits.Len(uint(n)) - 1 }

// tagOf returns fact hash h's tag in a slot whose row number m masks.
func tagOf(h uint64, m uint32) uint32 { return uint32(h) &^ m &^ (1 << 31) }

// nextSlot is the slot a linear probe visits after slot i of n.
func nextSlot(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// tabInsert records local row ri (with fact hash h) in the dedup table,
// growing it at 3/4 load. The caller owns the table (see own) — so its
// own plain loads race with no store — and has established that no live
// row holds the tuple.
func (r *relation) tabInsert(h uint64, ri int32) {
	if n := len(r.tab); 4*(int(r.tabUsed)+1) > 3*n {
		r.rebuild(tabFor(n, int(r.tabUsed)+1))
	}
	r.place(h, ri)
}

// tabFor returns the slot count an n-slot table reaches by growing at 3/4
// load until it holds rows: doubling while it is under 256 KB; from there
// Go's append taper, held to ×1.5 so that a grown table is at least half
// full.
func tabFor(n, rows int) int {
	for 4*rows > 3*n {
		if n < 1<<16 {
			n = max(16, 2*n)
		} else {
			n += min(n/2, (n+3<<16)/4)
		}
	}
	return n
}

// place links local row ri (fact hash h) in the first empty slot from
// its home.
func (r *relation) place(h uint64, ri int32) {
	tab := r.tab
	i := home(h, len(tab))
	for tab[i] != tabEmpty {
		i = nextSlot(i, len(tab))
	}
	v := int32(tagOf(h, rowMask(len(tab))) | uint32(ri))
	if r.tabShared {
		atomic.StoreInt32(&tab[i], v)
	} else {
		tab[i] = v
	}
	r.tabUsed++
}

// tabSize is the slot count that holds n rows under 3/4 load with no
// slack: what the bulk paths (MergeBuffers, Compact, ReadSegment) size
// the table to, once.
func tabSize(n int) int { return (4*n+2)/3 + 1 }

// growTabTo sizes the dedup table for n rows in one rehash, unless it
// already holds them: the bulk merge pre-sizes for base rows plus every
// staged tuple instead of growing step by step mid-merge.
func (r *relation) growTabTo(n int) {
	if want := tabSize(n); want > len(r.tab) {
		r.rebuild(want)
	}
}

// rebuild replaces the dedup table with a fresh one of n slots that
// links rows 0..rows()-1 in row order, re-hashed from the columns, which
// it reads front to back: every local row, dead ones included, is linked
// exactly once, so the old table need not be read. It is left as it was
// for the views that hold it; the new one is nobody else's until the
// next Snapshot() hands it out.
func (r *relation) rebuild(n int) {
	r.tab, r.tabUsed, r.tabShared = newTab(n), 0, false
	for ri := 0; ri < r.nrows; ri++ {
		r.place(hashArgs(r.pred, r.args(int32(ri))), int32(ri))
	}
}

// newTab returns an all-empty table of n slots.
func newTab(n int) []int32 {
	tab := make([]int32, n)
	for i := range tab {
		tab[i] = tabEmpty
	}
	return tab
}

// own gives an overlay relation, which reads through another writer's
// dedup array, a private copy before the first row it appends: the only
// table copy there is, paid by the second writer of a row space, never
// by the first. Slots the other writer filled with rows this relation
// does not have are scrubbed — they would read as rows of its own once
// it has that many. A position a reader built late over the view covers
// exactly the rows this relation holds, so it becomes the position's
// frozen base, and the rows appended from here on go into a tail.
func (r *relation) own() {
	if r.tabShared { // else empty
		n, m := uint32(r.nrows), rowMask(len(r.tab))
		tab := newTab(len(r.tab))
		for k := range tab {
			if v := atomic.LoadInt32(&r.tab[k]); uint32(v)&m < n {
				tab[k] = v
			}
		}
		r.tab, r.tabShared = tab, false
		obsCowBytes.Add(uint64(4 * len(tab)))
	}
	for i := range r.idx {
		r.idx[i] = r.settled(i)
	}
	r.late = nil
	r.borrowed = false
}

// span is one run of a relation's insertion indexes (see relation.spans).
// No two adjacent spans close up: span k+1 starts past the index span k
// would give its next row.
type span struct{ row, at int32 }

// extend returns spans with local row ri — the row after the last one
// they cover — holding insertion index g, past every index they hold. It
// writes nothing when g follows on from the last span.
func extend(spans []span, ri, g int32) []span {
	if k := len(spans) - 1; k >= 0 && spans[k].at+ri-spans[k].row == g {
		return spans
	}
	return append(spans, span{ri, g})
}

// spanEnd returns the local row past span k's last row.
func (r *relation) spanEnd(k int) int32 {
	if k+1 < len(r.spans) {
		return r.spans[k+1].row
	}
	return int32(r.nrows)
}

// spanAt returns the last span whose first index is at or below g, and
// the local row past its last row; k is -1 when every index exceeds g.
// Every probe of a delta window binary-searches here.
func (r *relation) spanAt(g int32) (k int, end int32) {
	a, b := 0, len(r.spans)
	for a < b {
		if mid := int(uint(a+b) >> 1); r.spans[mid].at > g {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return a - 1, r.spanEnd(a - 1)
}

// indexOf returns local row ri's insertion index.
func (r *relation) indexOf(ri int32) int32 {
	k := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].row > ri }) - 1
	return r.spans[k].at + ri - r.spans[k].row
}

// rowOf returns the local row holding insertion index g, if one does.
func (r *relation) rowOf(g int32) (int32, bool) {
	k, end := r.spanAt(g)
	if k < 0 {
		return 0, false
	}
	ri := r.spans[k].row + g - r.spans[k].at
	return ri, ri < end
}

// firstSince returns the first local row whose global insertion index is at
// or after the mark — the lower bound of the contiguous delta window.
func (r *relation) firstSince(since Mark) int {
	if since <= 0 {
		return 0
	}
	k, end := r.spanAt(int32(since))
	if k < 0 {
		return 0
	}
	return int(min(r.spans[k].row+int32(since)-r.spans[k].at, end))
}

// hashArgs is the FNV-1a fact hash over an unboxed (pred, args) pair, so
// scratch-buffer insertion paths hash without materializing an atom. It is
// the store's own hash — nothing requires it to match atom.Atom.Hash.
func hashArgs(pred schema.PredID, args []term.Term) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h ^= uint64(pred)
	h *= prime
	for _, t := range args {
		h ^= hashKey(t)
		h *= prime
	}
	return h
}
