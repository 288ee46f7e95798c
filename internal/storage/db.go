// Package storage implements the finite-instance layer: a deduplicating
// fact store with per-predicate columnar relations and per-position hash
// indexes over instances that may contain labeled nulls (as produced by
// the chase). It is read one way: a compiled ScanPlan probed into a slot
// frame (Probe). Package plan compiles every rule, query and pattern into
// chains of such scans.
package storage

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

// DB is an instance over a schema: a deduplicated set of ground atoms
// (constants and nulls). Facts live in per-predicate columnar relations
// (flat arity-strided term arrays with predicate-local dedup tables and
// per-position indexes); each row carries its global insertion index, and
// those indexes stitch the relations into one instance for Mark-based
// delta windows, provenance row indexes, and deterministic enumeration.
// The zero value is not usable; call NewDB.
type DB struct {
	// rels is dense by PredID; entries are nil until the predicate's first
	// fact arrives.
	rels []*relation
	// next is the next global insertion index.
	next int
	// dead is the total number of tombstoned rows across relations; Len and
	// the per-window counts report live rows only.
	dead int
	// holes counts the insertion indexes below next that no row holds —
	// rows a localized Compact reclaimed (see compact.go).
	holes int
	// frozen marks a snapshot view: every mutating operation panics.
	frozen bool
}

// mutable panics when the DB is a frozen snapshot view — the guard on
// every mutating entry point.
func (db *DB) mutable() {
	if db.frozen {
		panic("storage: mutating a frozen snapshot view")
	}
}

// NewDB returns an empty instance.
func NewDB() *DB {
	return &DB{}
}

// relOf returns the predicate's relation, or nil if no fact with that
// predicate was ever inserted.
func (db *DB) relOf(p schema.PredID) *relation {
	if int(p) < len(db.rels) {
		return db.rels[p]
	}
	return nil
}

// rel returns the predicate's relation for writing: created on first
// insert, and in an overlay a header of its own in place of the frozen
// relation it read until now.
func (db *DB) rel(p schema.PredID, arity int) *relation {
	for int(p) >= len(db.rels) {
		db.rels = append(db.rels, nil)
	}
	r := db.rels[p]
	switch {
	case r == nil:
		r = newRelation(p, arity)
		db.rels[p] = r
	case r.frozen:
		r = r.overlay()
		db.rels[p] = r
	}
	return r
}

// Insert adds a ground atom, reporting whether it was new. Atoms with
// variables are rejected by panic: inserting a non-ground atom is always a
// programming error in the engine layers above.
func (db *DB) Insert(a atom.Atom) bool {
	return db.InsertArgs(a.Pred, a.Args)
}

// InsertArgs adds the ground fact pred(args...), reporting whether it was
// new. The argument tuple is copied into the columnar backing, so callers
// may reuse args as a scratch buffer — this is the zero-allocation
// insertion path the compiled-plan executors drive with their head
// scratch buffers.
func (db *DB) InsertArgs(pred schema.PredID, args []term.Term) bool {
	db.mutable()
	for _, t := range args {
		if t.IsVar() {
			panic("storage: inserting non-ground atom")
		}
	}
	return db.insert(db.rel(pred, len(args)), hashArgs(pred, args), args)
}

// insert is the one-row step of InsertArgs and MergeBuffers: unless a live
// row of r holds args (fact hash h), it appends them as r's next row and
// numbers it with the next global insertion index. Reports whether it did.
func (db *DB) insert(r *relation, h uint64, args []term.Term) bool {
	if _, ok := r.find(h, args); ok {
		return false
	}
	// Decide first, copy after: a duplicate copies nothing.
	if r.borrowed {
		r.own()
	}
	r.tabInsert(h, int32(r.nrows))
	r.cols = append(grow(r.cols, len(args)), args...)
	r.spans = extend(r.spans, int32(r.nrows), int32(db.next))
	r.nrows++
	db.next++
	return true
}

// grow returns s with room for n more elements, doubling the capacity when
// it runs out. The columns only ever grow, and append's 1.25x steps for
// large slices re-copy a column about five times its final size over a load.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	out := make([]T, len(s), growCap(cap(s), len(s)+n))
	copy(out, s)
	return out
}

// growCap is the capacity grow gives a slice of capacity c that must hold
// need elements.
func growCap(c, need int) int { return max(2*c, need, 8) }

// BulkWindow reports the rows src holds from since on, and whether
// AppendWindow may land them in dst: they exist, none is tombstoned, and
// dst holds no row.
func (db *DB) BulkWindow(dst, src schema.PredID, since Mark) (int, bool) {
	d, r := db.relOf(dst), db.relOf(src)
	if d != nil && d.nrows > 0 || r == nil {
		return 0, false
	}
	lo := r.firstSince(since)
	for ri := lo; r.nDead > 0 && ri < r.nrows; ri++ {
		if r.isDead(int32(ri)) {
			return 0, false
		}
	}
	return r.nrows - lo, true
}

// AppendWindow lands the first n rows of src's window from since on in
// dst, which BulkWindow admitted, column i of each new row reading column
// cols[i] (a permutation) of its source row. Every row is new, so the
// instance is the one n InsertArgs calls in window order build, down to
// insertion indexes (one span), column capacity and dedup slots.
func (db *DB) AppendWindow(dst, src schema.PredID, since Mark, cols []int, n int) {
	db.mutable()
	if n == 0 {
		return
	}
	s, r := db.relOf(src), db.rel(dst, len(cols))
	if r.borrowed {
		r.own()
	}
	a, lo := r.arity, s.firstSince(since)
	if need := n * a; need > cap(r.cols) {
		c := cap(r.cols)
		for c < need {
			c = growCap(c, c/a*a+a)
		}
		r.cols = make([]term.Term, 0, c)
	}
	r.cols = r.cols[:n*a]
	if slices.IsSorted(cols) { // the identity: one copy
		copy(r.cols, s.cols[lo*a:(lo+n)*a])
	} else {
		for k := range n {
			row, from := r.cols[k*a:(k+1)*a], s.args(int32(lo+k))
			for i, c := range cols {
				row[i] = from[c]
			}
		}
	}
	r.spans = extend(r.spans, 0, int32(db.next))
	r.nrows, db.next = n, db.next+n
	r.rebuild(tabFor(len(r.tab), n))
}

// InsertAll inserts a batch of atoms, reporting how many were new.
func (db *DB) InsertAll(atoms []atom.Atom) int {
	n := 0
	for _, a := range atoms {
		if db.Insert(a) {
			n++
		}
	}
	return n
}

// Contains reports whether the ground atom is present.
func (db *DB) Contains(a atom.Atom) bool {
	return db.ContainsArgs(a.Pred, a.Args)
}

// ContainsArgs reports whether the fact pred(args...) is present, without
// materializing an atom; args may be a scratch buffer.
func (db *DB) ContainsArgs(pred schema.PredID, args []term.Term) bool {
	r := db.relOf(pred)
	if r == nil {
		return false
	}
	_, ok := r.find(hashArgs(pred, args), args)
	return ok
}

// Len reports the number of live stored atoms (tombstoned rows excluded).
func (db *DB) Len() int { return db.next - db.dead - db.holes }

// CountPred reports the number of live atoms with the given predicate.
func (db *DB) CountPred(p schema.PredID) int {
	if r := db.relOf(p); r != nil {
		return r.liveRows()
	}
	return 0
}

// Facts returns the live stored atoms with the given predicate in
// insertion order. The atoms' argument slices alias the columnar backing;
// callers must not mutate them.
func (db *DB) Facts(p schema.PredID) []atom.Atom {
	r := db.relOf(p)
	if r == nil {
		return nil
	}
	out := make([]atom.Atom, 0, r.liveRows())
	for i, n := 0, r.rows(); i < n; i++ {
		if r.nDead != 0 && r.isDead(int32(i)) {
			continue
		}
		out = append(out, r.atomAt(int32(i)))
	}
	return out
}

// All returns every live stored atom in insertion order. The slice is
// fresh but the atoms' argument slices alias the columnar backing. A cold
// path (export, provenance seeding, the REPL): the live rows are scattered
// by insertion index, then gathered in place.
func (db *DB) All() []atom.Atom {
	at, live := make([]atom.Atom, db.next), make([]bool, db.next)
	for _, r := range db.rels {
		for ri := int32(0); r != nil && ri < int32(r.nrows); ri++ {
			if g := r.indexOf(ri); !r.isDead(ri) {
				at[g], live[g] = r.atomAt(ri), true
			}
		}
	}
	out := at[:0]
	for g := range at {
		if live[g] {
			out = append(out, at[g])
		}
	}
	return out
}

// Clone returns an observationally identical, independently writable
// copy: the Overlay of a frozen view, and on a live DB the Overlay of a
// Snapshot that is released at once. The overlay copies nothing up front
// and needs no pin, since Compact never mutates a backing in place. On a
// live DB, Clone is a writer-side operation, like Snapshot, and the
// clone's relations hear only their own probes (fresh want flags), so it
// never makes its source build a posting position. Writes on either side
// after the clone stay invisible to the other.
func (db *DB) Clone() *DB {
	if db.frozen {
		return db.Overlay()
	}
	s := db.Snapshot()
	defer s.Release()
	out := s.DB().Overlay()
	for p, r := range out.rels {
		if r != nil {
			r = out.rel(schema.PredID(p), r.arity)
			r.want = make([]atomic.Bool, r.arity)
		}
	}
	return out
}

// ActiveDomain returns dom(I): all terms occurring in the live instance,
// with constants first, deterministically ordered.
func (db *DB) ActiveDomain() []term.Term {
	seen := make(map[term.Term]bool)
	var out []term.Term
	for _, r := range db.rels {
		if r == nil {
			continue
		}
		for ri, n := 0, r.rows(); ri < n; ri++ {
			if r.nDead != 0 && r.isDead(int32(ri)) {
				continue
			}
			for _, t := range r.args(int32(ri)) {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Constants returns the constants of the active domain.
func (db *DB) Constants() []term.Term {
	var out []term.Term
	for _, t := range db.ActiveDomain() {
		if t.IsConst() {
			out = append(out, t)
		}
	}
	return out
}
