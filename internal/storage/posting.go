package storage

import (
	"maps"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/term"
)

// Index postings with an inline first row, one map per position, built
// on first probe, and shared with views as a frozen base plus a small
// tail.
//
// A posIndex maps a term's key to an int32 code: a non-negative code IS
// the single local row holding the term at the position (stored inline —
// no slice, no allocation), while a negative code -(k+1) points at entry
// k of the overflow table over, which holds the ascending row list of
// keys occurring more than once. On high-selectivity positions (wide
// domains, near-key columns) most keys occur once, so the per-key slice
// allocation of a map[...][]int32 representation disappears, the map
// value shrinks to 4 bytes, and steady-state updates of hot keys touch
// the map only once: the overflow row list is appended in place through
// the table, never re-stored. The key is term.Term.Key(), the term as a uint32, which takes
// the runtime's fast 32-bit map path.
//
// A position is paid for when it is probed, not when its relation is
// written. position.built is the watermark — rows [0, built) are indexed —
// and no insert path touches it. relation.posting, the one place a posting
// is resolved, first catches the position up over rows [built, rows()): a
// position nobody probes is never built, a position probed between writes
// pays for exactly the rows written since.
//
// What a write copies. A posIndex is either private to one writer, which
// extends it in place, or frozen — handed to a view by Snapshot(), or
// built by a reader on a view — and immutable from then on, so any number
// of views and overlays may hold it. A position is a base over
// rows [0, split) plus a tail over [split, built): while the base is
// private there is no tail; once it is frozen, later rows are indexed by
// the same builder into the tail, and a tail a view holds is copied (it is
// small) before it is extended. The base is never cloned for a handful of
// new rows. When the tail would outgrow foldBound it is folded into a fresh
// private base — the one O(position) copy, once per foldBound appended
// rows, counted by vadalog_storage_index_folds_total; every byte copied
// on behalf of sharing is counted by vadalog_storage_cow_bytes_total
// (the scaling test in internal/incremental holds a tc.churn-durable
// delete+insert pair to it). Every base row precedes every tail row, so a
// resolved posting is two ascending runs and enumeration order is the
// order of one list.
//
// Who may catch up:
//
//   - A writer-owned relation (a live DB, an overlay or Clone relation
//     that has appended rows) catches up inline, unsynchronized — its
//     probes belong to the goroutine that owns its writes, so concurrent
//     readers probe a frozen view (Snapshot), never the writer's DB.
//   - Snapshot() catches up every position that is built at all, so on a
//     frozen view a position is either current — two plain map lookups at
//     most, no lock, no atomic — or was never built.
//   - A never-built position of a frozen view is built by the first reader
//     that probes it, once per view, under the view's lateIndex; every
//     reader and every overlay still holding exactly the view's rows uses
//     that one build. The build also raises the position's want flag,
//     shared with the live relation, so the writer carries the position
//     from its next Snapshot() on.
type posIndex struct {
	m      map[uint32]int32
	over   [][]int32
	frozen bool
}

// position is one argument position's index: base covers rows [0, split),
// tail (nil while the base is private) rows [split, built).
type position struct {
	base, tail   *posIndex
	split, built int32
}

// foldBound is how many rows a tail may hold before it is folded into a
// new base: about 8·√rows, so the bytes a write copies on behalf of
// sharing — the tail each epoch, the base once per foldBound rows — stay
// sublinear in the relation.
func foldBound(rows int) int { return 8 << (bits.Len(uint(rows)) / 2) }

// lateIndex holds the postings readers built on a frozen view after it
// was taken: idx[i] is nil until position i's first probe.
type lateIndex struct {
	mu  sync.Mutex
	idx []atomic.Pointer[posIndex]
}

// clone returns a private copy of px: the map is copied, the overflow
// row lists shared. The relation the rows were first written to
// goes on appending into the lists' spare capacity, past what any holder
// of px reads; for every other writer (second: an overlay relation) the
// lists are cap-limited, so that its first append to one reallocates it.
func (px *posIndex) clone(second bool) *posIndex {
	out := &posIndex{m: maps.Clone(px.m), over: slices.Clone(px.over)}
	if second {
		for k, rows := range out.over {
			out.over[k] = rows[:len(rows):len(rows)]
		}
	}
	obsCowBytes.Add(uint64(8*len(px.m) + 24*len(px.over)))
	return out
}

// idxAdd records that local row ri holds the term with key k. Rows
// arrive in ascending order, so every posting stays ascending without
// comparison.
func (px *posIndex) idxAdd(k uint32, ri int32) {
	if px.m == nil {
		px.m = make(map[uint32]int32)
	}
	v, ok := px.m[k]
	switch {
	case !ok:
		px.m[k] = ri
	case v >= 0:
		px.over = append(px.over, []int32{v, ri})
		px.m[k] = -int32(len(px.over))
	default:
		e := -v - 1
		px.over[e] = append(px.over[e], ri)
	}
}

// indexRows adds rows [lo, hi) of position i to px — the one loop that
// builds postings.
func (r *relation) indexRows(px *posIndex, i, lo, hi int) {
	for ri := lo; ri < hi; ri++ {
		px.idxAdd(r.cols[ri*r.arity+i].Key(), int32(ri))
	}
}

// writable returns the index that rows [built, n) of position i go into:
// the base while it is private, else the tail — a private copy of it when
// a view holds the one at hand — unless those rows would take the tail
// past foldBound: then what the tail holds is folded into a new private
// base first, and the rows go there.
func (r *relation) writable(i, n int) *posIndex {
	p := &r.idx[i]
	switch {
	case p.base == nil:
		p.base = &posIndex{}
		return p.base
	case !p.base.frozen:
		return p.base
	case n-int(p.split) > foldBound(n):
		*p = position{base: r.folded(i), split: p.built, built: p.built}
		obsFolds.Inc()
		return p.base
	case p.tail == nil:
		p.tail = &posIndex{}
	case p.tail.frozen:
		p.tail = p.tail.clone(r.second)
	}
	return p.tail
}

// advance records that position i is indexed up to row n.
func (r *relation) advance(i, n int) {
	p := &r.idx[i]
	p.built = int32(n)
	if p.tail == nil {
		p.split = p.built
	}
}

// folded returns position i as one private index: a copy of the base with
// the tail's rows indexed in.
func (r *relation) folded(i int) *posIndex {
	p := &r.idx[i]
	px := p.base.clone(r.second)
	r.indexRows(px, i, int(p.split), int(p.built))
	return px
}

// catchUp brings position i up to rows() and returns the indexes to
// resolve against (see the posIndex comment for who ends up where).
func (r *relation) catchUp(i int) position {
	n := r.rows()
	if l := r.late; l != nil {
		px := l.idx[i].Load()
		if px == nil {
			l.mu.Lock()
			defer l.mu.Unlock()
			if px = l.idx[i].Load(); px == nil {
				px = &posIndex{frozen: true}
				r.indexRows(px, i, 0, n)
				l.idx[i].Store(px)
				r.want[i].Store(true)
				obsLateBuilds.Inc()
			}
		}
		return position{base: px, split: int32(n), built: int32(n)}
	}
	r.indexRows(r.writable(i, n), i, int(r.idx[i].built), n)
	r.advance(i, n)
	return r.idx[i]
}

// settled returns position i as a reader resolves it without building:
// on a frozen view, a position a reader built late stands in for the
// never-built one.
func (r *relation) settled(i int) position {
	p := r.idx[i]
	if r.late != nil && p.base == nil {
		if l := r.late.idx[i].Load(); l != nil {
			p = position{base: l, split: int32(r.nrows), built: int32(r.nrows)}
		}
	}
	return p
}

// bytes is the size of an index over rows rows: 8 B a key, 4 B a row
// in an overflow list, 24 B a list header.
func (px *posIndex) bytes(rows int) int {
	if px == nil {
		return 0
	}
	keys, lists := len(px.m), len(px.over)
	return 8*keys + 4*(rows-keys+lists) + 24*lists
}

// catchUpBuilt catches up every position that is built at all or that a
// reader asked for — what a writer does before it shares the relation
// (Snapshot) or writes it out (AppendSegment).
func (r *relation) catchUpBuilt() {
	if r.late != nil {
		return // still a frozen view's rows: current or never built
	}
	for i := range r.idx {
		if p := &r.idx[i]; int(p.built) < r.rows() && (p.base != nil || r.want[i].Load()) {
			r.catchUp(i)
		}
	}
}

// run is one ascending row list of a resolved posting: held inline when n
// == 1 and rows == nil. The zero value is the empty run.
type run struct {
	rows []int32
	one  [1]int32
	n    int32
}

// list returns the run as a slice (of the run's own storage when inline).
func (rn *run) list() []int32 {
	if rn.rows != nil {
		return rn.rows
	}
	return rn.one[:rn.n]
}

// lookup resolves key k in px; a nil index holds nothing.
func (px *posIndex) lookup(k uint32) run {
	if px == nil {
		return run{}
	}
	v, ok := px.m[k]
	if !ok {
		return run{}
	}
	if v >= 0 {
		return run{n: 1, one: [1]int32{v}}
	}
	rows := px.over[-v-1]
	return run{n: int32(len(rows)), rows: rows}
}

// candSet is a resolved posting: the candidate rows in the position's base
// followed by those in its tail, every base row before every tail row. The
// zero value is the empty posting.
type candSet struct{ base, tail run }

func (c *candSet) size() int { return int(c.base.n + c.tail.n) }

// posting resolves the candidate rows for term t at position i. A present
// key with no rows cannot occur; absent keys yield the empty set — the
// most selective outcome a probe can hit.
func (r *relation) posting(i int, t term.Term) candSet {
	p := &r.idx[i]
	if int(p.built) < r.rows() {
		caught := r.catchUp(i)
		p = &caught
	}
	k := t.Key()
	return candSet{base: p.base.lookup(k), tail: p.tail.lookup(k)}
}
