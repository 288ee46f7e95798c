package storage

import (
	"slices"
	"sync/atomic"
)

// Snapshots: epoch-pinned read-only views of a live instance.
//
// A snapshot is the storage substrate of the reasoning service: many
// reader goroutines evaluate queries lock-free against a snapshot while a
// single writer keeps applying inserts, tombstones, and compaction to the
// originating DB. A publish copies nothing and a write copies what it
// changes:
//
//   - The append-only columns (cols, spans) are captured as cap-limited
//     views. The writer's appends land at indexes the view can never
//     reach, so they need no coordination.
//   - The dedup table is shared for good. Liveness is the bitmap and
//     nothing else, so the only write a table ever sees is the live
//     relation filling an empty slot with a new row's number (an atomic
//     store; growth swaps in a fresh array and leaves the old one to its
//     views). A view reads a slot naming a row it does not have as empty.
//     Only the relation that appends rows may write a table; a second
//     writer of the same row space — an overlay, and so a Clone — copies
//     the array first (relation.own), scrubbing rows it cannot see.
//   - The posting indexes a view gets are frozen: the writer indexes later
//     rows into a small tail beside the frozen base and copies at most
//     that tail per epoch (see posting.go).
//   - The liveness bitmap (1 bit per row) is the one structure copied
//     whole, by the first kill of an epoch.
//
// Snapshot() itself therefore costs O(#relations) header copies (of an
// overlay, only of the relations it wrote: the others are its source
// view's frozen relations, handed out as they are), plus
// catching up the posting positions that are built over the rows written
// since they were last probed; an insert that follows it copies no table
// and no base. On tc.churn-durable that took the paced delete's p50_ms
// from 3.7 to 2.6 ms and incremental.alloc_bytes_per_op from 1.07 MB to
// 0.05 MB; vadalog_storage_cow_bytes_total counts what is still copied. Relations untouched by an epoch's updates are never copied at
// all.
//
// Each captured relation also carries an atomic pin count. Compact defers
// relations with live pins instead of reclaiming them, so a long-running
// reader never holds the double-memory cost of a rewrite-under-pin; the
// caller re-runs Compact after snapshots release (see Compact). A pin
// only defers reclamation: Compact and squash never mutate a backing in
// place, so what a view holds stays valid without it.

// Snapshot is a read-only view of a DB at one instant. The view is
// reachable through DB(): a frozen *storage.DB on which every read path —
// Probe (and so every compiled plan), Facts, All, Contains — works
// unchanged, and every mutating path panics. Snapshots are safe for
// concurrent readers. Until Release, Compact on the source defers the
// relations the view holds; the service releases an epoch's snapshot when
// its last reader is done.
type Snapshot struct {
	db       *DB
	pinned   []*relation
	released atomic.Bool
}

// Snapshot captures the current state of the instance. The returned view
// observes exactly the facts live at this instant, regardless of later
// inserts, tombstones, or compaction on the receiver. Snapshotting a
// snapshot is a programming error (panic); overlay a snapshot instead to
// get a private mutable copy.
func (db *DB) Snapshot() *Snapshot {
	if db.frozen {
		panic("storage: Snapshot of a frozen snapshot view")
	}
	out := &DB{rels: make([]*relation, len(db.rels)), next: db.next, dead: db.dead, holes: db.holes, frozen: true}
	s := &Snapshot{db: out, pinned: make([]*relation, 0, len(db.rels))}
	for p, r := range db.rels {
		if r == nil {
			continue
		}
		if r.frozen {
			// A relation an overlay never wrote is its source view's:
			// shared as it is, pinned by whoever snapshotted the source.
			out.rels[p] = r
			continue
		}
		// Catch up every position that is built at all, so that readers of
		// the view find a position either current or never built, and
		// freeze what the view gets: the live relation extends tails from
		// here on and copies the bitmap before it flips a bit. Then pin it
		// against physical reclamation.
		r.catchUpBuilt()
		for i := range r.idx {
			for _, px := range [2]*posIndex{r.idx[i].base, r.idx[i].tail} {
				if px != nil && !px.frozen {
					px.frozen = true
				}
			}
		}
		r.deadShared = true
		r.tabShared = r.tab != nil
		r.pins.Add(1)
		s.pinned = append(s.pinned, r)
		v := r.view()
		v.frozen = true
		if v.late == nil {
			for i := range v.idx {
				if int(v.idx[i].built) < v.rows() {
					v.late = &lateIndex{idx: make([]atomic.Pointer[posIndex], v.arity)}
					break
				}
			}
		}
		out.rels[p] = v
	}
	return s
}

// DB returns the frozen view. All read APIs of storage.DB apply; mutating
// it panics. Overlay() of the view yields a mutable copy-on-write overlay
// (the rule-defined-view query path materializes view predicates into
// such overlays).
func (s *Snapshot) DB() *DB { return s.db }

// Overlay returns a mutable copy-on-write overlay of a frozen snapshot
// view: reads fall through to the snapshot's backings, and writes copy
// what they change. Overlay copies only the relation table: the overlay
// holds the view's frozen relations, and the first write of one (DB.rel)
// gives it a header of its own, which reads through the view's dedup
// array until the first row it appends (relation.own — it is a second
// writer of the view's row space), indexes its own rows into tails beside
// the view's frozen posting bases and copies the bitmap before its first
// tombstone. Relations the overlay never writes are never copied at all,
// and a Snapshot of the overlay hands them out as they are. View rules
// deriving into fresh predicates (the common rule-defined-view query) grow
// a small private relation set while every base relation stays a zero-copy
// fall-through read.
//
// Overlay is only valid on frozen snapshot views: what they hold is
// immutable or, for the dedup arrays, read under the row-visibility rule,
// so sharing it without coordination is sound. Overlaying a live DB
// would race its writer and panics (Clone snapshots it first). The
// overlay may outlive the snapshot's Release: a pin only defers
// compaction, which never mutates what the overlay reads.
func (db *DB) Overlay() *DB {
	if !db.frozen {
		panic("storage: Overlay of a live DB (snapshot it first)")
	}
	return &DB{rels: slices.Clone(db.rels), next: db.next, dead: db.dead, holes: db.holes}
}

// Release unpins the snapshot's relations, allowing Compact on the source
// DB to reclaim them. Idempotent. The view and its overlays stay readable
// after it: compaction rebuilds into fresh backings and leaves the old
// ones to whoever holds them, so Release only gives up the deferral.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	for _, r := range s.pinned {
		r.pins.Add(-1)
	}
}

// view captures the relation's current state as a relation struct of its
// own: append-only columns cap-limited, the dedup array and the bitmap
// shared (the source copies the bitmap before its next kill; table slots
// the source fills later name rows the view does not have), the position
// headers copied so that the source may move its own on.
func (r *relation) view() *relation {
	return &relation{
		pred:      r.pred,
		arity:     r.arity,
		cols:      r.cols[:len(r.cols):len(r.cols)],
		nrows:     r.nrows,
		spans:     r.spans[:len(r.spans):len(r.spans)],
		tab:       r.tab,
		tabUsed:   r.tabUsed,
		tabShared: r.tabShared,
		idx:       slices.Clone(r.idx),
		late:      r.late,
		want:      r.want,
		dead:      r.dead,
		nDead:     r.nDead,
	}
}

// pinnedLive reports whether any relation of the DB is pinned by a live
// snapshot — the guard that defers renumbering insertion indexes.
func (db *DB) pinnedLive() bool {
	for _, r := range db.rels {
		if r != nil && r.pins.Load() > 0 {
			return true
		}
	}
	return false
}
