package storage

import (
	"maps"
	"sync/atomic"
)

// Snapshots: epoch-pinned read-only views of a live instance.
//
// A snapshot is the storage substrate of the reasoning service: many
// reader goroutines evaluate queries lock-free against a snapshot while a
// single writer keeps applying inserts, tombstones, and compaction to the
// originating DB. The mechanism is the cap-limited-sharing discipline that
// already makes Clone cheap, taken one step further:
//
//   - The append-only columns (cols, global, hashes, the insertion log)
//     are captured as cap-limited views. The writer's appends land at
//     indexes the view can never reach, so they need no coordination.
//   - The in-place-mutated structures — the dedup table, the posting maps,
//     the overflow table's outer slice, the liveness bitmap — are SHARED
//     at capture time and copy-on-write on the writer's side: the first
//     mutating operation on a relation after a snapshot captured it
//     replaces them with private copies (relation.detach) before writing.
//     The snapshot keeps the originals, which are immutable from then on.
//
// Snapshot() itself therefore costs O(#relations) header copies, plus
// catching up the posting positions that are built over the rows written
// since they were last probed (see posting.go: a view's positions are
// current or never built); the writer pays one detach — O(dedup table +
// built posting keys) — per (snapshot epoch, relation it actually
// mutates). Relations untouched by an epoch's updates are never copied at
// all.
//
// Each captured relation also carries an atomic pin count. Compact defers
// relations with live pins instead of reclaiming them, so a long-running
// reader never holds the double-memory cost of a rewrite-under-pin; the
// caller re-runs Compact after snapshots release (see Compact).

// Snapshot is a read-only view of a DB at one instant. The view is
// reachable through DB(): a frozen *storage.DB on which every read path —
// Probe, MatchEach, EvalCQ, Facts, All, Contains — works unchanged, and
// every mutating path panics. Snapshots are safe for concurrent readers;
// Release must be called exactly once when no reader uses the view
// anymore (the service refcounts its epochs for this).
type Snapshot struct {
	db       *DB
	pinned   []*relation
	released atomic.Bool
}

// Snapshot captures the current state of the instance. The returned view
// observes exactly the facts live at this instant, regardless of later
// inserts, tombstones, or compaction on the receiver. Snapshotting a
// snapshot is a programming error (panic); Clone a snapshot instead to
// get a private mutable copy.
func (db *DB) Snapshot() *Snapshot {
	if db.frozen {
		panic("storage: Snapshot of a frozen snapshot view")
	}
	out := &DB{
		rels:   make([]*relation, len(db.rels)),
		order:  db.order[:len(db.order):len(db.order)],
		base:   db.base,
		dead:   db.dead,
		holes:  db.holes,
		frozen: true,
	}
	s := &Snapshot{db: out, pinned: make([]*relation, 0, len(db.rels))}
	for p, r := range db.rels {
		if r == nil {
			continue
		}
		// Catch up every position that is built at all, so that readers of
		// the view find a position either current or never built; then
		// mark the live relation shared — its next in-place mutation must
		// detach — and pin it against physical reclamation.
		r.catchUpBuilt()
		r.shared = true
		r.pins.Add(1)
		s.pinned = append(s.pinned, r)
		v := r.view()
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
// such overlays); Clone() yields a fully private mutable copy.
func (s *Snapshot) DB() *DB { return s.db }

// Overlay returns a mutable copy-on-write overlay of a frozen snapshot
// view: reads fall through to the snapshot's backings, and writes detach
// lazily. Where Clone eagerly copies every relation's dedup sub-tables and
// posting maps — O(instance) before the first derived fact lands — Overlay
// copies only the per-relation headers (and shares the insertion log as
// DB.base, so the first insert does not copy it): each overlay relation
// shares the frozen backings and is marked shared, so the FIRST in-place mutation of
// a relation detaches private copies of its dedup/posting structures, and
// relations the overlay never writes are never copied at all. View rules
// deriving into fresh predicates (the common rule-defined-view query) grow
// a small private relation set while every base relation stays a zero-copy
// fall-through read.
//
// Overlay is only valid on frozen snapshot views: their relation structures
// are immutable (the live DB detached from them before its next mutation),
// so sharing them without coordination is sound. Overlaying a live DB
// would race its writer and panics. The overlay borrows the snapshot's
// backings, so it must not outlive the snapshot's Release (the service
// scopes overlays to their epoch's refcount for exactly this reason).
func (db *DB) Overlay() *DB {
	if !db.frozen {
		panic("storage: Overlay of a live DB (snapshot it first)")
	}
	out := &DB{
		rels:  make([]*relation, len(db.rels)),
		base:  db.fullLog(),
		dead:  db.dead,
		holes: db.holes,
	}
	for p, r := range db.rels {
		if r == nil {
			continue
		}
		nr := r.view()
		// Force detach before the overlay's first in-place mutation of
		// this relation — the frozen snapshot keeps the originals.
		nr.shared = true
		out.rels[p] = nr
	}
	return out
}

// Release unpins the snapshot's relations, allowing Compact on the source
// DB to reclaim them. Idempotent; reading the view after Release is a
// use-after-free in spirit (the backings stay valid only until the source
// compacts them away — callers must not race Release with readers).
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	for _, r := range s.pinned {
		r.pins.Add(-1)
	}
}

// view captures the relation's current state as an immutable relation
// struct: append-only columns cap-limited, in-place-mutated structures
// shared (the source detaches before its next mutation, so what the view
// holds never changes).
func (r *relation) view() *relation {
	return &relation{
		pred:    r.pred,
		arity:   r.arity,
		cols:    r.cols[:len(r.cols):len(r.cols)],
		global:  r.global[:len(r.global):len(r.global)],
		hashes:  r.hashes[:len(r.hashes):len(r.hashes)],
		tabs:    r.tabs,
		tabUsed: r.tabUsed,
		idx:     r.idx,
		late:    r.late,
		want:    r.want,
		dead:    r.dead,
		nDead:   r.nDead,
	}
}

// detach gives the relation private copies of every structure a snapshot
// may share and the writer mutates in place: the dedup sub-tables, the
// posting sub-maps, the overflow outer slices, and the liveness bitmap.
// The append-only columns stay shared (appends are invisible to
// cap-limited views). Called by every in-place mutator when r.shared is
// set; runs at most once per (snapshot, relation).
//
// The idx slice itself is replaced (not copied element-wise in place)
// because a view shares the []posIndex backing array: mutating a posIndex
// through the shared backing would leak into the view.
func (r *relation) detach() {
	for s := 0; s < relShards; s++ {
		if r.tabs[s] != nil {
			r.tabs[s] = append([]int32(nil), r.tabs[s]...)
		}
	}
	nidx := make([]posIndex, len(r.idx))
	for i := range r.idx {
		nidx[i].built = r.idx[i].built
		for s := 0; s < relShards; s++ {
			nidx[i].m[s] = maps.Clone(r.idx[i].m[s])
			if ov := r.idx[i].over[s]; ov != nil {
				nidx[i].over[s] = append([][]int32(nil), ov...)
			}
		}
	}
	r.idx = nidx
	// An overlay relation leaves the frozen view's late builds behind with
	// the structures it shared: its never-built positions are its own now.
	r.late = nil
	r.dead = append([]uint64(nil), r.dead...)
	r.shared = false
}

// pinnedLive reports whether any relation of the DB is pinned by a live
// snapshot — the guard that defers insertion-log squashing.
func (db *DB) pinnedLive() bool {
	for _, r := range db.rels {
		if r != nil && r.pins.Load() > 0 {
			return true
		}
	}
	return false
}
