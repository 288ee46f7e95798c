package storage

import (
	"repro/internal/obs"
	"repro/internal/term"
)

// Compact physically reclaims tombstoned rows, one relation at a time.
//
// A relation is rebuilt only when its dead fraction reaches minDeadFrac
// (0 < frac <= 1) AND no live snapshot pins it (pinned relations are
// deferred — their backings are still being read lock-free; the caller
// re-runs Compact after the snapshots release). The rebuild is localized:
// live rows are re-packed into fresh columns, a freshly-sized dedup table,
// and fresh postings for the positions that were built, KEEPING their
// original global insertion indexes, and the insertion log is patched in
// a fresh copy — reclaimed entries become holes (row == holeRow),
// surviving entries are re-pointed at their packed rows. Relations below
// the threshold are completely untouched: their global columns, row
// handles, and outstanding marks all stay valid, so a workload churning
// one small relation inside a huge instance pays O(churning relation),
// never O(instance).
//
// Holes keep the log monotone (global indexes never renumber) at 8 bytes
// each; once they outnumber live entries — and nothing is pinned — the
// log is squashed: holes drop out, every global index renumbers, and
// every relation's global column is rewritten into fresh backings. Only
// the squash invalidates marks and handles of untouched relations.
//
// Nothing is ever mutated in place (old backings may be shared with
// clones and snapshots). Returns the number of rows reclaimed.
func (db *DB) Compact(minDeadFrac float64) int {
	return db.compact(minDeadFrac, true)
}

// CompactAll is Compact without the pin deferral: pinned relations are
// copied out — rebuilt into fresh backings while live snapshots keep
// serving from the old ones (safe because rebuilds never touch the old
// backings; the cost is both copies coexisting until the snapshots
// release). The reasoning service uses this as its retry once an epoch
// drains, so pinned-but-dead relations cannot accumulate garbage forever
// under continuous query load.
func (db *DB) CompactAll(minDeadFrac float64) int {
	return db.compact(minDeadFrac, false)
}

func (db *DB) compact(minDeadFrac float64, respectPins bool) int {
	db.mutable()
	if db.dead == 0 && db.holes == 0 {
		return 0
	}
	// Compaction rewrites log entries in place: own the whole log first.
	db.order, db.base = db.fullLog(), nil
	t0 := obs.Now()
	var reclaim []int
	for p, r := range db.rels {
		if r != nil && r.nDead > 0 && float64(r.nDead) >= minDeadFrac*float64(r.rows()) &&
			(!respectPins || r.pins.Load() == 0) {
			reclaim = append(reclaim, p)
		}
	}
	removed := 0
	if len(reclaim) > 0 {
		// Patch a fresh copy of the insertion log; the old backing may be
		// shared cap-limited with clones and snapshot views.
		newOrder := append([]rowRef(nil), db.order...)
		for _, p := range reclaim {
			r := db.rels[p]
			nr := newRelation(r.pred, r.arity)
			live := r.liveRows()
			nr.cols = make([]term.Term, 0, live*r.arity)
			nr.global = make([]int32, 0, live)
			nr.hashes = make([]uint64, 0, live)
			for ri, n := 0, r.rows(); ri < n; ri++ {
				g := r.global[ri]
				if r.isDead(int32(ri)) {
					newOrder[g] = rowRef{pred: r.pred, row: holeRow}
					removed++
					continue
				}
				nrow := int32(len(nr.hashes))
				nr.cols = append(nr.cols, r.args(int32(ri))...)
				nr.hashes = append(nr.hashes, r.hashes[ri])
				// Survivors keep their global indexes: the column stays
				// strictly increasing and the log positions of every OTHER
				// relation stay untouched.
				nr.global = append(nr.global, g)
				newOrder[g] = rowRef{pred: r.pred, row: nrow}
			}
			if len(nr.hashes) > 0 {
				// Pre-size the dedup sub-tables, then link every packed row
				// (all live by construction) — one rehash total.
				nr.growTabTo(len(nr.hashes))
				for ri := range nr.hashes {
					nr.tabInsert(nr.hashes[ri], int32(ri))
				}
			}
			// The packed relation keeps the positions its predecessor
			// carried, and goes on hearing the readers of its views.
			nr.want = r.want
			for i := range r.idx {
				if r.idx[i].base != nil {
					nr.catchUp(i)
				}
			}
			db.rels[p] = nr
		}
		db.order = newOrder
		db.dead -= removed
		db.holes += removed
	}
	// Squashing only replaces headers and fresh slices, so it is safe
	// under live snapshots; the pin check merely keeps the deferring
	// Compact from invalidating marks while readers are active.
	if db.holes > 0 && 2*db.holes > len(db.order) && (!respectPins || !db.pinnedLive()) {
		db.squashLog()
	}
	if !t0.IsZero() {
		obsCompactSec.ObserveSince(t0)
		obsCompactRows.Add(uint64(removed))
	}
	return removed
}

// squashLog drops every hole from the insertion log, renumbering global
// indexes and rewriting each relation's global column into fresh backings
// (replacing headers only — old arrays stay intact for clones and
// snapshots). Invalidates every outstanding Mark.
func (db *DB) squashLog() {
	newGlobal := make([][]int32, len(db.rels))
	for p, r := range db.rels {
		if r != nil {
			newGlobal[p] = make([]int32, 0, r.rows())
		}
	}
	newOrder := make([]rowRef, 0, len(db.order)-db.holes)
	for _, ref := range db.order {
		if ref.row == holeRow {
			continue
		}
		newGlobal[ref.pred] = append(newGlobal[ref.pred], int32(len(newOrder)))
		newOrder = append(newOrder, ref)
	}
	for p, r := range db.rels {
		if r != nil {
			r.global = newGlobal[p]
		}
	}
	db.order = newOrder
	db.holes = 0
}
