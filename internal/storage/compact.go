package storage

import (
	"math/bits"

	"repro/internal/obs"
	"repro/internal/schema"
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
// original global insertion indexes; the reclaimed rows' indexes become
// holes that no row holds. Relations below the threshold are completely
// untouched: their insertion spans, row handles, and outstanding marks all
// stay valid, so a workload churning one small relation inside a huge
// instance pays O(churning relation), never O(instance).
//
// Holes cost nothing to hold; once they outnumber the indexes rows hold —
// and nothing is pinned — squash renumbers every index, the only step
// that invalidates marks and handles of untouched relations.
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
	t0 := obs.Now()
	removed := 0
	for p, r := range db.rels {
		if r == nil || r.nDead == 0 || float64(r.nDead) < minDeadFrac*float64(r.rows()) ||
			respectPins && r.pins.Load() != 0 {
			continue
		}
		nr := newRelation(r.pred, r.arity)
		live := r.liveRows()
		nr.cols = make([]term.Term, 0, live*r.arity)
		for ri, n := 0, r.rows(); ri < n; ri++ {
			if r.isDead(int32(ri)) {
				continue
			}
			nr.cols = append(nr.cols, r.args(int32(ri))...)
			// Survivors keep their global indexes: they stay strictly
			// increasing and every OTHER relation stays untouched. A reclaimed
			// row splits its span.
			nr.spans = extend(nr.spans, int32(nr.nrows), r.indexOf(int32(ri)))
			nr.nrows++
		}
		// One exactly sized dedup table links every packed row.
		if live > 0 {
			nr.growTabTo(live)
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
		removed += r.nDead
	}
	db.dead -= removed
	db.holes += removed
	// Squashing only replaces headers and fresh slices, so it is safe
	// under live snapshots; the pin check merely keeps the deferring
	// Compact from invalidating marks while readers are active.
	if db.holes > 0 && 2*db.holes > db.next && (!respectPins || !db.pinnedLive()) {
		db.squash()
	}
	obsCompactSec.ObserveSince(t0)
	return removed
}

// squash renumbers every global index to its rank among the indexes rows
// hold (a prefix popcount over a bitmap of them), into fresh span lists:
// old arrays stay intact for clones and snapshots. A span's indexes are
// consecutive and all held, so it takes one rank; spans the renumbering
// closes up merge.
func (db *DB) squash() {
	used := make([]uint64, (db.next+63)/64)
	for _, r := range db.rels {
		for ri := int32(0); r != nil && ri < int32(r.nrows); ri++ {
			g := r.indexOf(ri)
			used[g>>6] |= 1 << (uint(g) & 63)
		}
	}
	rank := make([]int32, len(used)) // held indexes below each word
	for w, held := 0, 0; w < len(used); w++ {
		rank[w] = int32(held)
		held += bits.OnesCount64(used[w])
	}
	for p, r := range db.rels {
		if r == nil {
			continue
		}
		r = db.rel(schema.PredID(p), r.arity)
		var spans []span
		for _, s := range r.spans {
			below := used[s.at>>6] & (1<<(uint(s.at)&63) - 1)
			spans = extend(spans, s.row, rank[s.at>>6]+int32(bits.OnesCount64(below)))
		}
		r.spans = spans
	}
	db.next -= db.holes
	db.holes = 0
}
