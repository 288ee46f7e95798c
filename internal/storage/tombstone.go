package storage

import (
	"slices"

	"repro/internal/schema"
	"repro/internal/term"
)

// Tombstones: the in-place deletion layer over the columnar relations.
//
// A relation's rows are physically immutable, but each relation carries a
// liveness bitmap (one bit per local row, words allocated on first kill),
// and liveness is that bitmap and nothing else: deleting a fact flips its
// bit, no other structure changes, and a dead row never comes back.
// Every enumeration path — full scans, posting probes, compiled scan
// plans, Facts/All/ActiveDomain — skips dead rows with a single word
// test; a dedup probe that matches a dead row keeps probing (relation.find),
// so a fact that holds again — re-asserted, or rederived by DRed — is
// inserted as a fresh row further down the chain, and its dead row stays
// until Compact reclaims it. Columns, postings, the dedup table and the
// global insertion indexes keep their layout, so marks stay contiguous
// local windows and views keep sharing all of them; the bitmap is copied
// once per epoch that tombstones (8 KB for the 65 k-row closure of
// tc.churn-durable, counted in vadalog_storage_cow_bytes_total). Physical
// reclamation is a separate, explicitly requested step (DB.Compact), so
// steady-state deletes are O(affected facts), never O(instance).

// tabEmpty is the dedup-table code of a slot no row has claimed.
const tabEmpty int32 = -1

// isDead reports whether local row ri is tombstoned. Rows beyond the
// bitmap (inserted after the last kill) are live by construction.
func (r *relation) isDead(ri int32) bool {
	w := int(ri >> 6)
	return w < len(r.dead) && r.dead[w]>>(uint(ri)&63)&1 != 0
}

// liveRows is the number of stored facts that are not tombstoned.
func (r *relation) liveRows() int { return r.nrows - r.nDead }

// ownDead makes the bitmap this relation's to write: a private copy if a
// view reads the one at hand.
func (r *relation) ownDead() {
	if r.deadShared {
		r.dead = slices.Clone(r.dead)
		r.deadShared = false
		obsCowBytes.Add(uint64(8 * len(r.dead)))
	}
}

// kill tombstones live local row ri by flipping its liveness bit. Reports
// whether the row was live.
func (r *relation) kill(ri int32) bool {
	if r.isDead(ri) {
		return false
	}
	r.ownDead()
	for len(r.dead)*64 <= int(ri) {
		r.dead = append(r.dead, 0)
	}
	r.dead[ri>>6] |= 1 << (uint(ri) & 63)
	r.nDead++
	return true
}

// Tombstone marks the fact at the (pred, local row) handle deleted in
// place: scans, probes, counts, and containment stop seeing it, but no
// column moves and no store is rebuilt. Reports whether the row was live.
func (db *DB) Tombstone(pred schema.PredID, row int32) bool {
	db.mutable()
	r := db.relOf(pred)
	if r == nil || int(row) >= r.rows() || r.isDead(row) {
		return false
	}
	r = db.rel(pred, r.arity)
	if !r.kill(row) {
		return false
	}
	db.dead++
	return true
}

// FindRow returns the (pred, local row) handle of the live fact
// pred(args...); tombstoned rows are never found. Handles stay valid until
// the next Compact.
func (db *DB) FindRow(pred schema.PredID, args []term.Term) (int32, bool) {
	r := db.relOf(pred)
	if r == nil {
		return 0, false
	}
	return r.find(hashArgs(pred, args), args)
}

// FactArgs returns the argument tuple at a handle, live or dead, as a
// cap-limited view of the columnar backing.
func (db *DB) FactArgs(pred schema.PredID, row int32) []term.Term {
	return db.rels[pred].args(row)
}

// PhysicalLen reports the number of physically stored rows, dead included
// — equivalently the next global insertion index. Consumers keying
// side tables by insertion index (chase provenance) must use this, not
// Len, which counts live rows only.
func (db *DB) PhysicalLen() int { return db.next }
