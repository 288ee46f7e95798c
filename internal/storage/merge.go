package storage

import (
	"repro/internal/obs"
	"repro/internal/schema"
)

// MergeBuffers folds staged buffers into the instance, returning the
// number of new facts. It is the bulk counterpart of InsertArgs and the
// other half of the TupleBuffer contract:
//
//   - each staged row goes through InsertArgs' one-row step with the hash
//     cached at append time — no tuple is ever re-hashed — so duplicates
//     are caught against the instance, within one buffer, and across
//     buffers alike;
//   - each relation's dedup sub-tables are pre-sized for the worst case
//     (its rows plus every staged distinct tuple) in ONE rehash, instead
//     of growing power-of-two by power-of-two under per-row inserts.
//
// The fold is serial, so no result depends on par (which is unused) or on
// GOMAXPROCS: predicates are folded in first-touched order across the
// buffers (ties by buffer order), tuples within a predicate in (buffer,
// append) order, each numbered as it lands.
func (db *DB) MergeBuffers(bufs []*TupleBuffer, par int) int {
	t0 := obs.Now()
	db.mutable()
	// Per-predicate distinct estimates for table pre-sizing: summing each
	// buffer's local distinct count (rather than its raw staged-row count)
	// keeps duplicate-heavy batches from growing tables for rows that will
	// never be inserted; an underestimate (cross-buffer-only hash
	// collisions) merely falls back to tabInsert's normal growth.
	var preds []schema.PredID
	staged := make(map[schema.PredID]int)
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, p := range b.touched {
			if _, seen := staged[p]; !seen {
				preds = append(preds, p)
				db.rel(p, b.bufs[p].arity)
			}
			staged[p] += b.bufs[p].distinct
		}
	}
	added := 0
	for _, p := range preds {
		r := db.rels[p]
		if r.borrowed {
			r.own()
		}
		r.growTabTo(r.rows() + staged[p])
		for _, b := range bufs {
			if b == nil || int(p) >= len(b.bufs) || b.bufs[p] == nil {
				continue
			}
			pb := b.bufs[p]
			for k, n := 0, pb.rows(); k < n; k++ {
				if db.insert(r, pb.hashes[k], pb.args(k)) {
					added++
				}
			}
		}
	}
	if !t0.IsZero() {
		obsMergeSec.ObserveSince(t0)
		obsMergeRows.Add(uint64(added))
	}
	return added
}
