package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/term"
)

// Index postings with an inline first row, hash-partitioned per position,
// built on first probe.
//
// idx[i].m[s] maps a term's packed key (of sub-shard s = keyShard(key)) to
// an int32 code: a non-negative code IS the single local row holding the
// term at position i (stored inline — no slice, no allocation), while a
// negative code -(k+1) points at entry k of the sub-shard's overflow table
// idx[i].over[s], which holds the ascending row list of keys occurring
// more than once. On high-selectivity positions (wide domains, near-key
// columns) most keys occur once, so the per-key slice allocation of a
// map[...][]int32 representation disappears, the map value shrinks to 4
// bytes, and steady-state updates of hot keys touch the map only once: the
// overflow row list is appended in place through the table, never
// re-stored. The key is term.Term.Key(), not the term: a padded struct key
// takes the runtime's generic hash path, a uint64 key the fast one.
//
// A position is paid for when it is probed, not when its relation is
// written. idx[i].built is the position's watermark — rows [0, built) are
// in the index — and no insert path touches it. relation.posting, the one
// place a posting is resolved, first catches the position up over rows
// [built, rows()): a position nobody probes is never built, a position
// probed between writes pays for exactly the rows written since.
//
// Who may catch up:
//
//   - A writer-owned relation (a live DB, a Clone, a detached overlay
//     relation) catches up inline, unsynchronized — its probes belong to
//     the goroutine that owns its writes. Concurrent probes of one
//     writer-owned DB are sound only over positions caught up beforehand
//     (DB.CatchUp — the parallel evaluator's coordinator does this before
//     fanning a round out).
//   - Snapshot() catches up every position that is built at all, so on a
//     frozen view a position is either current — a plain map lookup, no
//     lock, no atomic — or was never built.
//   - A never-built position of a frozen view is built by the first reader
//     that probes it, once per view, under the view's lateIndex; every
//     reader and every overlay still sharing the view's structures uses
//     that one build. The build also raises the position's want flag,
//     shared with the live relation, so the writer carries the position
//     from its next Snapshot() on.
type posIndex struct {
	m     [relShards]map[uint64]int32
	over  [relShards][][]int32
	built int32
}

// lateIndex holds the postings readers built on a frozen view after it
// was taken: idx[i] is nil until position i's first probe.
type lateIndex struct {
	mu  sync.Mutex
	idx []atomic.Pointer[posIndex]
}

// idxAdd records that local row ri holds the term with packed key k (of
// sub-shard s). Rows arrive in ascending order, so every posting stays
// ascending without comparison. Safe to call concurrently for DISTINCT
// sub-shards — each call touches only its own sub-map and sub-overflow.
func (px *posIndex) idxAdd(s int, k uint64, ri int32) {
	m := px.m[s]
	if m == nil {
		m = make(map[uint64]int32)
		px.m[s] = m
	}
	v, ok := m[k]
	switch {
	case !ok:
		m[k] = ri
	case v >= 0:
		px.over[s] = append(px.over[s], []int32{v, ri})
		m[k] = -int32(len(px.over[s]))
	default:
		e := -v - 1
		px.over[s][e] = append(px.over[s][e], ri)
	}
}

// indexRows adds rows [lo, hi) of position i to px — the one loop that
// builds postings. shard >= 0 restricts it to the terms of that sub-shard
// (the sharded merge extends all sub-shards of a position concurrently).
func (r *relation) indexRows(px *posIndex, i, lo, hi, shard int) {
	for ri := lo; ri < hi; ri++ {
		k := r.cols[ri*r.arity+i].Key()
		if s := keyShard(k); shard < 0 || s == shard {
			px.idxAdd(s, k, int32(ri))
		}
	}
}

// catchUp brings position i up to rows() and returns the index to resolve
// against (see the posIndex comment for who ends up where).
func (r *relation) catchUp(i int) *posIndex {
	if l := r.late; l != nil {
		if px := l.idx[i].Load(); px != nil {
			return px
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		px := l.idx[i].Load()
		if px == nil {
			px = &posIndex{built: int32(r.rows())}
			r.indexRows(px, i, 0, r.rows(), -1)
			l.idx[i].Store(px)
			r.want[i].Store(true)
			obsLateBuilds.Inc()
		}
		return px
	}
	if r.shared {
		r.detach()
	}
	px := &r.idx[i]
	r.indexRows(px, i, int(px.built), r.rows(), -1)
	px.built = int32(r.rows())
	return px
}

// catchUpBuilt catches up every position that is built at all or that a
// reader asked for — what a writer does before it shares the relation
// (Snapshot) or writes it out (AppendSegment).
func (r *relation) catchUpBuilt() {
	if r.late != nil {
		return // still a frozen view's structures: current or never built
	}
	for i := range r.idx {
		if px := &r.idx[i]; int(px.built) < r.rows() && (px.built > 0 || r.want[i].Load()) {
			r.catchUp(i)
		}
	}
}

// candSet is a resolved posting: n candidate rows, held either inline
// (one, when n == 1) or in an overflow row list. The zero value is the
// empty posting.
type candSet struct {
	n    int
	one  int32
	rows []int32
}

func (c candSet) size() int { return c.n }

// posting resolves the candidate rows for term t at position i. A present
// key with n == 0 cannot occur; absent keys yield the empty set — the most
// selective outcome a probe can hit.
func (r *relation) posting(i int, t term.Term) candSet {
	px := &r.idx[i]
	if int(px.built) < r.rows() {
		px = r.catchUp(i)
	}
	k := t.Key()
	s := keyShard(k)
	v, ok := px.m[s][k]
	if !ok {
		return candSet{}
	}
	if v >= 0 {
		return candSet{n: 1, one: v}
	}
	rows := px.over[s][-v-1]
	return candSet{n: len(rows), rows: rows}
}

// eachFrom calls fn for every candidate row at or after lo in ascending
// order, stopping early if fn returns false.
func (c candSet) eachFrom(lo int32, fn func(int32) bool) {
	if c.n == 0 {
		return
	}
	if c.rows == nil {
		if c.one >= lo {
			fn(c.one)
		}
		return
	}
	for k := postingLowerBound(c.rows, lo); k < len(c.rows); k++ {
		if !fn(c.rows[k]) {
			return
		}
	}
}

// CatchUp builds every posting index the scan can key on up to the rows
// stored now, so that Probes of sp running concurrently on a writer-owned
// DB only read. Frozen views need no such call.
func (db *DB) CatchUp(sp *ScanPlan) {
	r := db.relOf(sp.Pred)
	if r == nil {
		return
	}
	// Resolving any posting of a position catches the position up.
	for _, ck := range sp.constKeys {
		r.posting(ck.pos, ck.term)
	}
	for _, bk := range sp.boundKeys {
		r.posting(bk.pos, Unbound)
	}
}
