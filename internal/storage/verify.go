package storage

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Verify checks that the instance's redundant structures agree: every
// relation's columns, liveness bitmap, dedup table (every row linked
// exactly once, live or dead, under its hash's tag where a probe from its
// home slot reaches it; at most one live row per tuple; no slot naming a
// row the relation lacks, unless another writer owns the array) and
// posting indexes (base rows before tail rows, both ascending and complete
// to their watermarks), and the insertion indexes (unique across relations)
// with the tombstone and hole counts. It is the invariant the property
// suites assert after every kind of write, and what ReadSegment holds
// decoded bytes to; it reads only, never panics on a malformed instance, and
// costs one pass over the rows plus one over every built posting.
func (db *DB) Verify() error {
	rows, dead := 0, 0
	held := make([]uint64, (db.next+63)/64)
	for p, r := range db.rels {
		if r == nil {
			continue
		}
		if int(r.pred) != p {
			return fmt.Errorf("storage: verify: relation %d claims pred %d", p, r.pred)
		}
		if err := r.verify(db.next); err != nil {
			return fmt.Errorf("storage: verify: pred %d: %w", p, err)
		}
		for k, s := range r.spans {
			for g := s.at; g < s.at+r.spanEnd(k)-s.row; g++ {
				if held[g>>6]>>(uint(g)&63)&1 != 0 {
					return fmt.Errorf("storage: verify: insertion index %d held by two rows", g)
				}
				held[g>>6] |= 1 << (uint(g) & 63)
			}
		}
		rows += r.rows()
		dead += r.nDead
	}
	if rows+db.holes != db.next || dead != db.dead {
		return fmt.Errorf("storage: verify: %d rows and %d counted holes for %d insertion indexes; %d dead rows for %d counted",
			rows, db.holes, db.next, dead, db.dead)
	}
	return nil
}

func (r *relation) verify(next int) error {
	n := r.nrows
	if r.arity <= 0 || len(r.cols) != n*r.arity || len(r.idx) != r.arity || len(r.want) != r.arity ||
		(n == 0) != (len(r.spans) == 0) {
		return errors.New("column lengths disagree")
	}
	// Spans: from row 0, non-empty, indexes strictly increasing below next,
	// and no two adjacent ones closing up (extend would have merged them).
	for k, s := range r.spans {
		end := int(r.spanEnd(k))
		if k == 0 && s.row != 0 || int(s.row) >= end || s.at < 0 || int(s.at)+end-int(s.row) > next ||
			k > 0 && int(s.at) <= int(r.spans[k-1].at)+int(s.row-r.spans[k-1].row) {
			return fmt.Errorf("insertion span %d: rows from %d, indexes from %d out of order", k, s.row, s.at)
		}
	}
	for ri := 0; ri < n; ri++ {
		args := r.args(int32(ri))
		for _, t := range args {
			if !t.IsConst() && !t.IsNull() {
				return fmt.Errorf("row %d holds a non-ground term", ri)
			}
		}
	}
	dead := 0
	for w, word := range r.dead {
		if valid := min(max(n-w<<6, 0), 64); valid < 64 && word>>uint(valid) != 0 {
			return errors.New("liveness bits beyond the last row")
		}
		dead += bits.OnesCount64(word)
	}
	if dead != r.nDead {
		return fmt.Errorf("%d liveness bits set, %d rows counted dead", dead, r.nDead)
	}
	// Dedup: every row linked exactly once, under its hash's tag, with no
	// slot find reads as empty between its home slot and its own; a live
	// row is the row a probe for its tuple finds, a dead one is not past
	// the newest row of its tuple. find terminates because the table keeps
	// a slot it reads as empty, which is checked first. A frozen view or a
	// relation reading through another writer's array may see slots
	// naming that writer's later rows: find reads them as empty. In a
	// relation's own array such a slot is damage.
	tab, used, m := r.tab, 0, rowMask(len(r.tab))
	hasEmpty := len(tab) == 0
	for k := 0; !hasEmpty && k < len(tab); k++ {
		hasEmpty = uint32(atomic.LoadInt32(&tab[k]))&m >= uint32(n)
	}
	if !hasEmpty {
		return errors.New("dedup table: no empty slot")
	}
	linked := make([]uint64, (n+63)/64)
	for k := range tab {
		v := atomic.LoadInt32(&tab[k])
		ri := int32(uint32(v) & m)
		if v == tabEmpty || int(ri) >= n && (r.frozen || r.borrowed) {
			continue
		}
		if v < 0 || int(ri) >= n || linked[ri>>6]>>(uint(ri)&63)&1 != 0 {
			return fmt.Errorf("dedup slot %d: bad or repeated row %d", k, ri)
		}
		linked[ri>>6] |= 1 << (uint(ri) & 63)
		used++
		args := r.args(ri)
		h := hashArgs(r.pred, args)
		if uint32(v)&^m != tagOf(h, m) {
			return fmt.Errorf("dedup slot %d: row %d under another hash's tag", k, ri)
		}
		for j := home(h, len(tab)); j != k; j = nextSlot(j, len(tab)) {
			if uint32(atomic.LoadInt32(&tab[j]))&m >= uint32(n) {
				return fmt.Errorf("row %d in dedup slot %d is past empty slot %d from its home %d", ri, k, j, home(h, len(tab)))
			}
		}
		if r.isDead(ri) {
			if got, ok := r.findAny(h, args); !ok || got < ri {
				return fmt.Errorf("dead row %d is past the newest row of its tuple", ri)
			}
		} else if got, ok := r.find(h, args); !ok || got != ri {
			return fmt.Errorf("row %d is not the row a dedup probe for its tuple finds", ri)
		}
	}
	if used != int(r.tabUsed) {
		return fmt.Errorf("dedup table: %d of %d slots used, %d counted", used, len(tab), r.tabUsed)
	}
	for ri := 0; ri < n; ri++ {
		if linked[ri>>6]>>(uint(ri)&63)&1 == 0 {
			return fmt.Errorf("row %d is not linked in the dedup table", ri)
		}
	}
	for i := range r.idx {
		p := r.settled(i)
		if p.split < 0 || p.split > p.built || int(p.built) > n || p.tail == nil && p.split != p.built || p.base == nil && p.built != 0 {
			return fmt.Errorf("position %d: base to %d, tail to %d of %d rows", i, p.split, p.built, n)
		}
		if err := r.verifyPostings(p.base, i, 0, int(p.split)); err != nil {
			return fmt.Errorf("position %d base: %w", i, err)
		}
		if err := r.verifyPostings(p.tail, i, int(p.split), int(p.built)); err != nil {
			return fmt.Errorf("position %d tail: %w", i, err)
		}
	}
	return nil
}

// verifyPostings checks one index of position i against the column: every
// row list ascending, inside [lo, hi) and holding the key, and the lists
// together covering exactly those rows — each row holds one term, so
// equal counts make them complete.
func (r *relation) verifyPostings(px *posIndex, i, lo, hi int) error {
	if px == nil {
		return nil // verify checked lo == hi
	}
	holds := func(ri int32, k uint32, prev int32) bool {
		return ri > prev && int(ri) >= lo && int(ri) < hi && r.cols[int(ri)*r.arity+i].Key() == k
	}
	covered, lists := 0, 0
	for k, v := range px.m {
		if v >= 0 {
			if !holds(v, k, -1) {
				return fmt.Errorf("key %#x: bad row %d", k, v)
			}
			covered++
			continue
		}
		e := -int(v) - 1
		if e >= len(px.over) || len(px.over[e]) < 2 {
			return fmt.Errorf("key %#x: bad overflow entry %d", k, e)
		}
		prev := int32(-1)
		for _, ri := range px.over[e] {
			if !holds(ri, k, prev) {
				return fmt.Errorf("key %#x: bad row %d", k, ri)
			}
			prev = ri
		}
		covered += len(px.over[e])
		lists++
	}
	if lists != len(px.over) {
		return fmt.Errorf("%d overflow lists, %d keys pointing at them", len(px.over), lists)
	}
	if covered != hi-lo {
		return fmt.Errorf("postings cover %d rows of [%d, %d)", covered, lo, hi)
	}
	return nil
}
