package storage

import (
	"unsafe"

	"repro/internal/term"
)

// Footprint returns the bytes the instance's structures take, by
// structure: "cols" (term columns), "global" (insertion index spans), "dedup"
// (dedup slots), "postings" (built posting indexes, see posIndex.bytes)
// and "liveness" (tombstone bitmaps). It reads lengths only — element
// bytes, no map buckets or spare capacity; a structure a view shares is
// counted by each holder — in O(relations × positions).
func (db *DB) Footprint() map[string]int {
	f := map[string]int{"cols": 0, "global": 0, "dedup": 0, "postings": 0, "liveness": 0}
	for _, r := range db.rels {
		if r == nil {
			continue
		}
		f["cols"] += len(r.cols) * int(unsafe.Sizeof(term.Term(0)))
		f["global"] += int(unsafe.Sizeof(span{})) * len(r.spans)
		for _, tab := range r.tabs {
			f["dedup"] += 4 * len(tab)
		}
		f["liveness"] += 8 * len(r.dead)
		for i := range r.idx {
			p := r.settled(i)
			f["postings"] += p.base.bytes(int(p.split)) + p.tail.bytes(int(p.built-p.split))
		}
	}
	return f
}
