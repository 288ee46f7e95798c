package storage

import (
	"repro/internal/atom"
)

// Mark is a position in the insertion order of a DB; facts inserted after a
// mark form the "delta" used by semi-naive evaluation. Because every
// relation's local rows follow global insertion order, a mark denotes one
// contiguous suffix of local rows per relation.
type Mark int

// Mark returns the current insertion position.
func (db *DB) Mark() Mark { return Mark(db.next) }

// IndexOf returns the insertion index of a ground atom, if present.
// Insertion indexes order derivations: a chase trigger's atoms always have
// smaller indexes than the facts it produced.
func (db *DB) IndexOf(a atom.Atom) (int, bool) {
	r := db.relOf(a.Pred)
	if r == nil {
		return 0, false
	}
	ri, ok := r.find(hashArgs(a.Pred, a.Args), a.Args)
	if !ok {
		return 0, false
	}
	return int(r.indexOf(ri)), true
}
