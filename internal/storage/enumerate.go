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

// matchRows is the shared core of the substitution-based matching family:
// candidate rows filtered by mark, cloning base per match. The
// compiled-plan pipeline (ScanPlan/Probe in scan.go) is the
// allocation-free hot path; these wrappers remain for the substitution
// consumers (core, ucq, resolution, incremental) and the reference engines.
func (db *DB) matchRows(pa atom.Atom, base atom.Subst, since Mark, fn func(atom.Subst) bool) {
	r, rows, full := db.candidates(pa, base)
	if r == nil {
		return
	}
	lo := r.firstSince(since)
	emit := func(ri int32) bool {
		if r.nDead != 0 && r.isDead(ri) {
			return true
		}
		s := base.Clone()
		if atom.MatchAtom(s, pa, r.atomAt(ri)) {
			return fn(s)
		}
		return true
	}
	if full {
		for ri, n := lo, r.rows(); ri < n; ri++ {
			if !emit(int32(ri)) {
				return
			}
		}
		return
	}
	rows.eachFrom(int32(lo), emit)
}

// MatchEachSince is MatchEach restricted to facts inserted at or after the
// mark — the delta-join primitive of semi-naive evaluation.
func (db *DB) MatchEachSince(pa atom.Atom, base atom.Subst, since Mark, fn func(atom.Subst) bool) {
	db.matchRows(pa, base, since, fn)
}

// HomomorphismsEach enumerates every homomorphism from the pattern into the
// instance extending base, invoking fn for each; fn returning false stops
// the enumeration. deltaAtom, when in [0, len(pattern)), restricts that
// pattern atom to facts inserted at or after since (semi-naive: at least
// one atom must match a new fact). Pass deltaAtom = -1 for unrestricted
// enumeration.
//
// This is a thin compatibility shim over MatchEach/MatchEachSince kept for
// reference-model consumers (model checking in tests); every engine runs
// the compiled-plan pipeline (plan.Exec over ScanPlan/Probe) instead. The
// delta atom is enumerated first; the remaining atoms keep written order.
func (db *DB) HomomorphismsEach(pattern []atom.Atom, base atom.Subst, deltaAtom int, since Mark, fn func(atom.Subst) bool) {
	if base == nil {
		base = atom.NewSubst()
	}
	idx := make([]int, len(pattern))
	for i := range idx {
		idx[i] = i
	}
	if deltaAtom >= 0 && deltaAtom < len(pattern) {
		idx[0], idx[deltaAtom] = idx[deltaAtom], idx[0]
	}
	var rec func(k int, s atom.Subst) bool
	rec = func(k int, s atom.Subst) bool {
		if k == len(idx) {
			return fn(s)
		}
		cont := true
		pa := pattern[idx[k]]
		if idx[k] == deltaAtom {
			db.MatchEachSince(pa, s, since, func(s2 atom.Subst) bool {
				cont = rec(k+1, s2)
				return cont
			})
		} else {
			db.MatchEach(pa, s, func(s2 atom.Subst) bool {
				cont = rec(k+1, s2)
				return cont
			})
		}
		return cont
	}
	rec(0, base)
}
