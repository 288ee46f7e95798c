package storage

import (
	"cmp"
	"sort"

	"repro/internal/term"
)

// Tuple dedup and ordering on raw term identities.
//
// The pre-compiled CQ path deduplicated and sorted answer tuples through
// rendered string keys — one strings.Builder allocation per tuple on the
// dedup probe and O(n log n) more under the sort. Both operations only
// need the (Kind, ID) identity of each term, so they run here over the
// packed representation directly: TupleSet is an open-addressed hash set
// whose tuples live in one flat arity-strided arena (the relation layout in
// miniature), and CompareTuples orders tuples by per-position (Kind, ID) —
// byte-identical to the order the old rendered keys induced, with zero
// allocation per comparison.

// TupleSet is a deduplicating set of fixed-arity term tuples: the answer
// accumulator of the compiled CQ path and the substitution-based reference
// evaluator. Tuples are stored in a flat arity-strided arena; membership
// probes compare hashes first, then terms. The zero value is not usable;
// call NewTupleSet.
type TupleSet struct {
	arity  int
	flat   []term.Term
	hashes []uint64
	tab    []int32 // open addressing; -1 marks an empty slot
	n      int
}

// NewTupleSet returns an empty set of tuples with the given arity. Arity 0
// is valid: the set then holds at most the single empty tuple (the boolean
// query answer).
func NewTupleSet(arity int) *TupleSet {
	return &TupleSet{arity: arity}
}

// Len reports the number of distinct tuples added.
func (s *TupleSet) Len() int { return s.n }

// Reset empties the set for reuse at the given arity, keeping its storage.
// It clears only the probe slots the previous contents filled, found again
// from their retained hashes, so it costs O(Len), not O(table): a small
// answer after a large one does not pay for the large one's table.
func (s *TupleSet) Reset(arity int) {
	mask := uint64(len(s.tab) - 1)
	for ti, h := range s.hashes {
		i := h & mask
		for s.tab[i] != int32(ti) {
			i = (i + 1) & mask
		}
		s.tab[i] = -1
	}
	s.arity = arity
	s.flat = s.flat[:0]
	s.hashes = s.hashes[:0]
	s.n = 0
}

// Add inserts the tuple, reporting whether it was new. The tuple is copied
// into the set's arena; callers may reuse tup as a scratch buffer.
func (s *TupleSet) Add(tup []term.Term) bool {
	if len(tup) != s.arity {
		panic("storage: TupleSet arity mismatch")
	}
	h := hashTuple(tup)
	if 4*(s.n+1) > 3*len(s.tab) {
		s.grow()
	}
	mask := uint64(len(s.tab) - 1)
	i := h & mask
	for {
		ti := s.tab[i]
		if ti < 0 {
			break
		}
		if s.hashes[ti] == h && s.equal(ti, tup) {
			return false
		}
		i = (i + 1) & mask
	}
	s.tab[i] = int32(s.n)
	s.flat = append(s.flat, tup...)
	s.hashes = append(s.hashes, h)
	s.n++
	return true
}

// equal reports whether stored tuple ti holds exactly tup.
func (s *TupleSet) equal(ti int32, tup []term.Term) bool {
	row := s.flat[int(ti)*s.arity : int(ti)*s.arity+s.arity]
	for i := range row {
		if row[i] != tup[i] {
			return false
		}
	}
	return true
}

// grow doubles (or initializes) the probe table, re-placing every stored
// tuple from its retained hash — the columns are never re-read.
func (s *TupleSet) grow() {
	nn := 2 * len(s.tab)
	if nn < 16 {
		nn = 16
	}
	tab := make([]int32, nn)
	for i := range tab {
		tab[i] = -1
	}
	mask := uint64(nn - 1)
	for ti := 0; ti < s.n; ti++ {
		i := s.hashes[ti] & mask
		for tab[i] >= 0 {
			i = (i + 1) & mask
		}
		tab[i] = int32(ti)
	}
	s.tab = tab
}

// hashTuple is the FNV-1a hash of a term tuple — hashArgs without the
// predicate mix-in, for predicate-less answer tuples.
func hashTuple(tup []term.Term) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, t := range tup {
		h ^= uint64(t)
		h *= prime
	}
	return h
}

// compareTerms orders two terms by (Kind, ID) — the total order the old
// rendered tuple keys encoded byte by byte, and the packed integer order.
func compareTerms(a, b term.Term) int { return cmp.Compare(a, b) }

// CompareTuples orders two equal-length tuples lexicographically by
// per-position (Kind, ID).
func CompareTuples(a, b []term.Term) int {
	for i := range a {
		if c := compareTerms(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// SortTuples sorts answer tuples into the deterministic CQ output order.
func SortTuples(tups [][]term.Term) {
	sort.Slice(tups, func(i, j int) bool {
		return CompareTuples(tups[i], tups[j]) < 0
	})
}
