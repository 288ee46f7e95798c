package storage

import (
	"repro/internal/schema"
	"repro/internal/term"
)

// TupleBuffer is a columnar staging area for facts bound for a bulk load:
// one flat arity-strided term column plus a hash column per predicate,
// with the fact hash computed once at append time — no boxed atoms, no
// per-fact argument slice — and DB.MergeBuffers folds whole buffers into
// the instance, reusing the cached hashes instead of re-hashing every
// tuple. A buffer is single-writer; a Reset keeps the backing arrays, so
// steady-state batches append without allocating.
type TupleBuffer struct {
	// bufs is dense by PredID; entries are nil until the predicate's first
	// append.
	bufs []*predBuffer
	// touched lists the predicates holding at least one buffered tuple, in
	// first-append order — the deterministic predicate order MergeBuffers
	// folds in.
	touched []schema.PredID
	rows    int
}

// predBuffer is one predicate's staged tuples.
type predBuffer struct {
	arity  int
	cols   []term.Term
	hashes []uint64
	// seen is a small open-addressed set of staged-tuple hashes (a zero
	// hash is mapped to 1 so 0 can mean "empty slot"); distinct counts
	// first occurrences. It exists purely as a cheap per-buffer cardinality
	// estimate: MergeBuffers pre-sizes each relation's dedup table from the
	// summed distinct counts instead of the raw staged-row count, so
	// duplicate-heavy batches stop growing transient tables for rows that
	// will never be inserted. Hash collisions only skew the estimate —
	// correctness never depends on it.
	seen     []uint64
	distinct int
}

// note records one staged hash in the local distinct estimate.
func (pb *predBuffer) note(h uint64) {
	if h == 0 {
		h = 1
	}
	if 4*(pb.distinct+1) > 3*len(pb.seen) {
		n := 2 * len(pb.seen)
		if n < 64 {
			n = 64
		}
		grown := make([]uint64, n)
		mask := uint64(n - 1)
		for _, g := range pb.seen {
			if g == 0 {
				continue
			}
			i := g & mask
			for grown[i] != 0 {
				i = (i + 1) & mask
			}
			grown[i] = g
		}
		pb.seen = grown
	}
	mask := uint64(len(pb.seen) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch pb.seen[i] {
		case h:
			return
		case 0:
			pb.seen[i] = h
			pb.distinct++
			return
		}
	}
}

// rows is the number of staged tuples.
func (pb *predBuffer) rows() int { return len(pb.hashes) }

// args returns the argument tuple of staged row k.
func (pb *predBuffer) args(k int) []term.Term {
	o := k * pb.arity
	return pb.cols[o : o+pb.arity : o+pb.arity]
}

// NewTupleBuffer returns an empty buffer.
func NewTupleBuffer() *TupleBuffer {
	return &TupleBuffer{}
}

// Append stages the ground fact pred(args...), hashing it now so the merge
// never re-hashes. The tuple is copied; callers may reuse args as a
// scratch buffer. Duplicates are staged as-is — MergeBuffers dedups
// against the instance and across buffers in one pass.
func (b *TupleBuffer) Append(pred schema.PredID, args []term.Term) {
	for _, t := range args {
		if t.IsVar() {
			panic("storage: buffering non-ground atom")
		}
	}
	for int(pred) >= len(b.bufs) {
		b.bufs = append(b.bufs, nil)
	}
	pb := b.bufs[pred]
	if pb == nil {
		pb = &predBuffer{arity: len(args)}
		b.bufs[pred] = pb
	}
	if pb.rows() == 0 {
		b.touched = append(b.touched, pred)
	}
	h := hashArgs(pred, args)
	pb.cols = append(pb.cols, args...)
	pb.hashes = append(pb.hashes, h)
	pb.note(h)
	b.rows++
}

// Len reports the number of staged tuples (duplicates included).
func (b *TupleBuffer) Len() int { return b.rows }

// Touched returns the predicates holding at least one staged tuple, in
// first-append order. Read-only; bulk consumers (the incremental engine's
// InsertBulk) use it to validate staged predicates before merging.
func (b *TupleBuffer) Touched() []schema.PredID { return b.touched }

// Each calls fn for every staged tuple (duplicates included), grouped
// by predicate in first-append order, rows in append order within each
// predicate. The args slice aliases the columnar backing: read-only,
// valid until the next Append/Reset. The WAL layer uses this to render
// a staged bulk-load batch back to record form before it merges.
func (b *TupleBuffer) Each(fn func(pred schema.PredID, args []term.Term) bool) {
	for _, p := range b.touched {
		pb := b.bufs[p]
		for k, n := 0, pb.rows(); k < n; k++ {
			if !fn(p, pb.args(k)) {
				return
			}
		}
	}
}

// Reset empties the buffer, keeping every backing array for reuse (the
// distinct-estimate set is zeroed in place — a flat memclr).
func (b *TupleBuffer) Reset() {
	for _, p := range b.touched {
		pb := b.bufs[p]
		pb.cols = pb.cols[:0]
		pb.hashes = pb.hashes[:0]
		clear(pb.seen)
		pb.distinct = 0
	}
	b.touched = b.touched[:0]
	b.rows = 0
}
