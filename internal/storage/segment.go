package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/schema"
	"repro/internal/term"
)

// Checkpoint segments: a positional binary dump of one instance's
// columnar relations, designed so that RESTORE is array reconstruction,
// not re-insertion — the recovery-time budget of ROADMAP item 3
// ("restart O(load), not O(re-chase)") is spent here.
//
//	u32 nRels | u32 next | per relation slot: u8 present | body
//
// A present relation's body:
//
//	u32 pred | u32 arity | u32 nRows
//	cols:   nRows*arity × (u8 kind | u32 id)
//	hashes: nRows × u64
//	global: nRows × u32
//	u32 nDead | u32 nWords | nWords × u64        (liveness bitmap)
//	segParts × (u32 tabLen | u32 tabUsed | tabLen × u32)   (dedup slots)
//	per position × segParts parts:
//	    u32 nKeys | u32 slabLen | slabLen × u32 (overflow row slab)
//	    nKeys × (u8 kind | u32 id | u32 n [| u32 row when n == 1])
//
// The segParts = 8 parts are framing only: segments written while every
// relation split its dedup table and postings eight ways hold one part
// per sub-table. The writer fills the first posting part of a position
// and leaves every other part, and every dedup part, empty.
//
//   - The dedup table is not written: the reader skips the slot bytes of
//     any segment (a partitioned table's placement cannot be adopted),
//     bounds-checking their lengths, and links the rows into one exactly
//     sized table as it checks their hashes — one placement per row. On
//     a 2-vCPU x86-64 box that took a decode of the 60-block TC closure
//     (244 976 facts) from about 25 to 27.5 ms, best of 7, and
//     BenchmarkS4_Recovery's recover case from 17.7 to 20.6 ms, median
//     of 6, for a checkpoint smaller by its slot bytes.
//   - Row hashes are not kept in memory: written from the columns, and
//     checked against them on read (ErrSegmentHash).
//   - The posting indexes that are built ARE serialized — rebuilding
//     them through idxAdd would cost a map insert per (row, position),
//     the dominant term for large closures. Instead each part dumps its
//     keys with their row counts plus one concatenated row slab; load
//     performs one map insert per DISTINCT key into the position's one
//     map and carves the overflow lists as cap-limited views of the slab
//     — one allocation per part, not per key. A position nobody probed
//     writes no keys and is restored as never built; a built one is
//     caught up first and written as ONE index (a tail is folded into a
//     copy of its base on the way out), so keys always cover every row
//     and the bytes of an instance do not depend on who shared it.
//   - The insertion order is each relation's spans, written out one index
//     per row and read back into spans; indexes below next that no row
//     holds are exactly the holes a localized Compact left behind.
//
// Encoded segments embed term and predicate IDs; they are only
// meaningful next to the term.Store / schema.Registry encodings taken
// at the same quiesced point (the service checkpoints all of them under
// its writer lock).

// ErrSegmentHash reports a segment row whose stored hash is not its tuple's.
var ErrSegmentHash = errors.New("storage: segment: stored hash is not the tuple's")

// ErrSegmentTerm reports a segment term whose kind is none of the three
// sorts or whose ID is past term.MaxID.
var ErrSegmentTerm = errors.New("storage: segment: term out of range")

// errMalformedRelation reports a relation body the decoder cannot read
// as one.
var errMalformedRelation = errors.New("storage: segment: malformed relation")

// segParts is how many dedup and posting parts a relation body frames.
const segParts = 8

// AppendSegment serializes the instance onto buf.
func (db *DB) AppendSegment(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(db.rels)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(db.next))
	for _, r := range db.rels {
		if r == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = r.appendSegment(buf)
	}
	return buf
}

func (r *relation) appendSegment(buf []byte) []byte {
	// A position is written whole or not at all: the decoder reads keys as
	// "built over every row" and no keys as "never built". A position a
	// reader built late on the view this relation overlays counts as built.
	r.catchUpBuilt()
	n := r.rows()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.pred))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.arity))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for _, t := range r.cols[:n*r.arity] {
		buf = appendTerm(buf, t)
	}
	for ri := 0; ri < n; ri++ {
		buf = binary.LittleEndian.AppendUint64(buf, hashArgs(r.pred, r.args(int32(ri))))
	}
	for k, s := range r.spans {
		for g, end := s.at, s.at+r.spanEnd(k)-s.row; g < end; g++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(g))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.nDead))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.dead)))
	for _, w := range r.dead {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	buf = appendEmptyParts(buf, segParts)
	var keys []byte
	for i := range r.idx {
		p := r.settled(i)
		px := p.base
		if p.tail != nil {
			px = r.folded(i)
		} else if px == nil {
			px = &posIndex{}
		}
		slabLen := 0
		for _, rows := range px.over {
			slabLen += len(rows)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(px.m)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(slabLen))
		// ONE map pass (iteration order is randomized per range):
		// multi-row keys stream their lists into the slab on buf while the
		// key records accumulate in a scratch that is appended after — the
		// decoder's slab cursor consumes rows in exactly the key-record
		// order.
		keys = keys[:0]
		for k, v := range px.m {
			keys = appendTerm(keys, term.Term(k))
			if v >= 0 {
				keys = binary.LittleEndian.AppendUint32(keys, 1)
				keys = binary.LittleEndian.AppendUint32(keys, uint32(v))
				continue
			}
			rows := px.over[-v-1]
			keys = binary.LittleEndian.AppendUint32(keys, uint32(len(rows)))
			for _, ri := range rows {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(ri))
			}
		}
		buf = appendEmptyParts(append(buf, keys...), segParts-1)
	}
	return buf
}

// appendEmptyParts writes k empty parts: two zero counts each.
func appendEmptyParts(buf []byte, k int) []byte {
	return append(buf, make([]byte, 8*k)...)
}

// ReadSegment rebuilds an instance from AppendSegment output.
func ReadSegment(data []byte) (*DB, error) {
	rd := &segReader{data: data}
	nRels := int(rd.u32())
	next := int(rd.u32())
	// Both counts size an allocation (next: Verify's bitmap) before any
	// body byte is read, so both are held to what the bytes can back: a
	// relation slot takes at least a byte, a row at least 17, and more than
	// a thousand holes per row is long past the point where Compact
	// squashes them.
	if rd.err != nil || nRels > len(data) || next > 64*len(data) {
		return nil, errors.New("storage: segment: bad header")
	}
	db := &DB{rels: make([]*relation, nRels), next: next}
	totalRows := 0
	for p := 0; p < nRels; p++ {
		if rd.u8() == 0 {
			continue
		}
		r, err := readRelation(rd, next)
		if err != nil {
			return nil, err
		}
		if int(r.pred) != p {
			return nil, fmt.Errorf("storage: segment: relation %d claims pred %d", p, r.pred)
		}
		db.rels[p] = r
		db.dead += r.nDead
		totalRows += r.rows()
	}
	if rd.err != nil {
		return nil, fmt.Errorf("storage: segment: %w", rd.err)
	}
	if rd.off != len(rd.data) {
		return nil, errors.New("storage: segment: trailing bytes")
	}
	db.holes = next - totalRows
	// The decoder above only bounds what it allocates and indexes; whether
	// the structures agree with each other (rows hold distinct indexes
	// below next, so holes >= 0) is Verify's to say.
	if err := db.Verify(); err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	return db, nil
}

func readRelation(rd *segReader, next int) (r *relation, err error) {
	pred := schema.PredID(rd.u32())
	arity := int(rd.u32())
	n := int(rd.u32())
	if rd.err != nil || arity <= 0 || arity > 1<<16 || n < 0 || n > next ||
		n*(5*arity+12) > len(rd.data)-rd.off { // columns, hashes, global
		return nil, errMalformedRelation
	}
	r = newRelation(pred, arity)
	r.cols = make([]term.Term, n*arity)
	for i := range r.cols {
		if r.cols[i], err = rd.term(); err != nil {
			return nil, err
		}
	}
	r.nrows = n
	// Each row is linked as its stored hash is checked.
	if n > 0 {
		r.tab = newTab(tabSize(n))
	}
	for ri := 0; ri < n; ri++ {
		h := hashArgs(pred, r.args(int32(ri)))
		if rd.u64() != h && rd.err == nil {
			return nil, fmt.Errorf("%w: pred %d row %d", ErrSegmentHash, pred, ri)
		}
		r.place(h, int32(ri))
	}
	// Per-row indexes, read back into spans: strictly increasing below next.
	for ri, prev := int32(0), int32(-1); ri < int32(n); ri++ {
		g := int32(rd.u32())
		if g <= prev || int(g) >= next {
			return nil, errMalformedRelation
		}
		r.spans, prev = extend(r.spans, ri, g), g
	}
	r.nDead = int(rd.u32())
	nWords := int(rd.u32())
	if rd.err != nil || r.nDead > n || nWords > n/64+1 {
		return nil, errMalformedRelation
	}
	if nWords > 0 {
		r.dead = make([]uint64, nWords)
		for i := range r.dead {
			r.dead[i] = rd.u64()
		}
	}

	// Dedup: slot arrays are skipped, their lengths held to what a table
	// of n rows could have been.
	for s := 0; s < segParts; s++ {
		tabLen := int(rd.u32())
		used := int(rd.u32())
		if rd.err != nil || tabLen < 0 || tabLen&(tabLen-1) != 0 ||
			tabLen > 4*n+16 || used < 0 || used > tabLen {
			return nil, errMalformedRelation
		}
		rd.skip(4 * tabLen)
	}

	// Postings: per part, one slab allocation plus one map insert per
	// distinct key, into the position's one map.
	for i := 0; i < arity; i++ {
		var px *posIndex
		keys := 0
		for s := 0; s < segParts; s++ {
			nKeys := int(rd.u32())
			slabLen := int(rd.u32())
			if rd.err != nil || nKeys < 0 || slabLen < 0 || nKeys > n*2 || slabLen > n+1 {
				return nil, errMalformedRelation
			}
			var slab []int32
			if slabLen > 0 {
				slab = make([]int32, slabLen)
				for k := range slab {
					slab[k] = int32(rd.u32())
				}
			}
			if nKeys == 0 {
				continue
			}
			if px == nil {
				px = &posIndex{m: make(map[uint32]int32, nKeys)}
			}
			keys += nKeys
			cursor := 0
			for k := 0; k < nKeys; k++ {
				t, err := rd.term()
				key, cnt := t.Key(), int(rd.u32())
				if err != nil {
					return nil, err
				}
				if rd.err != nil || cnt <= 0 || cnt > n {
					return nil, errMalformedRelation
				}
				if cnt == 1 {
					px.m[key] = int32(rd.u32())
					continue
				}
				if cursor+cnt > len(slab) {
					return nil, errMalformedRelation
				}
				px.over = append(px.over, slab[cursor:cursor+cnt:cursor+cnt])
				px.m[key] = -int32(len(px.over))
				cursor += cnt
			}
			if cursor != len(slab) {
				return nil, errMalformedRelation
			}
		}
		// A key in two parts would leave a row list no key points at.
		if px != nil && len(px.m) != keys {
			return nil, errMalformedRelation
		}
		if px != nil {
			r.idx[i] = position{base: px, split: int32(n), built: int32(n)}
		}
	}
	return r, rd.err
}

// segReader is a cursor over segment bytes; the first short read sticks
// in err and zero-fills everything after, so decoders can batch their
// error checks.
type segReader struct {
	data []byte
	off  int
	err  error
}

func (rd *segReader) fail() {
	if rd.err == nil {
		rd.err = errors.New("unexpected end of segment")
	}
}

func (rd *segReader) u8() byte {
	if rd.off+1 > len(rd.data) {
		rd.fail()
		return 0
	}
	v := rd.data[rd.off]
	rd.off++
	return v
}

func (rd *segReader) u32() uint32 {
	if rd.off+4 > len(rd.data) {
		rd.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(rd.data[rd.off:])
	rd.off += 4
	return v
}

// skip steps over k bytes.
func (rd *segReader) skip(k int) {
	if k > len(rd.data)-rd.off {
		rd.fail()
		return
	}
	rd.off += k
}

func (rd *segReader) u64() uint64 {
	if rd.off+8 > len(rd.data) {
		rd.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(rd.data[rd.off:])
	rd.off += 8
	return v
}

// term reads one term as the segment writes it: a kind byte and a 4-byte
// ID. A kind outside the three sorts or an ID past term.MaxID is
// ErrSegmentTerm.
func (rd *segReader) term() (term.Term, error) {
	if rd.off+5 > len(rd.data) {
		rd.fail()
		return 0, nil
	}
	k, id := rd.data[rd.off], binary.LittleEndian.Uint32(rd.data[rd.off+1:])
	rd.off += 5
	if k > byte(term.Null) || id > term.MaxID {
		return 0, fmt.Errorf("%w: kind %d, ID %d at byte %d", ErrSegmentTerm, k, id, rd.off-5)
	}
	return [...]term.Term{term.MkConst(id), term.MkVar(id), term.MkNull(id)}[k], nil
}

// appendTerm writes t as a kind byte and a 4-byte ID.
func appendTerm(buf []byte, t term.Term) []byte {
	return binary.LittleEndian.AppendUint32(append(buf, byte(t.Kind())), t.ID())
}
