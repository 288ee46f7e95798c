package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/schema"
	"repro/internal/term"
)

// sortedFacts renders every live fact deterministically for set
// comparison across encode/decode.
func sortedFacts(db *DB) []string {
	var out []string
	for _, a := range db.All() {
		s := fmt.Sprintf("%d(", a.Pred)
		for _, t := range a.Args {
			s += fmt.Sprintf("%d:%d,", t.Kind(), t.ID())
		}
		out = append(out, s+")")
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// segmentFixture is a randomized instance with duplicates, tombstones,
// localized compaction (holes in the insertion log), multi-predicate
// interleaving, and posting positions in every state: e.0 built and
// current, tt.1 built but behind its relation, every other position never
// probed.
const (
	segE  = schema.PredID(1) // slot 0 stays nil
	segTT = schema.PredID(2)
	segU  = schema.PredID(3)
)

func segConst(id int) term.Term { return term.MkConst(uint32(id)) }

func segmentFixture(t testing.TB) *DB {
	rng := rand.New(rand.NewSource(7))
	const e, tt, u = segE, segTT, segU
	mk := segConst
	db := NewDB()
	fill := func(n int) {
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				db.InsertArgs(e, []term.Term{mk(rng.Intn(40)), mk(rng.Intn(40))})
			case 1:
				db.InsertArgs(tt, []term.Term{mk(rng.Intn(10)), mk(rng.Intn(10)), term.MkNull(uint32(rng.Intn(5)))})
			default:
				db.InsertArgs(u, []term.Term{mk(rng.Intn(200))})
			}
		}
	}
	fill(400)
	probeAt(db, tt, 3, 1, mk(3))
	fill(100)
	// Tombstone a third of e's rows, compact hard so the log grows holes.
	for i, a := range db.Facts(e) {
		if i%3 == 0 {
			row, ok := db.FindRow(e, a.Args)
			if !ok {
				t.Fatal("FindRow lost a fact")
			}
			db.Tombstone(e, row)
		}
	}
	db.Compact(0.01)
	probeAt(db, e, 2, 0, mk(5))
	// Leave some tombstones UNcompacted too.
	for i, a := range db.Facts(u) {
		if i%5 == 0 {
			if row, ok := db.FindRow(u, a.Args); ok {
				db.Tombstone(u, row)
			}
		}
	}
	if n := db.relOf(tt).rows(); builtAt(db, e, 0) != db.relOf(e).rows() || builtAt(db, tt, 1) == 0 || builtAt(db, tt, 1) >= n {
		t.Fatalf("fixture: e.0 at %d of %d, tt.1 at %d of %d; want current and behind", builtAt(db, e, 0), db.relOf(e).rows(), builtAt(db, tt, 1), n)
	}
	mustVerify(t, db, "fixture")
	return db
}

// TestSegmentRoundTrip exercises the codec over segmentFixture, then
// checks the decoded instance is observationally identical AND
// structurally sound: dedup finds live rows, postings resolve, delta
// windows line up, and the decoded instance accepts further inserts and
// deletes. Positions travel as they are: a built one whole (caught up
// first when it was behind), a never-built one as no keys at all.
func TestSegmentRoundTrip(t *testing.T) {
	const e, tt, u = segE, segTT, segU
	mk := segConst
	db := segmentFixture(t)
	want := sortedFacts(db)
	enc := db.AppendSegment(nil)
	got, err := ReadSegment(enc)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	if !equalStrings(sortedFacts(got), want) {
		t.Fatalf("decoded instance differs: got %d facts, want %d", len(sortedFacts(got)), len(want))
	}
	if got.Len() != db.Len() {
		t.Fatalf("Len: got %d want %d", got.Len(), db.Len())
	}
	mustVerify(t, got, "decoded")
	for _, c := range []struct {
		pred  schema.PredID
		built []bool
	}{{e, []bool{true, false}}, {tt, []bool{false, true, false}}, {u, []bool{false}}} {
		for pos, built := range c.built {
			want := 0
			if built {
				want = got.relOf(c.pred).rows()
			}
			if builtAt(got, c.pred, pos) != want {
				t.Fatalf("decoded pred %d position %d: watermark %d, want %d", c.pred, pos, builtAt(got, c.pred, pos), want)
			}
		}
	}
	ref := indexed(db)
	for id := 0; id < 40; id++ {
		for _, q := range []struct {
			pred       schema.PredID
			arity, pos int
		}{{e, 2, 0}, {e, 2, 1}, {tt, 3, 0}, {tt, 3, 1}} {
			if g, w := probeAt(got, q.pred, q.arity, q.pos, mk(id)), probeAt(ref, q.pred, q.arity, q.pos, mk(id)); g != w {
				t.Fatalf("decoded probe of pred %d position %d: %q, want %q", q.pred, q.pos, g, w)
			}
		}
	}
	mustVerify(t, got, "decoded, probed")
	// Structural: dedup rejects re-inserts of live rows.
	live := got.Facts(e)
	if len(live) == 0 {
		t.Fatal("no live e facts decoded")
	}
	if got.InsertArgs(e, live[0].Args) {
		t.Fatal("decoded dedup table accepted a duplicate")
	}
	// Postings: live facts must be findable through each position's
	// index (a probe with one constant arg exercises posting resolution).
	probe := live
	if len(probe) > 25 {
		probe = probe[:25]
	}
	frame := NewFrame(1)
	for _, a := range probe {
		found := false
		sp := CompileScan(e, []ScanArg{{Mode: ArgConst, Const: a.Args[0]}, {Mode: ArgBind, Slot: 0}})
		got.Probe(sp, frame, 0, 0, 1, func() bool {
			found = frame[0] == a.Args[1]
			return !found
		})
		if !found {
			t.Fatalf("posting lost fact %v", a)
		}
	}
	// The decoded instance keeps working: inserts dedup and extend the
	// log; marks open contiguous windows; tombstones apply.
	mark := got.Mark()
	if !got.InsertArgs(e, []term.Term{mk(997), mk(998)}) {
		t.Fatal("decoded instance refused a fresh insert")
	}
	if n := windowCounter(got, e)(mark); n != 1 {
		t.Fatalf("window count = %d, want 1", n)
	}
	if row, ok := got.FindRow(e, []term.Term{mk(997), mk(998)}); !ok || !got.Tombstone(e, row) {
		t.Fatal("decoded instance cannot tombstone a fresh row")
	}
}

// TestSegmentEmptyAndNilRelations covers the degenerate shapes: an
// empty instance, and sparse rels slices with nil slots.
func TestSegmentEmptyAndNilRelations(t *testing.T) {
	db := NewDB()
	got, err := ReadSegment(db.AppendSegment(nil))
	if err != nil {
		t.Fatalf("empty round-trip: %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty Len = %d", got.Len())
	}

	db2 := NewDB()
	db2.InsertArgs(schema.PredID(5), []term.Term{term.MkConst(1), term.MkConst(2)})
	got2, err := ReadSegment(db2.AppendSegment(nil))
	if err != nil {
		t.Fatalf("sparse round-trip: %v", err)
	}
	if !equalStrings(sortedFacts(got2), sortedFacts(db2)) {
		t.Fatal("sparse instance differs")
	}
}

// TestSegmentRejectsCorruption flips bits across a small encoded
// segment and asserts the decoder returns an error or a DB that Verify
// accepts — never panics. (CRC protection lives a layer up, in the wal
// checkpoint framing; this is defense in depth for the decoder itself.)
func TestSegmentRejectsCorruption(t *testing.T) {
	const e = schema.PredID(0)
	db := NewDB()
	for i := 0; i < 10; i++ {
		db.InsertArgs(e, []term.Term{term.MkConst(uint32(i)), term.MkConst(uint32(i + 1))})
	}
	enc := db.AppendSegment(nil)
	for off := range enc {
		for _, bit := range []byte{0x01, 0x80} {
			cp := append([]byte(nil), enc...)
			cp[off] ^= bit
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("decoder panicked on corruption at offset %d bit %#x: %v", off, bit, p)
					}
				}()
				if got, err := ReadSegment(cp); err == nil {
					mustVerify(t, got, fmt.Sprintf("decoded despite corruption at offset %d bit %#x", off, bit))
				}
			}()
		}
	}
}

// TestSegmentRejectsUnorderedIndexes: the per-row insertion indexes of a
// relation must strictly increase; the decoder rejects a repeated or a
// falling one as it reads them, as a malformed relation.
func TestSegmentRejectsUnorderedIndexes(t *testing.T) {
	const e, q, n = schema.PredID(0), schema.PredID(1), 10
	db := NewDB()
	for i := 0; i < n; i++ {
		db.InsertArgs(e, []term.Term{segConst(i), segConst(i + 1)})
		db.InsertArgs(q, []term.Term{segConst(i)})
	}
	enc := db.AppendSegment(nil)
	if _, err := ReadSegment(enc); err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	// Header, e's present byte and counts, its columns and hashes: e's
	// indexes 0, 2, 4, ….
	at := 8 + 1 + 12 + n*2*5 + n*8
	for name, edit := range map[string]func(b []byte){
		"repeated": func(b []byte) { copy(b[at+4:at+8], b[at:at+4]) },
		"falling":  func(b []byte) { copy(b[at+8:at+12], b[at:at+4]) },
		"negative": func(b []byte) { binary.LittleEndian.PutUint32(b[at:], 1<<31) },
	} {
		cp := append([]byte(nil), enc...)
		edit(cp)
		if _, err := ReadSegment(cp); !errors.Is(err, errMalformedRelation) {
			t.Errorf("%s insertion index: err %v, want the malformed-relation error", name, err)
		}
	}
}

// TestSegmentTermRange: a term the segment stores as a kind byte and a
// 4-byte ID decodes only when it is one a term can hold — a kind outside
// the three sorts or an ID past term.MaxID, in a column or in a posting
// key, is ErrSegmentTerm, never a term of another kind.
func TestSegmentTermRange(t *testing.T) {
	const e = schema.PredID(0)
	db := NewDB()
	for i := 0; i < 10; i++ {
		db.InsertArgs(e, []term.Term{term.MkConst(uint32(i)), term.MkNull(uint32(i))})
	}
	probeAt(db, e, 2, 1, term.MkNull(3))
	enc := db.AppendSegment(nil)
	if _, err := ReadSegment(enc); err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	// Header, present byte, pred/arity/rows: the first column term. The
	// encoding ends with position 1's one part, whose last key record is
	// one of these nulls (kind, ID, count 1, row), then its empty parts.
	for _, at := range []int{8 + 1 + 12, len(enc) - 8*(segParts-1) - 13} {
		for _, c := range []struct {
			off int
			set byte
		}{{0, 3}, {0, 0xff}, {4, 0x40}, {4, 0x80}} {
			cp := append([]byte(nil), enc...)
			cp[at+c.off] = c.set
			if _, err := ReadSegment(cp); !errors.Is(err, ErrSegmentTerm) {
				t.Errorf("term at byte %d, byte %d set to %#x: err %v, want ErrSegmentTerm", at, c.off, c.set, err)
			}
		}
	}
}

// bytesFixture is the fixed instance whose segment bytes
// TestSegmentBytesUnchanged pins: constants and nulls, tombstones,
// compaction holes, no position built.
func bytesFixture() *DB {
	const e, tt, u = schema.PredID(0), schema.PredID(1), schema.PredID(2)
	db := NewDB()
	for i := 0; i < 6100; i++ {
		c := term.MkConst(uint32(i))
		switch i % 3 {
		case 0:
			db.InsertArgs(e, []term.Term{c, term.MkConst(uint32(i * 7 % 101))})
		case 1:
			db.InsertArgs(tt, []term.Term{c, term.MkNull(uint32(i % 17)), term.MkConst(uint32(i % 5))})
		default:
			db.InsertArgs(u, []term.Term{term.MkNull(uint32(i))})
		}
	}
	for i := 0; i < 6100; i += 9 {
		if row, ok := db.FindRow(e, []term.Term{term.MkConst(uint32(i)), term.MkConst(uint32(i * 7 % 101))}); ok {
			db.Tombstone(e, row)
		}
	}
	db.Compact(0.01)
	for i := 2; i < 6100; i += 15 {
		if row, ok := db.FindRow(u, []term.Term{term.MkNull(uint32(i))}); ok {
			db.Tombstone(u, row)
		}
	}
	return db
}

// TestSegmentBytesUnchanged pins the bytes AppendSegment writes for
// bytesFixture: the v1 framing with empty dedup parts, since the slot
// array is rebuilt on read. What earlier commits wrote for the same
// instance, slot arrays included, is testdata/segment_v1.seg, which
// TestSegmentDecodesV1 still reads.
func TestSegmentBytesUnchanged(t *testing.T) {
	// No position is built: a posting section lists its keys in map order.
	const want = "dc5f104847963beb93a67bd5036d856a7ff5c6c0e6678e5de2081311b59a62cc"
	if sum := sha256.Sum256(bytesFixture().AppendSegment(nil)); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("segment SHA-256 %x, want %s", sum, want)
	}
}

// legacyFixture replays the operations behind
// testdata/segment_pr17_tombstones.seg: segmentFixture, then dead rows in
// tt, then some of u's deleted facts re-inserted. The file is what the
// commit before liveness became the bitmap alone wrote for that instance:
// its slot arrays unlink dead rows, hold the bridge code -2 where they
// sat, and reuse such slots for the re-inserted rows.
func legacyFixture(t testing.TB) *DB {
	db := segmentFixture(t)
	for i, a := range db.Facts(segTT) {
		if i%4 == 1 {
			if row, ok := db.FindRow(segTT, a.Args); ok {
				db.Tombstone(segTT, row)
			}
		}
	}
	for id := 0; id < 200; id += 3 {
		db.InsertArgs(segU, []term.Term{segConst(id)})
	}
	return db
}

const legacySegment = "testdata/segment_pr17_tombstones.seg"

// v1Segment is what AppendSegment wrote for bytesFixture while each
// relation's dedup table and postings were split into eight sub-tables
// and the slot arrays were dumped verbatim.
const v1Segment = "testdata/segment_v1.seg"

// TestSegmentDecodesV1: the v1 fixture decodes to bytesFixture's facts,
// dead rows and insertion indexes, to an instance Verify accepts whose
// dedup probes and inserts behave as the replay's do.
func TestSegmentDecodesV1(t *testing.T) {
	enc, err := os.ReadFile(v1Segment)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegment(enc)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	mustVerify(t, got, "decoded v1 segment")
	want := bytesFixture()
	if !equalStrings(sortedFacts(got), sortedFacts(want)) {
		t.Fatalf("decoded v1 segment holds %d facts, the replay %d, or they differ", got.Len(), want.Len())
	}
	if got.dead != want.dead || got.PhysicalLen() != want.PhysicalLen() || got.next != want.next {
		t.Fatalf("dead/physical/next = %d/%d/%d, want %d/%d/%d",
			got.dead, got.PhysicalLen(), got.next, want.dead, want.PhysicalLen(), want.next)
	}
	const u = schema.PredID(2) // bytesFixture's unary relation of nulls
	for i := 0; i < 6100; i += 7 {
		args := []term.Term{term.MkNull(uint32(i))}
		if g, w := got.InsertArgs(u, args), want.InsertArgs(u, args); g != w {
			t.Fatalf("insert u(_%d): decoded new=%v, replay new=%v", i, g, w)
		}
	}
	mustVerify(t, got, "decoded v1 segment, written")
}

// TestSegmentDecodesLegacyTombstones: a checkpoint written before dead
// rows stayed linked still restores — the decoder rebuilds the dedup
// tables of a relation whose arrays hold a bridge code or miss a row — to
// an instance Verify accepts, with the facts, probes and dedup behaviour
// of the same operations replayed here.
func TestSegmentDecodesLegacyTombstones(t *testing.T) {
	enc, err := os.ReadFile(legacySegment)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegment(enc)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	mustVerify(t, got, "decoded legacy segment")
	want := legacyFixture(t)
	if !equalStrings(sortedFacts(got), sortedFacts(want)) {
		t.Fatalf("decoded legacy segment holds %d facts, the replay %d, or they differ", got.Len(), want.Len())
	}
	if got.dead != want.dead || got.PhysicalLen() != want.PhysicalLen() {
		t.Fatalf("dead/physical = %d/%d, want %d/%d", got.dead, got.PhysicalLen(), want.dead, want.PhysicalLen())
	}
	for id := 0; id < 200; id++ {
		if g, w := probeAt(got, segU, 1, 0, segConst(id)), probeAt(want, segU, 1, 0, segConst(id)); g != w {
			t.Fatalf("u(%d): decoded answers %q, replay %q", id, g, w)
		}
		args := []term.Term{segConst(id)}
		if g, w := got.InsertArgs(segU, args), want.InsertArgs(segU, args); g != w {
			t.Fatalf("insert u(%d): decoded new=%v, replay new=%v", id, g, w)
		}
	}
	mustVerify(t, got, "decoded legacy segment, written")
	// What it writes back is the current format: no bridge code survives.
	again, err := ReadSegment(got.AppendSegment(nil))
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	for _, r := range again.rels {
		if r == nil {
			continue
		}
		for _, v := range r.tabEntries() {
			if v < tabEmpty {
				t.Fatalf("re-encoded segment holds slot code %d", v)
			}
		}
	}
}

// FuzzReadSegment holds the decoder to its contract on arbitrary bytes: a
// typed error, or an instance Verify accepts and the read and write paths
// can use — never a panic. Seeds: the encoded segmentFixture (positions
// built, behind and never built), every torn prefix of it, and bit flips
// across its posting sections, the legacy segment whose slot arrays hold
// bridge codes and every torn prefix of it, the v1 segment, a flipped
// stored hash, a column term with a kind outside the three sorts and one
// with an ID past term.MaxID, and a repeated insertion index. Crashers go
// under testdata/fuzz/.
func FuzzReadSegment(f *testing.F) {
	var legacy []byte
	for _, path := range []string{legacySegment, v1Segment} {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if path == legacySegment {
			legacy = seed
		}
		f.Add(seed)
	}
	fx := segmentFixture(f)
	enc := fx.AppendSegment(nil)
	f.Add(enc)
	for cut := 0; cut < len(enc); cut++ {
		f.Add(enc[:cut])
	}
	// The posting sections close each relation's body: the last third of
	// the encoding is mostly theirs.
	for off := 2 * len(enc) / 3; off < len(enc); off += 7 {
		cp := append([]byte(nil), enc...)
		cp[off] ^= 1 << (off % 8)
		f.Add(cp)
	}
	// One flipped byte of e's first stored hash (header, nil slot 0, e's
	// present byte and counts, then its columns): ErrSegmentHash.
	cp := append([]byte(nil), enc...)
	cp[8+1+1+12+fx.relOf(segE).rows()*2*5] ^= 0x10
	if _, err := ReadSegment(cp); !errors.Is(err, ErrSegmentHash) {
		f.Fatalf("flipped stored hash: err %v, want ErrSegmentHash", err)
	}
	f.Add(cp)
	// e's first column term (after the header, nil slot 0, e's present
	// byte and counts): kind byte 3, then ID 2^30.
	for _, c := range []struct {
		off int
		set byte
	}{{0, 3}, {4, 0x40}} {
		cp := append([]byte(nil), enc...)
		cp[8+1+1+12+c.off] = c.set
		if _, err := ReadSegment(cp); !errors.Is(err, ErrSegmentTerm) {
			f.Fatalf("column term byte %d set to %#x: err %v, want ErrSegmentTerm", c.off, c.set, err)
		}
		f.Add(cp)
	}
	// e's second insertion index repeats its first (after its columns and
	// hashes): a malformed relation.
	cp = append([]byte(nil), enc...)
	at := 8 + 1 + 1 + 12 + fx.relOf(segE).rows()*(2*5+8)
	copy(cp[at+4:at+8], cp[at:at+4])
	if _, err := ReadSegment(cp); !errors.Is(err, errMalformedRelation) {
		f.Fatalf("repeated insertion index: err %v, want the malformed-relation error", err)
	}
	f.Add(cp)
	// AppendSegment no longer writes slot arrays, so only the legacy
	// segment's prefixes cut the reader off inside the slot bytes it skips
	// and must still bounds-check.
	for cut := 0; cut < len(legacy); cut++ {
		f.Add(legacy[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadSegment(data)
		if err != nil {
			return
		}
		mustVerify(t, db, "decoded")
		for p, r := range db.rels {
			if r == nil || r.rows() == 0 {
				continue
			}
			for pos := 0; pos < r.arity; pos++ {
				probeAt(db, schema.PredID(p), r.arity, pos, r.args(0)[pos])
			}
			if db.InsertArgs(schema.PredID(p), r.args(0)) && !r.isDead(0) {
				t.Fatalf("pred %d: dedup accepted a stored live tuple", p)
			}
		}
		mustVerify(t, db, "decoded, probed, written")
	})
}
