package storage

import (
	"errors"
	"maps"
	"runtime"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/term"
)

// TestFootprint pins what a stored binary fact costs: its columns (two
// 4-byte terms) and its share of the dedup slots — at most 16 B a row
// together with the insertion indexes for a 100 k-row relation, which one
// burst of inserts numbers as one 8-byte span — and checks the posting
// and liveness figures against the structures' exact shapes, on the live
// instance and on a frozen view whose position readers build late while
// it is read.
func TestFootprint(t *testing.T) {
	const e, rows = schema.PredID(0), 100_000
	db := NewDB()
	for i := 0; i < rows; i++ {
		db.InsertArgs(e, []term.Term{segConst(i), segConst(i % 10)})
	}
	fp := db.Footprint()
	if fp["cols"] != 8*rows || fp["global"] != 8 || fp["postings"] != 0 || fp["liveness"] != 0 {
		t.Fatalf("footprint %v, want cols %d, global 8 (one span), no postings or liveness", fp, 8*rows)
	}
	if perRow := float64(fp["cols"]+fp["global"]+fp["dedup"]) / rows; perRow > 16 {
		t.Fatalf("cols+global+dedup = %.1f B per row, want <= 16 (%v)", perRow, fp)
	}
	// Position 1 holds ten keys of 10 000 rows each: a key and a list
	// header per key, 4 B per row.
	probeAt(db, e, 2, 1, segConst(3))
	if got, want := db.Footprint()["postings"], 10*(8+24)+4*rows; got != want {
		t.Fatalf("postings after building position 1 = %d B, want %d", got, want)
	}
	snap := db.Snapshot()
	defer snap.Release()
	view := snap.DB()
	if got := view.Footprint(); !maps.Equal(got, db.Footprint()) {
		t.Fatalf("view footprint %v, live %v", got, db.Footprint())
	}
	// Readers build position 0 late while a scrape reads the view. It
	// holds every key once, inline: 8 B a row.
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(2)
		go func() { defer wg.Done(); probeAt(view, e, 2, 0, segConst(7+k)) }()
		go func() { defer wg.Done(); view.Footprint() }()
	}
	wg.Wait()
	if got, want := view.Footprint()["postings"], 10*(8+24)+4*rows+8*rows; got != want {
		t.Fatalf("view postings after a late build = %d B, want %d", got, want)
	}
	row, _ := db.FindRow(e, []term.Term{segConst(rows - 1), segConst(9)})
	db.Tombstone(e, row)
	if got := db.Footprint()["liveness"]; got != 8*(rows/64+1) {
		t.Fatalf("liveness after killing row %d = %d B, want %d", row, got, 8*(rows/64+1))
	}
}

// TestCompactLocalAllocations: reclaiming a churning 100-row relation
// beside a 100 k-row one allocates what the small relation needs, not a
// copy of anything sized by the instance.
func TestCompactLocalAllocations(t *testing.T) {
	const small, big = schema.PredID(0), schema.PredID(1)
	db := NewDB()
	for i := 0; i < 100_000; i++ {
		db.InsertArgs(big, []term.Term{segConst(i), segConst(i + 1)})
	}
	for i := 0; i < 100; i++ {
		db.InsertArgs(small, []term.Term{segConst(i)})
	}
	for i := 0; i < 100; i += 2 {
		row, _ := db.FindRow(small, []term.Term{segConst(i)})
		db.Tombstone(small, row)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := db.Compact(0.4)
	runtime.ReadMemStats(&after)
	if n != 50 {
		t.Fatalf("Compact reclaimed %d rows, want 50", n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("Compact of a 100-row relation allocated %d B beside a 100 k-row one", got)
	}
	mustVerify(t, db, "compacted")
}

// TestSegmentRowHash: the segment keeps one stored hash per row, written
// from the row's columns; a row whose stored hash is not its tuple's is a
// typed error, not an instance.
func TestSegmentRowHash(t *testing.T) {
	const e, rows = schema.PredID(0), 10
	db := NewDB()
	for i := 0; i < rows; i++ {
		db.InsertArgs(e, []term.Term{segConst(i), segConst(i + 1)})
	}
	enc := db.AppendSegment(nil)
	if _, err := ReadSegment(enc); err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	// Header, present byte, pred/arity/rows, then 5 B per column term.
	hashes := 8 + 1 + 12 + rows*2*5
	for _, row := range []int{0, 3, rows - 1} {
		for _, b := range []int{0, 7} {
			cp := append([]byte(nil), enc...)
			cp[hashes+8*row+b] ^= 0x10
			if _, err := ReadSegment(cp); !errors.Is(err, ErrSegmentHash) {
				t.Fatalf("hash byte %d of row %d flipped: err %v, want ErrSegmentHash", b, row, err)
			}
		}
	}
}
