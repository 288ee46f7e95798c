package storage

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/term"
)

// windowFixture is an instance whose source predicate s (arity 3) holds
// 600 rows landed in three bursts between rows of another predicate o, so
// its insertion indexes form several spans; mid is the mark between the
// first and second burst. Its three columns draw from disjoint ranges, so
// no permutation of one row is another row.
func windowFixture() (db *DB, mid Mark) {
	const s, o = schema.PredID(0), schema.PredID(1)
	db = NewDB()
	row := 0
	for burst := 0; burst < 3; burst++ {
		if burst == 1 {
			mid = db.Mark()
		}
		for k := 0; k < 200; k++ {
			db.InsertArgs(s, []term.Term{segConst(row), segConst(1000 + row%7), segConst(2000 + row%13)})
			row++
		}
		db.InsertArgs(o, []term.Term{segConst(burst)})
	}
	return db, mid
}

// TestAppendWindowMatchesInserts: a window landed by AppendWindow leaves
// the instance InsertArgs calls over the same rows in window order leave —
// the same insertion indexes, columns and their capacity, dedup slots,
// Footprint() and Verify() verdict, and the same ContainsArgs hits and
// misses — for identity and permuted columns, a window starting at a mark,
// a Clone (overlay) source, and a head relation that Compact emptied.
func TestAppendWindowMatchesInserts(t *testing.T) {
	const s, d = schema.PredID(0), schema.PredID(2)
	for _, tc := range []struct {
		name  string
		cols  []int
		mid   bool
		setup func(*DB) *DB
	}{
		{"identity", []int{0, 1, 2}, false, nil},
		{"permuted", []int{2, 0, 1}, false, nil},
		{"from mark", []int{1, 2, 0}, true, nil},
		{"clone source", []int{2, 1, 0}, true, func(db *DB) *DB { return db.Clone() }},
		{"compacted head", []int{0, 1, 2}, false, func(db *DB) *DB {
			db.InsertArgs(d, []term.Term{segConst(1), segConst(2), segConst(3)})
			row, _ := db.FindRow(d, []term.Term{segConst(1), segConst(2), segConst(3)})
			db.Tombstone(d, row)
			db.Compact(0)
			return db
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*DB, Mark) {
				db, mid := windowFixture()
				if tc.setup != nil {
					db = tc.setup(db)
				}
				if !tc.mid {
					mid = 0
				}
				return db, mid
			}
			bulk, since := build()
			size := 600
			if tc.mid {
				size = 400
			}
			n, ok := bulk.BulkWindow(d, s, since)
			if !ok || n != size {
				t.Fatalf("BulkWindow = %d, %v; want %d, true", n, ok, size)
			}
			bulk.AppendWindow(d, s, since, tc.cols, n)

			ref, _ := build()
			r := ref.relOf(s)
			image := make([]term.Term, len(tc.cols))
			for ri := r.firstSince(since); ri < r.rows(); ri++ {
				for i, c := range tc.cols {
					image[i] = r.args(int32(ri))[c]
				}
				if !ref.InsertArgs(d, image) {
					t.Fatalf("reference insert of row %d found a duplicate", ri)
				}
			}

			got, want := bulk.relOf(d), ref.relOf(d)
			if !slices.Equal(got.cols, want.cols) || cap(got.cols) != cap(want.cols) {
				t.Fatalf("columns differ (cap %d, want %d)", cap(got.cols), cap(want.cols))
			}
			if !slices.Equal(got.spans, want.spans) || bulk.Mark() != ref.Mark() || bulk.Len() != ref.Len() {
				t.Fatalf("insertion indexes: spans %v mark %d len %d, want %v %d %d",
					got.spans, bulk.Mark(), bulk.Len(), want.spans, ref.Mark(), ref.Len())
			}
			if !slices.Equal(got.tab, want.tab) || got.tabUsed != want.tabUsed {
				t.Fatalf("dedup table: %d slots %d used, want %d %d", len(got.tab), got.tabUsed, len(want.tab), want.tabUsed)
			}
			if fb, fr := bulk.Footprint(), ref.Footprint(); !maps.Equal(fb, fr) {
				t.Fatalf("Footprint %v, want %v", fb, fr)
			}
			mustVerify(t, bulk, "bulk")
			mustVerify(t, ref, "reference")
			for ri := 0; ri < want.rows(); ri++ {
				if !bulk.ContainsArgs(d, want.args(int32(ri))) {
					t.Fatalf("bulk instance misses row %d", ri)
				}
			}
			// The source rows themselves are misses unless the columns
			// are the identity, and so is every tuple below the mark.
			src := bulk.relOf(s)
			for ri := 0; ri < src.rows(); ri++ {
				hit := bulk.ContainsArgs(d, src.args(int32(ri)))
				if want := ri >= src.firstSince(since) && slices.Equal(tc.cols, []int{0, 1, 2}); hit != want {
					t.Fatalf("ContainsArgs(source row %d) = %v, want %v", ri, hit, want)
				}
			}
			if bulk.ContainsArgs(d, []term.Term{segConst(1), segConst(2), segConst(3)}) {
				t.Fatal("bulk instance holds a tuple no row had")
			}
			if n, ok := bulk.BulkWindow(d, s, since); ok {
				t.Fatalf("BulkWindow into a non-empty head = %d, true", n)
			}
		})
	}
}

// TestBulkWindowTombstones: a tombstone inside the window rules the bulk
// step out, one below the window's first row does not; an absent source
// has nothing to land.
func TestBulkWindowTombstones(t *testing.T) {
	const s, d = schema.PredID(0), schema.PredID(2)
	db, mid := windowFixture()
	db.Tombstone(s, 10)
	if n, ok := db.BulkWindow(d, s, mid); !ok || n != 400 {
		t.Fatalf("BulkWindow past a tombstone = %d, %v; want 400, true", n, ok)
	}
	if _, ok := db.BulkWindow(d, s, 0); ok {
		t.Fatal("BulkWindow over a tombstone = true")
	}
	if _, ok := db.BulkWindow(d, schema.PredID(7), 0); ok {
		t.Fatal("BulkWindow of an absent source = true")
	}
}
