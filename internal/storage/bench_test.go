package storage

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

// benchEdges pre-builds a chain of n e/2 facts so the insertion loops
// measure the store, not the naming context.
func benchEdges(n int) ([]atom.Atom, schema.PredID) {
	st := term.NewStore()
	reg := schema.NewRegistry()
	e := reg.Intern("e", 2)
	out := make([]atom.Atom, n)
	for i := range out {
		out[i] = atom.New(e, st.Const(fmt.Sprintf("n%d", i)), st.Const(fmt.Sprintf("n%d", i+1)))
	}
	return out, e
}

// BenchmarkInsert: cost of inserting n distinct facts into a fresh store —
// the columnar append, dedup-table, and index-posting path.
func BenchmarkInsert(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			facts, _ := benchEdges(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := NewDB()
				for _, f := range facts {
					db.Insert(f)
				}
			}
		})
	}
}

// BenchmarkInsertDup: cost of rejecting duplicates — pure dedup probes.
func BenchmarkInsertDup(b *testing.B) {
	facts, _ := benchEdges(16384)
	db := NewDB()
	for _, f := range facts {
		db.Insert(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range facts {
			if db.Insert(f) {
				b.Fatal("duplicate accepted")
			}
		}
	}
}

// BenchmarkProbeIndexed: an indexed point probe (bound first position)
// against a large relation — the inner join step of every compiled plan.
func BenchmarkProbeIndexed(b *testing.B) {
	facts, e := benchEdges(16384)
	db := NewDB()
	for _, f := range facts {
		db.Insert(f)
	}
	sp := CompileScan(e, []ScanArg{
		{Mode: ArgBound, Slot: 0},
		{Mode: ArgBind, Slot: 1},
	})
	frame := NewFrame(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame[0] = facts[i%len(facts)].Args[0]
		matched := 0
		db.Probe(sp, frame, 0, 0, 1, func() bool { matched++; return true })
		if matched != 1 {
			b.Fatalf("matched = %d, want 1", matched)
		}
	}
}

// BenchmarkDeltaScan: a full delta-window scan over the most recent facts,
// as every semi-naive round performs; the window is a contiguous columnar
// row range.
func BenchmarkDeltaScan(b *testing.B) {
	for _, window := range []int{64, 1024} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			facts, e := benchEdges(16384)
			db := NewDB()
			for _, f := range facts[:len(facts)-window] {
				db.Insert(f)
			}
			mark := db.Mark()
			for _, f := range facts[len(facts)-window:] {
				db.Insert(f)
			}
			sp := CompileScan(e, []ScanArg{
				{Mode: ArgBind, Slot: 0},
				{Mode: ArgBind, Slot: 1},
			})
			frame := NewFrame(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matched := 0
				db.Probe(sp, frame, mark, 0, 1, func() bool { matched++; return true })
				if matched != window {
					b.Fatalf("matched = %d, want %d", matched, window)
				}
			}
		})
	}
}

// BenchmarkInsertWideDomain: every key is unique at every position, so
// each posting holds exactly one row — the high-selectivity regime the
// inline-first-row posting representation targets. allocs/op is the
// tracked metric: the per-key posting slice of the old representation is
// gone (two allocations per fact on a binary predicate).
func BenchmarkInsertWideDomain(b *testing.B) {
	st := term.NewStore()
	reg := schema.NewRegistry()
	e := reg.Intern("e", 2)
	n := 16384
	facts := make([]atom.Atom, n)
	for i := range facts {
		facts[i] = atom.New(e,
			st.Const(fmt.Sprintf("l%d", i)), st.Const(fmt.Sprintf("r%d", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB()
		for _, f := range facts {
			db.Insert(f)
		}
	}
}

// BenchmarkMergeBuffers: bulk-merging staged columnar tuples (hashes
// cached at append time, one pre-sized table grow) at par GOMAXPROCS, the
// most any merge could use: 16 384 edges in one or four buffers into an
// empty instance, and one 16 384-row buffer into a 200 000-row instance
// with one built posting position.
func BenchmarkMergeBuffers(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	facts, e := benchEdges(16384)
	for _, nb := range []int{1, 4} {
		b.Run(fmt.Sprintf("buffers=%d", nb), func(b *testing.B) {
			bufs := make([]*TupleBuffer, nb)
			for i := range bufs {
				bufs[i] = NewTupleBuffer()
			}
			for i, f := range facts {
				bufs[i%nb].Append(e, f.Args)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := NewDB()
				if got := db.MergeBuffers(bufs, par); got != len(facts) {
					b.Fatalf("merged %d, want %d", got, len(facts))
				}
			}
		})
	}
	b.Run("into=200000", func(b *testing.B) {
		all, e := benchEdges(200000 + 16384)
		base, buf := NewTupleBuffer(), NewTupleBuffer()
		for i, f := range all {
			if i < 200000 {
				base.Append(e, f.Args)
			} else {
				buf.Append(e, f.Args)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := NewDB()
			db.MergeBuffers([]*TupleBuffer{base}, 1)
			probeAt(db, e, 2, 0, all[0].Args[0])
			b.StartTimer()
			if got := db.MergeBuffers([]*TupleBuffer{buf}, par); got != buf.Len() {
				b.Fatalf("merged %d, want %d", got, buf.Len())
			}
		}
	})
}

// BenchmarkClone: what Clone of a live DB costs, a snapshot plus an
// overlay. Nothing is copied until the clone writes a relation.
func BenchmarkClone(b *testing.B) {
	facts, _ := benchEdges(16384)
	db := NewDB()
	for _, f := range facts {
		db.Insert(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if db.Clone().Len() != db.Len() {
			b.Fatal("clone lost rows")
		}
	}
}
