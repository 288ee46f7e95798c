package incremental

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/atom"
	"repro/internal/obs"
	"repro/internal/storage"
)

// churnFixture is the bench module's tc.churn-durable instance built in
// process: blocks independent 150-node forward random digraphs (node i has
// an edge to each of i+1..i+5 with probability 0.3), closed under tcSrc,
// with the edge list cut into seed-shuffled batches of four. Per-edge
// fan-out is the same at every block count, so what a write costs beyond
// it is what the store charges for the instance's size.
func churnFixture(t *testing.T, blocks int) (*Engine, [][]atom.Atom) {
	t.Helper()
	r, db := load(t, tcSrc)
	rng := rand.New(rand.NewSource(20190625))
	var edges []atom.Atom
	for b := 0; b < blocks; b++ {
		for i := 0; i < 150; i++ {
			for d := 1; d <= 5 && i+d < 150; d++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, edge(r, fmt.Sprintf("n%d", b*150+i), fmt.Sprintf("n%d", b*150+i+d)))
				}
			}
		}
	}
	db.InsertAll(edges)
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var batches [][]atom.Atom
	for i := 0; i+4 <= len(edges); i += 4 {
		batches = append(batches, edges[i:i+4])
	}
	return e, batches
}

// churnReplay applies the workload's write stream the way the service
// does — batch i is deleted, batch i-8 comes back, every update is
// followed by a publish that pins the new state and retires the previous
// one, and preceded by the compaction retry a retired epoch asks for — and
// returns the bytes allocated and the time spent per
// delete+insert pair. A reader's keyed probe of t before the first write
// makes the writer carry that position, as the workload's view reads do.
func churnReplay(t *testing.T, e *Engine, batches [][]atom.Atom, pairs int) (bytesPerPair float64, del, ins time.Duration) {
	t.Helper()
	const lag = 8
	tp, _ := e.prog.Reg.Lookup("t")
	cur := e.DB().Snapshot()
	for pos := 0; pos < 2; pos++ {
		args := []storage.ScanArg{{Mode: storage.ArgSkip}, {Mode: storage.ArgSkip}}
		args[pos] = storage.ScanArg{Mode: storage.ArgConst, Const: batches[0][0].Args[0]}
		cur.DB().Probe(storage.CompileScan(tp, args), nil, 0, 0, 1, func() bool { return true })
	}
	publish := func() {
		next := e.DB().Snapshot()
		cur.Release()
		cur = next
	}
	step := func(i int) {
		e.Compact()
		t0 := time.Now()
		if err := e.Delete(batches[i%len(batches)]...); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		del += time.Since(t0)
		publish()
		if i >= lag {
			e.Compact()
			t0 = time.Now()
			if err := e.Insert(batches[(i-lag)%len(batches)]...); err != nil {
				t.Fatalf("insert %d: %v", i-lag, err)
			}
			ins += time.Since(t0)
			publish()
		}
	}
	for i := 0; i < lag; i++ {
		step(i)
	}
	del, ins = 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := lag; i < lag+pairs; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	cur.Release()
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(pairs), del / time.Duration(pairs), ins / time.Duration(pairs)
}

// TestWriteCostDoesNotFollowInstance replays 200 delete/re-insert pairs on
// the 16-block instance (65 070 facts, the workload's) and on the 112-block
// one (440 660 facts, the same fan-out per edge). Before writes copied only
// what they change, a pair allocated 2.72 MB and 11.2 MB there — a clone of
// every dedup sub-table and built posting map of t and e per update.
func TestWriteCostDoesNotFollowInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 440k-fact closure")
	}
	for _, tc := range []struct {
		blocks int
		limit  float64
	}{{16, 1.0e6}, {112, 1.5e6}} {
		e, batches := churnFixture(t, tc.blocks)
		facts := e.DB().Len()
		cowBytes := obs.NewCounter("vadalog_storage_cow_bytes_total", "", "")
		cow := cowBytes.Load()
		got, del, ins := churnReplay(t, e, batches, 200)
		cow = (cowBytes.Load() - cow) / 200
		t.Logf("%d blocks, %d facts: %.2f MB allocated per delete+insert pair (%.2f MB of it copy-on-write), %v / %v per delete / insert",
			tc.blocks, facts, got/1e6, float64(cow)/1e6, del, ins)
		if got > tc.limit {
			t.Errorf("%d blocks: %.2f MB allocated per pair, limit %.2f MB", tc.blocks, got/1e6, tc.limit/1e6)
		}
		if err := e.DB().Verify(); err != nil {
			t.Errorf("%d blocks: %v", tc.blocks, err)
		}
	}
}
