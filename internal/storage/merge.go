package storage

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/term"
)

// MergeBuffers folds staged buffers into the instance, returning
// the number of new facts. It is the bulk counterpart of per-row Insert
// and the other half of the TupleBuffer contract:
//
//   - dedup reuses the hashes cached at append time — no tuple is ever
//     re-hashed — and catches duplicates against the base instance, within
//     one buffer, and across buffers in the same probe;
//   - each relation's dedup sub-tables are pre-sized for the worst case
//     (base rows plus every staged tuple) in ONE rehash, instead of
//     growing power-of-two by power-of-two under per-row Insert;
//   - relations are independent, so distinct predicates merge concurrently
//     (up to par goroutines), and a relation with a LARGE staged set is
//     additionally folded with intra-relation parallelism over its hash
//     sub-shards (see mergeSharded) — heavy single-predicate batches, the
//     common case in bulk CSV loads, no longer serialize on one goroutine.
//     Only the global insertion indexes are assigned serially, after every
//     relation settles.
//
// The result is deterministic regardless of par and of which tuple was
// staged into which buffer: predicates are folded in first-touched
// order across the buffers (ties by buffer order), and within a predicate
// tuples keep (buffer, append) order — the sharded path partitions the
// DECISION which tuples are new by fact hash, but appends acceptances in
// exactly the serial order.
func (db *DB) MergeBuffers(bufs []*TupleBuffer, par int) int {
	t0 := obs.Now()
	db.mutable()
	// Parallelism beyond the cores actually available buys nothing and
	// still pays the sharded path's bitmap/scratch setup: a caller asking
	// for 8-way merges on a 1-core box gets the serial fold it would have
	// wanted. The result is identical either way.
	if n := runtime.GOMAXPROCS(0); par > n {
		par = n
	}
	// Deterministic predicate order, with per-predicate distinct estimates
	// for table pre-sizing: summing each buffer's local distinct count
	// (rather than its raw staged-row count) keeps duplicate-heavy batches
	// from growing transient tables for rows that will never be inserted;
	// an underestimate (cross-buffer-only hash collisions) merely falls
	// back to tabInsert's normal growth. Relations are also created HERE,
	// serially: db.rels growth must not race the per-predicate goroutines.
	var preds []schema.PredID
	staged := make(map[schema.PredID]int)
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, p := range b.touched {
			if _, seen := staged[p]; !seen {
				preds = append(preds, p)
				db.rel(p, b.bufs[p].arity)
			}
			staged[p] += b.bufs[p].distinct
		}
	}
	if len(preds) == 0 {
		return 0
	}
	accepted := make([]int, len(preds))
	mergeOne := func(pi int) {
		p := preds[pi]
		r := db.rels[p]
		if r.borrowed {
			r.own()
		}
		base := r.rows()
		r.growTabTo(base + staged[p])
		for _, b := range bufs {
			if b == nil || int(p) >= len(b.bufs) || b.bufs[p] == nil {
				continue
			}
			pb := b.bufs[p]
			for k, n := 0, pb.rows(); k < n; k++ {
				h := pb.hashes[k]
				args := pb.args(k)
				if _, ok := r.find(h, args); ok {
					continue
				}
				r.tabInsert(h, int32(r.nrows))
				r.cols = append(grow(r.cols, len(args)), args...)
				r.nrows++
			}
		}
		accepted[pi] = r.nrows - base
	}
	if par <= 1 {
		for pi := range preds {
			mergeOne(pi)
		}
	} else {
		// Big relations take the sharded path (worth its bitmap and
		// scratch-table setup only past a threshold); the rest merge
		// whole-relation-at-a-time on the pool.
		var small, big []int
		for pi, p := range preds {
			if staged[p] >= shardedMergeRows {
				big = append(big, pi)
			} else {
				small = append(small, pi)
			}
		}
		runPool(par, len(small), func(k int) { mergeOne(small[k]) })
		for _, pi := range big {
			p := preds[pi]
			accepted[pi] = db.mergeSharded(p, bufs, staged[p], par)
		}
	}
	// Number the accepted rows: they enter in predicate order, each
	// relation's global column staying strictly increasing.
	added := 0
	for pi, p := range preds {
		r := db.rels[p]
		r.global = grow(r.global, accepted[pi])
		for k := 0; k < accepted[pi]; k++ {
			r.global = append(r.global, int32(db.next))
			db.next++
		}
		added += accepted[pi]
	}
	if !t0.IsZero() {
		obsMergeSec.ObserveSince(t0)
		obsMergeRows.Add(uint64(added))
	}
	return added
}

// shardedMergeRows is the staged-distinct threshold past which one
// relation's fold fans out across its hash sub-shards.
const shardedMergeRows = 2048

// mergeSharded folds all buffers' tuples of ONE predicate with
// intra-relation parallelism, in three phases:
//
//	A (parallel by hash sub-shard): decide acceptance. Each job owns the
//	  sub-shard's staged tuples outright — equal tuples hash equal, so
//	  cross-buffer duplicates meet in the same job — probing the base
//	  sub-table read-only and tracking in-flight staged tuples in a local
//	  scratch set. Accepted (buffer, row) pairs are marked in bitmaps
//	  shared by all jobs — rows of different sub-shards interleave within
//	  one word — so the marks are atomic ORs: a plain |= loses bits, and
//	  a lost bit is a dropped fact.
//	B (serial): append accepted rows to the columns in (buffer, append)
//	  order — byte-identical to the serial merge's layout.
//	C (parallel by sub-shard): link the new rows into the dedup
//	  sub-tables (one job per hash shard, reading the hashes the buffers
//	  staged) and into the posting sub-indexes of the positions that were
//	  current (one job per such position × term shard). Jobs write
//	  disjoint structures; the columns they read are settled.
//
// Returns the number of accepted rows; the caller numbers them.
func (db *DB) mergeSharded(p schema.PredID, bufs []*TupleBuffer, estimate, par int) int {
	r := db.rels[p]
	if r.borrowed {
		r.own()
	}
	base := r.nrows
	r.growTabTo(base + estimate)
	tA := obs.Now()
	// Phase A.
	accept := make([][]uint64, len(bufs))
	for bi, b := range bufs {
		if b == nil || int(p) >= len(b.bufs) || b.bufs[p] == nil || b.bufs[p].rows() == 0 {
			continue
		}
		accept[bi] = make([]uint64, (b.bufs[p].rows()+63)/64)
	}
	runPool(par, relShards, func(s int) {
		pend := newPendSet(estimate >> relShardBits)
		for bi, b := range bufs {
			if accept[bi] == nil {
				continue
			}
			pb := b.bufs[p]
			for k, n := 0, pb.rows(); k < n; k++ {
				h := pb.hashes[k]
				if hashShard(h) != s {
					continue
				}
				args := pb.args(k)
				if _, ok := r.find(h, args); ok {
					continue
				}
				if !pend.add(h, bi, k, args, bufs, p) {
					continue
				}
				atomic.OrUint64(&accept[bi][k>>6], 1<<(uint(k)&63))
			}
		}
	})
	obsMergeAccept.ObserveSince(tA)
	tB := obs.Now()
	// eachAccepted calls fn for every accepted staged row, in append order.
	eachAccepted := func(fn func(pb *predBuffer, k int)) {
		for bi, b := range bufs {
			for k := range accept[bi] {
				for w := accept[bi][k]; w != 0; w &= w - 1 {
					fn(b.bufs[p], k<<6|bits.TrailingZeros64(w))
				}
			}
		}
	}
	// Phase B.
	eachAccepted(func(pb *predBuffer, k int) {
		r.cols = append(grow(r.cols, r.arity), pb.args(k)...)
		r.nrows++
	})
	obsMergeAppend.ObserveSince(tB)
	tC := obs.Now()
	// Phase C. Only positions that were current when the merge started are
	// extended; the rest stay behind their watermark until probed.
	n := r.nrows
	var (
		current []int
		into    []*posIndex
	)
	for i := range r.idx {
		if base > 0 && int(r.idx[i].built) == base {
			current = append(current, i)
			into = append(into, r.writable(i, n))
		}
	}
	runPool(par, relShards+len(current)*relShards, func(j int) {
		if j < relShards {
			ri := int32(base)
			eachAccepted(func(pb *predBuffer, k int) {
				if h := pb.hashes[k]; hashShard(h) == j {
					r.tabInsert(h, ri)
				}
				ri++
			})
			return
		}
		j -= relShards
		k := j >> relShardBits
		r.indexRows(into[k], current[k], base, n, j&(relShards-1))
	})
	for _, pos := range current {
		r.advance(pos, n)
	}
	obsMergeLink.ObserveSince(tC)
	return n - base
}

// pendSet is a phase-A scratch set of in-flight accepted tuples: an
// open-addressed table of (hash, buffer, row) entries compared by full
// tuple equality through the staging buffers. One per sub-shard job,
// thrown away after the phase.
type pendSet struct {
	keys []uint64
	refs []int64 // packed (buffer index << 32 | row); -1 = empty
	n    int
}

func newPendSet(hint int) *pendSet {
	sz := 16
	for 4*hint > 3*sz {
		sz *= 2
	}
	ps := &pendSet{keys: make([]uint64, sz), refs: make([]int64, sz)}
	for i := range ps.refs {
		ps.refs[i] = -1
	}
	return ps
}

// add records the tuple staged at (buffer bi, row k) — with fact hash h
// and argument view args — unless an equal tuple is already pending.
// Reports whether the tuple was new.
func (ps *pendSet) add(h uint64, bi, k int, args []term.Term, bufs []*TupleBuffer, p schema.PredID) bool {
	if 4*(ps.n+1) > 3*len(ps.keys) {
		ps.grow()
	}
	mask := uint64(len(ps.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ref := ps.refs[i]
		if ref < 0 {
			ps.keys[i] = h
			ps.refs[i] = int64(bi)<<32 | int64(k)
			ps.n++
			return true
		}
		if ps.keys[i] == h && equalBufRow(ref, args, bufs, p) {
			return false
		}
	}
}

// equalBufRow compares the tuple stored at ref against args.
func equalBufRow(ref int64, args []term.Term, bufs []*TupleBuffer, p schema.PredID) bool {
	bi, k := int(ref>>32), int(ref&0xFFFFFFFF)
	row := bufs[bi].bufs[p].args(k)
	for i := range row {
		if row[i] != args[i] {
			return false
		}
	}
	return true
}

// grow doubles the table, re-placing entries by stored hash.
func (ps *pendSet) grow() {
	oldKeys, oldRefs := ps.keys, ps.refs
	sz := 2 * len(oldKeys)
	ps.keys = make([]uint64, sz)
	ps.refs = make([]int64, sz)
	for i := range ps.refs {
		ps.refs[i] = -1
	}
	mask := uint64(sz - 1)
	for i, ref := range oldRefs {
		if ref < 0 {
			continue
		}
		h := oldKeys[i]
		j := h & mask
		for ps.refs[j] >= 0 {
			j = (j + 1) & mask
		}
		ps.keys[j] = h
		ps.refs[j] = ref
	}
}

// runPool runs f(0..n-1) across up to par goroutines (the caller's
// goroutine included) with an atomic work cursor. f must be safe for the
// jobs' mutual concurrency; runPool returns when every job finished.
func runPool(par, n int, f func(int)) {
	if n == 0 {
		return
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 1; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		f(i)
	}
	wg.Wait()
}
