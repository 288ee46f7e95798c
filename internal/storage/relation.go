package storage

import (
	"maps"
	"sync/atomic"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

// Relation partitioning. Each relation's in-place-mutated index structures
// — the dedup table and the per-position posting maps with their overflow
// lists — are hash-partitioned into relShards sub-shards:
//
//   - the dedup table splits by the TOP bits of the fact hash (the probe
//     position uses the low bits, so the two selections are independent);
//   - each position's posting map splits by a mixed term key.
//
// Partitioning changes no observable behavior — a fact's sub-shard is a
// pure function of its hash, so find/insert/delete simply operate on a
// table an eighth the size — but it makes the write paths decomposable:
// the bulk-merge path (MergeBuffers) folds one large relation with up to
// relShards-way parallelism on disjoint sub-tables, and grow/rebuild work
// per sub-table instead of stopping the world on one big array.
const (
	relShardBits = 3
	relShards    = 1 << relShardBits
)

// hashShard selects a fact's dedup sub-table from its hash top bits.
func hashShard(h uint64) int { return int(h >> (64 - relShardBits)) }

// keyShard selects a posting sub-map for a term's packed key. The fib-mix
// spreads the dense low-entropy term IDs across shards.
func keyShard(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> (64 - relShardBits))
}

// relation is the columnar store for one predicate: a flat, arity-strided
// backing array of terms, a partitioned predicate-local dedup table, and
// one partitioned term-keyed index per argument position. Every structure
// is local to the predicate, so growth, dedup chains, and index postings
// never interleave across predicates — the compact record layout the
// Vadalog pipeline (Bellomarini et al., VLDB 2018) builds its throughput
// on.
type relation struct {
	pred  schema.PredID
	arity int
	// cols is the arity-strided backing array: local row r occupies
	// cols[r*arity : (r+1)*arity]. Inserting a fact is one bulk append —
	// no per-fact slice header or argument allocation survives.
	cols []term.Term
	// global maps local row -> global insertion index. It is strictly
	// increasing, so a Mark-based delta window is a contiguous local row
	// range [firstSince(mark), rows()), resolved by binary search.
	global []int32
	// hashes holds each row's fact hash: dedup probes compare hashes
	// before touching the columns, and sub-table rebuilds re-place rows
	// without re-reading the columns.
	hashes []uint64
	// tabs is the partitioned dedup table: per hash sub-shard, an
	// open-addressed (linear-probing, power-of-two) hash set of local
	// rows. tabUsed[s] counts occupied slots of sub-table s (live rows
	// plus deleted-slot sentinels) — the load-factor input.
	tabs    [relShards][]int32
	tabUsed [relShards]int32
	// idx[i] is position i's partitioned posting index, built on first
	// probe; late and want serve probes of a frozen view's never-built
	// positions (non-nil late: this relation still shares a frozen view's
	// structures; want is shared by a live relation, its views and its
	// compacted successors). See posting.go.
	idx  []posIndex
	late *lateIndex
	want []atomic.Bool
	// dead is the liveness bitmap (one bit per local row, words allocated
	// on first kill; rows beyond the bitmap are live) and nDead the count
	// of tombstoned rows. See tombstone.go.
	dead  []uint64
	nDead int
	// shared marks that a live snapshot captured the in-place-mutated
	// structures (tabs, idx, the overflow outer slices, dead); the next
	// mutator must detach (copy them) before writing. pins counts live
	// snapshots referencing this relation's backings: Compact defers
	// pinned relations. pins is atomic because snapshots release from
	// reader goroutines; shared is only touched on the writer side. See
	// snapshot.go.
	shared bool
	pins   atomic.Int32
}

func newRelation(pred schema.PredID, arity int) *relation {
	return &relation{
		pred:  pred,
		arity: arity,
		idx:   make([]posIndex, arity),
		want:  make([]atomic.Bool, arity),
	}
}

// rows is the number of stored facts.
func (r *relation) rows() int { return len(r.global) }

// args returns the argument tuple of local row ri as a cap-limited view of
// the backing array: safe to hand out because rows are immutable and
// appends past the view's cap cannot alias it.
func (r *relation) args(ri int32) []term.Term {
	o := int(ri) * r.arity
	return r.cols[o : o+r.arity : o+r.arity]
}

// atomAt materializes local row ri as an atom sharing the columnar backing.
func (r *relation) atomAt(ri int32) atom.Atom {
	return atom.Atom{Pred: r.pred, Args: r.args(ri)}
}

// equalRow reports whether local row ri holds exactly args.
func (r *relation) equalRow(ri int32, args []term.Term) bool {
	row := r.args(ri)
	for i := range row {
		if row[i] != args[i] {
			return false
		}
	}
	return true
}

// find returns the LIVE local row holding args, if present, given their
// hash. Tombstoned rows are unlinked from the table at kill time, so they
// are never found; deleted-slot sentinels bridge probe chains. Probes
// touch exactly one sub-table — the fact's hash shard.
func (r *relation) find(h uint64, args []term.Term) (int32, bool) {
	tab := r.tabs[hashShard(h)]
	if len(tab) == 0 {
		return 0, false
	}
	mask := uint64(len(tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ri := tab[i]
		if ri == tabEmpty {
			return 0, false
		}
		if ri >= 0 && r.hashes[ri] == h && r.equalRow(ri, args) {
			return ri, true
		}
	}
}

// tabInsert records local row ri (with fact hash h) in its dedup
// sub-table, growing that sub-table at 3/4 load and reusing deleted-slot
// sentinels. The caller has already established the row is not present.
// Safe to call concurrently for rows of DISTINCT hash shards (the sharded
// merge path): each call touches only its own sub-table and used counter.
func (r *relation) tabInsert(h uint64, ri int32) {
	s := hashShard(h)
	if 4*(int(r.tabUsed[s])+1) > 3*len(r.tabs[s]) {
		r.growTab(s)
	}
	tab := r.tabs[s]
	mask := uint64(len(tab) - 1)
	i := h & mask
	for tab[i] >= 0 {
		i = (i + 1) & mask
	}
	if tab[i] == tabEmpty {
		r.tabUsed[s]++
	}
	tab[i] = ri
}

// growTab doubles (or initializes) sub-table s.
func (r *relation) growTab(s int) {
	n := 2 * len(r.tabs[s])
	if n < 16 {
		n = 16
	}
	r.rebuildShard(s, n)
}

// growTabTo sizes every dedup sub-table so that n total rows (spread
// uniformly by the hash top bits) fit under 3/4 load in ONE rehash — the
// bulk-merge path pre-sizes for base rows plus every staged tuple instead
// of growing power-of-two by power-of-two mid-merge. A skewed or
// underestimated shard merely falls back to tabInsert's normal growth.
func (r *relation) growTabTo(n int) {
	perShard := n>>relShardBits + 1
	for s := 0; s < relShards; s++ {
		want := len(r.tabs[s])
		if want < 16 {
			want = 16
		}
		for 4*perShard > 3*want {
			want *= 2
		}
		if want != len(r.tabs[s]) {
			r.rebuildShard(s, want)
		}
	}
}

// rebuildShard replaces dedup sub-table s with one of n slots (a power of
// two), re-placing its LINKED rows from the old sub-table. Tombstoned rows
// were unlinked at kill time and deleted-slot sentinels are dropped, so
// the rebuilt table holds exactly the live linked set — rebuilding costs
// O(sub-table), never O(relation).
func (r *relation) rebuildShard(s, n int) {
	old := r.tabs[s]
	tab := make([]int32, n)
	for i := range tab {
		tab[i] = tabEmpty
	}
	mask := uint64(n - 1)
	used := int32(0)
	for _, ri := range old {
		if ri < 0 {
			continue
		}
		i := r.hashes[ri] & mask
		for tab[i] != tabEmpty {
			i = (i + 1) & mask
		}
		tab[i] = ri
		used++
	}
	r.tabs[s] = tab
	r.tabUsed[s] = used
}

// firstSince returns the first local row whose global insertion index is at
// or after the mark — the lower bound of the contiguous delta window.
func (r *relation) firstSince(since Mark) int {
	if since <= 0 {
		return 0
	}
	return postingLowerBound(r.global, int32(since))
}

// clone returns an observationally identical copy. Columns, overflow row
// lists, the global map, and the hashes column are shared cap-limited:
// both sides only ever append, and an append on either side past a view's
// capacity reallocates, so neither can see the other's new rows. The dedup
// sub-tables and the liveness bitmap (both mutated in place — by inserts
// and tombstones respectively) are copied outright — flat memcpys, no
// re-hashing or re-comparison — and the posting sub-maps copy their 4-byte
// codes (a code re-pointed by either side after the clone changes only
// that side's map).
func (r *relation) clone() *relation {
	out := &relation{
		pred:    r.pred,
		arity:   r.arity,
		cols:    r.cols[:len(r.cols):len(r.cols)],
		global:  r.global[:len(r.global):len(r.global)],
		hashes:  r.hashes[:len(r.hashes):len(r.hashes)],
		tabUsed: r.tabUsed,
		idx:     make([]posIndex, r.arity),
		want:    make([]atomic.Bool, r.arity),
		dead:    append([]uint64(nil), r.dead...),
		nDead:   r.nDead,
	}
	for s := 0; s < relShards; s++ {
		if r.tabs[s] != nil {
			out.tabs[s] = append([]int32(nil), r.tabs[s]...)
		}
	}
	for i := range r.idx {
		out.idx[i].built = r.idx[i].built
		for s := 0; s < relShards; s++ {
			out.idx[i].m[s] = maps.Clone(r.idx[i].m[s])
			if ov := r.idx[i].over[s]; ov != nil {
				nov := make([][]int32, len(ov))
				for k, rows := range ov {
					nov[k] = rows[:len(rows):len(rows)]
				}
				out.idx[i].over[s] = nov
			}
		}
	}
	return out
}

// hashArgs is the FNV-1a fact hash over an unboxed (pred, args) pair, so
// scratch-buffer insertion paths hash without materializing an atom. It is
// the store's own hash — nothing requires it to match atom.Atom.Hash.
func hashArgs(pred schema.PredID, args []term.Term) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h ^= uint64(pred)
	h *= prime
	for _, t := range args {
		h ^= t.Key()
		h *= prime
	}
	return h
}
