package storage

import (
	"slices"
	"sort"
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
// table an eighth the size — but growth works per sub-table: a grow or a
// rebuild costs O(sub-table), never one pass over one big array.
const (
	relShardBits = 3
	relShards    = 1 << relShardBits
)

// hashShard selects a fact's dedup sub-table from its hash top bits.
func hashShard(h uint64) int { return int(h >> (64 - relShardBits)) }

// keyShard selects a posting sub-map for a term's key. The fib-mix
// spreads the dense low-entropy term IDs across shards.
func keyShard(k uint32) int {
	return int((hashKey(term.Term(k)) * 0x9E3779B97F4A7C15) >> (64 - relShardBits))
}

// hashKey is what hashes and sub-shard choices mix for a term: kind<<32 |
// ID, a constant's being the term itself. Checkpoints hold row hashes and
// slot arrays placed by it, so it may not change for any kind.
func hashKey(t term.Term) uint64 { return uint64(t.Kind())<<32 | uint64(t.ID()) }

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
	// no per-fact slice header, argument allocation or hash survives. nrows
	// counts its rows (the bulk merge numbers them after appending).
	cols  []term.Term
	nrows int
	// spans maps local rows to global insertion indexes as runs: span k
	// covers rows [spans[k].row, spans[k+1].row) (the last one up to
	// rows()), which hold the consecutive indexes spans[k].at, +1, ….
	// Rows land in bursts, so a relation holds a handful of spans, not one
	// index per row. The indexes are strictly increasing, so a Mark-based
	// delta window is a contiguous local row range [firstSince(mark),
	// rows()), resolved by binary search over the spans.
	spans []span
	// tabs is the partitioned dedup table: per hash sub-shard, an
	// open-addressed (linear-probing, power-of-two) hash set of local
	// rows, live and dead alike. Its only mutation is "empty slot -> row
	// number", so the arrays are shared for good with every view taken of
	// the relation: a reader treats a slot naming a row it does not have
	// as empty (see find). Readers load slots atomically; the writer
	// stores them atomically into an array that tabShared says a view may
	// be reading (one handed out by Snapshot() and not replaced by growth
	// since). tabUsed[s] counts this relation's own occupied slots of
	// sub-table s — the load-factor input.
	tabs      [relShards][]int32
	tabUsed   [relShards]int32
	tabShared [relShards]bool
	// idx[i] is position i's posting index, built on first probe; late and
	// want serve probes of a frozen view's never-built positions (non-nil
	// late: this relation still holds exactly a frozen view's rows; want
	// is shared by a live relation, its views and its compacted
	// successors). See posting.go.
	idx  []position
	late *lateIndex
	want []atomic.Bool
	// dead is the liveness bitmap (one bit per local row, words allocated
	// on first kill; rows beyond the bitmap are live) and nDead the count
	// of tombstoned rows. See tombstone.go.
	dead  []uint64
	nDead int
	// second marks an overlay or clone relation: a second writer of a row
	// space, which may not append where the first one does (see
	// posIndex.clone). borrowed marks that tabs still belong to that other
	// writer: the first row this relation appends takes a private copy
	// first (own). deadShared
	// marks that someone else reads the bitmap: the first kill or revive
	// copies it. pins counts live snapshots referencing this relation's
	// backings: Compact defers pinned relations. pins is atomic because
	// snapshots release from reader goroutines; the flags are only
	// touched by the relation's writer. See snapshot.go.
	second     bool
	borrowed   bool
	deadShared bool
	pins       atomic.Int32
}

func newRelation(pred schema.PredID, arity int) *relation {
	return &relation{
		pred:  pred,
		arity: arity,
		idx:   make([]position, arity),
		want:  make([]atomic.Bool, arity),
	}
}

// rows is the number of stored facts.
func (r *relation) rows() int { return r.nrows }

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
// hash. Dead rows stay linked, so a tuple match on a tombstoned row keeps
// probing: a re-inserted fact sits further down the same chain. A slot
// naming a row this relation does not have — empty, or filled by the table's
// writer after this view was taken — ends the chain: slots never revert, so
// no chain of rows visible here crosses a slot that was empty when the view
// was taken. Probes touch exactly one sub-table — the fact's hash shard.
func (r *relation) find(h uint64, args []term.Term) (int32, bool) {
	tab := r.tabs[hashShard(h)]
	if len(tab) == 0 {
		return 0, false
	}
	n := uint32(r.nrows)
	mask := uint64(len(tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ri := atomic.LoadInt32(&tab[i])
		if uint32(ri) >= n {
			return 0, false
		}
		if r.equalRow(ri, args) && !r.isDead(ri) {
			return ri, true
		}
	}
}

// findAny returns the most recently inserted row holding args, live or
// dead. At most the newest row of a tuple is live (a fact is re-inserted
// only while every earlier row of it is dead), so this is the row a
// deletion pass tombstoned, if it tombstoned the fact at all.
func (r *relation) findAny(h uint64, args []term.Term) (int32, bool) {
	tab := r.tabs[hashShard(h)]
	if len(tab) == 0 {
		return 0, false
	}
	best := tabEmpty
	n := uint32(r.nrows)
	mask := uint64(len(tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ri := atomic.LoadInt32(&tab[i])
		if uint32(ri) >= n {
			return best, best != tabEmpty
		}
		if ri > best && r.equalRow(ri, args) {
			best = ri
		}
	}
}

// tabInsert records local row ri (with fact hash h) in its dedup
// sub-table, growing that sub-table at 3/4 load. The caller owns the
// table (see own) — so its own plain loads race with no store — and has
// established that no live row holds the tuple.
func (r *relation) tabInsert(h uint64, ri int32) {
	s := hashShard(h)
	if 4*(int(r.tabUsed[s])+1) > 3*len(r.tabs[s]) {
		r.growTab(s)
	}
	tab := r.tabs[s]
	mask := uint64(len(tab) - 1)
	i := h & mask
	for tab[i] != tabEmpty {
		i = (i + 1) & mask
	}
	if r.tabShared[s] {
		atomic.StoreInt32(&tab[i], ri)
	} else {
		tab[i] = ri
	}
	r.tabUsed[s]++
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

// newTab returns an all-empty sub-table of n slots.
func newTab(n int) []int32 {
	tab := make([]int32, n)
	for i := range tab {
		tab[i] = tabEmpty
	}
	return tab
}

// rebuildShard replaces dedup sub-table s with a fresh one of n slots (a
// power of two), re-placing the rows the old one links, dead ones
// included, re-hashed from the columns. The old array is left as it was
// for the views that hold it; the new one is nobody else's until the next
// Snapshot() hands it out. Rebuilding costs O(sub-table), never
// O(relation).
func (r *relation) rebuildShard(s, n int) {
	tab := newTab(n)
	mask := uint64(n - 1)
	for _, ri := range r.tabs[s] {
		if ri == tabEmpty {
			continue
		}
		i := hashArgs(r.pred, r.args(ri)) & mask
		for tab[i] != tabEmpty {
			i = (i + 1) & mask
		}
		tab[i] = ri
	}
	r.tabs[s], r.tabShared[s] = tab, false
}

// own gives a relation that reads through another writer's dedup arrays
// private copies, before the first row it appends: the one table copy
// left, paid by the second writer of a row space (an overlay or a clone),
// never by the live relation. Slots the other writer filled with rows
// this relation does not have are scrubbed — they would read as rows of
// its own once it has that many. The view's late-built positions stay
// behind: they cover the view's rows only.
func (r *relation) own() {
	n := uint32(r.nrows)
	for s := range r.tabs {
		if !r.tabShared[s] {
			continue // empty, or copied when the clone was taken
		}
		tab := newTab(len(r.tabs[s]))
		for k := range tab {
			if ri := atomic.LoadInt32(&r.tabs[s][k]); uint32(ri) < n {
				tab[k] = ri
			}
		}
		r.tabs[s], r.tabShared[s] = tab, false
		obsCowBytes.Add(uint64(4 * len(tab)))
	}
	r.late = nil
	r.borrowed = false
}

// span is one run of a relation's insertion indexes (see relation.spans).
// No two adjacent spans close up: span k+1 starts past the index span k
// would give its next row.
type span struct{ row, at int32 }

// extend returns spans with local row ri — the row after the last one
// they cover — holding insertion index g, past every index they hold. It
// writes nothing when g follows on from the last span.
func extend(spans []span, ri, g int32) []span {
	if k := len(spans) - 1; k >= 0 && spans[k].at+ri-spans[k].row == g {
		return spans
	}
	return append(spans, span{ri, g})
}

// spanEnd returns the local row past span k's last row.
func (r *relation) spanEnd(k int) int32 {
	if k+1 < len(r.spans) {
		return r.spans[k+1].row
	}
	return int32(r.nrows)
}

// spanAt returns the last span whose first index is at or below g, and
// the local row past its last row; k is -1 when every index exceeds g.
// Every probe of a delta window binary-searches here.
func (r *relation) spanAt(g int32) (k int, end int32) {
	a, b := 0, len(r.spans)
	for a < b {
		if mid := int(uint(a+b) >> 1); r.spans[mid].at > g {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return a - 1, r.spanEnd(a - 1)
}

// indexOf returns local row ri's insertion index.
func (r *relation) indexOf(ri int32) int32 {
	k := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].row > ri }) - 1
	return r.spans[k].at + ri - r.spans[k].row
}

// rowOf returns the local row holding insertion index g, if one does.
func (r *relation) rowOf(g int32) (int32, bool) {
	k, end := r.spanAt(g)
	if k < 0 {
		return 0, false
	}
	ri := r.spans[k].row + g - r.spans[k].at
	return ri, ri < end
}

// firstSince returns the first local row whose global insertion index is at
// or after the mark — the lower bound of the contiguous delta window.
func (r *relation) firstSince(since Mark) int {
	if since <= 0 {
		return 0
	}
	k, end := r.spanAt(int32(since))
	if k < 0 {
		return 0
	}
	return int(min(r.spans[k].row+int32(since)-r.spans[k].at, end))
}

// clone returns an observationally identical, independently writable
// copy. Columns are read through the source's (see view), and so are
// dedup arrays that views already read along with (see own); what the
// source may still mutate unannounced — the liveness bitmap, the posting
// indexes no view has frozen, dedup arrays no view holds — is copied,
// because Clone must not write to its receiver to tell it about the
// sharing.
func (r *relation) clone() *relation {
	out := r.view()
	out.second = true
	for s := range out.tabs {
		if r.tabShared[s] {
			out.borrowed = true
			continue
		}
		// The source stores into this array plainly: nothing may read along.
		out.tabs[s] = slices.Clone(r.tabs[s])
		obsCowBytes.Add(uint64(4 * len(r.tabs[s])))
	}
	out.late = nil
	out.want = make([]atomic.Bool, r.arity)
	out.dead = slices.Clone(r.dead)
	for i := range out.idx {
		p := &out.idx[i]
		if p.base != nil && !p.base.frozen {
			p.base = p.base.clone(true)
		}
		if p.tail != nil && !p.tail.frozen {
			p.tail = p.tail.clone(true)
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
		h ^= hashKey(t)
		h *= prime
	}
	return h
}
