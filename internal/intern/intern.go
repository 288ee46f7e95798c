// Package intern provides the concurrent interning substrate shared by the
// term store and the predicate registry: a striped name→ID map with a
// lock-free read path, and a chunked append-only arena for the inverse
// ID→value direction.
//
// The design keeps IDs GLOBALLY DENSE AND SEQUENTIAL — identical to the
// assignment order a single-threaded map-plus-slice store would produce —
// while removing the global mutation lock. Only the name→ID direction is
// striped (by name hash, into independent shards); IDs are handed out by
// the arena, whose append order is the ID order. Dense IDs matter
// downstream: relations, tuple buffers, and plan caches index dense arrays
// by ID, and deterministic outputs (EvalCQ tuple sort, ActiveDomain) order
// by ID bytes. A (shard, index) ID encoding would scramble both.
//
// Concurrency recipe, per shard (the sync.Map read/dirty split, specialized
// to grow-only string keys):
//
//   - read is an atomic pointer to an immutable map. A hit costs one atomic
//     load and one map probe — no lock, no CAS, shared by all readers.
//   - dirty is a mutex-guarded superset of read holding entries interned
//     since the last promotion. Read misses fall through to it under the
//     shard lock; each miss that finds its entry in dirty bumps a counter,
//     and once misses reach len(dirty) the dirty map is PROMOTED: published
//     as the new read map (it becomes immutable from that moment) and
//     rebuilt lazily on the next insert.
//
// The arena stores values in fixed-size chunks behind an atomic spine
// pointer and an atomic published count. Readers load the count first, then
// the spine: the writer stores the spine (with any new chunk) BEFORE the
// count, so any ID below the observed count is reachable through the
// observed spine (Go atomics are sequentially consistent). A value is
// published whole: a reader never sees a slot before its write completed.
package intern

import (
	"sync"
	"sync/atomic"
)

const (
	// mapShards stripes the name→ID maps. 32 shards keep the probability of
	// two concurrently-loading goroutines colliding on one shard lock low
	// without bloating small stores (an empty shard is ~48 bytes).
	mapShardBits = 5
	mapShards    = 1 << mapShardBits

	// chunkLen is the arena chunk size (values per chunk): growing the
	// spine copies one pointer per chunk, never a value.
	chunkLen = 1024
)

// shardOf hashes a name to its shard (FNV-1a, folded to the shard bits).
func shardOf(name string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime
	}
	return (h ^ h>>16) & (mapShards - 1)
}

// Map is a concurrent grow-only string→ID map with a lock-free hit path.
// The zero value is NOT ready; use NewMap.
type Map struct {
	shards [mapShards]mapShard
}

type mapShard struct {
	mu     sync.Mutex
	read   atomic.Pointer[map[string]uint32]
	dirty  map[string]uint32
	misses int
}

// NewMap returns an empty map.
func NewMap() *Map { return &Map{} }

// Lookup reports the ID interned for name, without interning. The hit path
// is lock-free when the entry has been promoted to the shard's read map.
func (m *Map) Lookup(name string) (uint32, bool) {
	sh := &m.shards[shardOf(name)]
	if r := sh.read.Load(); r != nil {
		if id, ok := (*r)[name]; ok {
			return id, true
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r := sh.read.Load(); r != nil {
		if id, ok := (*r)[name]; ok {
			return id, true
		}
	}
	if id, ok := sh.dirty[name]; ok {
		sh.missLocked()
		return id, true
	}
	return 0, false
}

// Intern returns name's ID, assigning one via alloc if absent. alloc runs
// under the name's shard lock and is called at most once per distinct name
// over the Map's lifetime; it typically appends to an Arena and returns the
// new index, together with the key the map keeps for the name: a string
// equal to name, so a caller whose arena holds its own copy can have both
// directions share one allocation, or false to refuse (a full arena; the
// map keeps nothing, and ok is false). isNew reports whether this call
// performed the assignment — the freshness signal FreshVar-style probing
// builds on.
func (m *Map) Intern(name string, alloc func() (uint32, string, bool)) (id uint32, isNew, ok bool) {
	sh := &m.shards[shardOf(name)]
	if r := sh.read.Load(); r != nil {
		if id, ok := (*r)[name]; ok {
			return id, false, true
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.read.Load()
	if r != nil {
		if id, ok := (*r)[name]; ok {
			return id, false, true
		}
	}
	if id, ok := sh.dirty[name]; ok {
		sh.missLocked()
		return id, false, true
	}
	if sh.dirty == nil {
		// First insert since promotion: rebuild dirty as a copy of read.
		var n int
		if r != nil {
			n = len(*r)
		}
		sh.dirty = make(map[string]uint32, n+1)
		if r != nil {
			for k, v := range *r {
				sh.dirty[k] = v
			}
		}
	}
	id, key, ok := alloc()
	if ok {
		sh.dirty[key] = id
	}
	return id, ok, ok
}

// missLocked counts a read-map miss that resolved in dirty and promotes the
// dirty map once misses amortize the promotion cost. Caller holds sh.mu.
func (sh *mapShard) missLocked() {
	sh.misses++
	if sh.misses >= len(sh.dirty) {
		sh.promoteLocked()
	}
}

// promoteLocked publishes dirty as the (immutable from now on) read map.
func (sh *mapShard) promoteLocked() {
	if sh.dirty == nil {
		return
	}
	d := sh.dirty
	sh.read.Store(&d)
	sh.dirty = nil
	sh.misses = 0
}

// Arena is a concurrent append-only store of values indexed by dense IDs
// in append order. Reads are lock-free; appends serialize on one short
// mutex. The zero value is NOT ready; use NewArena.
type Arena[T any] struct {
	mu    sync.Mutex
	n     atomic.Uint32
	spine atomic.Pointer[[]*[chunkLen]T]
}

// NewArena returns an empty arena.
func NewArena[T any]() *Arena[T] {
	a := &Arena[T]{}
	a.spine.Store(new([]*[chunkLen]T))
	return a
}

// Append stores v and returns its ID (the append index), or stores
// nothing and returns false once the arena holds limit values.
func (a *Arena[T]) Append(v T, limit uint32) (uint32, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	id := a.n.Load()
	if id >= limit {
		return 0, false
	}
	ci, co := int(id)/chunkLen, int(id)%chunkLen
	spine := *a.spine.Load()
	if ci == len(spine) {
		// Publish the grown spine BEFORE the count: a reader that observes
		// the new count must find the new chunk through whichever spine it
		// loads afterwards.
		grown := make([]*[chunkLen]T, ci+1)
		copy(grown, spine)
		grown[ci] = new([chunkLen]T)
		a.spine.Store(&grown)
		spine = grown
	}
	spine[ci][co] = v
	a.n.Store(id + 1)
	return id, true
}

// Get returns a pointer to the value with the given ID, or nil if it has
// not been appended: a published slot is never written again and its
// chunk never moves. Lock-free; safe concurrently with Append.
func (a *Arena[T]) Get(id uint32) *T {
	if id >= a.n.Load() {
		return nil
	}
	return &(*a.spine.Load())[int(id)/chunkLen][int(id)%chunkLen]
}

// Len reports the number of appended values.
func (a *Arena[T]) Len() int { return int(a.n.Load()) }
