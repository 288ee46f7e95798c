package plan

import (
	"reflect"
	"sync"

	"repro/internal/logic"
)

// The compiled-program cache: a compiled Program is a pure function of the
// rule set and the compile options, never of the data, so repeated
// Eval/chase.Run/incremental sessions over the same program skip
// compilation entirely.
//
// Program identity is the rule set itself: the key is a fingerprint of the
// *logic.TGD pointers plus the rule count and options, and a hit is
// verified element-wise against the cached rule-pointer snapshot. Keying
// on rules rather than the enclosing *logic.Program means ephemeral
// wrapper programs over shared rules — program clones sharing TGDs — all
// hit one entry,
// and appending, truncating, or re-parsing rules (which allocates fresh
// *logic.TGD values, as the REPL does) recompiles instead of serving
// stale plans. In-place mutation of an existing TGD's atoms is not
// detected — engines never do that; rule edits go through re-parsing.

type cacheKey struct {
	fp  uint64
	n   int
	opt Options
}

type cacheEntry struct {
	rules []*logic.TGD // snapshot for hit verification
	prog  *Program
}

// cacheLimit bounds the cache; workloads compiling thousands of distinct
// programs (generated scenario suites) reset it rather than grow it.
const cacheLimit = 256

var (
	cacheMu sync.Mutex
	cache   = make(map[cacheKey]cacheEntry)
)

// Cached returns the compiled program for (src, opt), compiling at most
// once per distinct rule set. Safe for concurrent use; the returned
// Program is shared and immutable (per-evaluation state lives in Exec).
func Cached(src *logic.Program, opt Options) *Program {
	p, _ := CachedHit(src, opt)
	return p
}

// CachedHit is Cached that also reports whether the program came from the
// cache (explain traces show it: a rule set re-parsed per request never
// hits, one with stable *logic.TGD pointers always does).
func CachedHit(src *logic.Program, opt Options) (*Program, bool) {
	k := cacheKey{fp: fingerprint(src.TGDs), n: len(src.TGDs), opt: opt}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if e, ok := cache[k]; ok && sameRules(e.rules, src.TGDs) {
		return e.prog, true
	}
	if len(cache) >= cacheLimit {
		clear(cache)
	}
	p := Compile(src, opt)
	cache[k] = cacheEntry{rules: append([]*logic.TGD(nil), src.TGDs...), prog: p}
	return p, false
}

// Forget drops every compilation made over src's naming context — its own
// rule set's and those of the rule sets parsed against it since (view
// rules, demand rewritings). An entry reaches its program's term store and
// schema registry, so whoever retires a naming context (the reasoning
// service, on every program load) says so here rather than leaving the
// context pinned until cacheLimit entries pile up.
func Forget(src *logic.Program) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	for k, e := range cache {
		if e.prog.Source.Store == src.Store {
			delete(cache, k)
		}
	}
}

// fingerprint folds the rule pointers FNV-style. Collisions only cost a
// cache slot: hits are always verified against the rule snapshot.
func fingerprint(rules []*logic.TGD) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, t := range rules {
		h ^= uint64(reflect.ValueOf(t).Pointer())
		h *= prime
	}
	return h
}

func sameRules(a, b []*logic.TGD) bool {
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
