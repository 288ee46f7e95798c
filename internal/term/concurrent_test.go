package term

import (
	"fmt"
	"sync"
	"testing"
)

// Property suite for concurrent interning (run with -race): parallel
// Const/Var across shards yield stable unique IDs, and lookup-by-ID (Name)
// is safe while interning is still in flight.

// TestConcurrentConstVarStableIDs: many goroutines intern overlapping
// constant and variable name sets concurrently; afterwards every name has
// exactly one ID, the ID spaces are dense, and all workers observed the
// same bindings.
func TestConcurrentConstVarStableIDs(t *testing.T) {
	const (
		workers = 8
		names   = 1500
	)
	s := NewStore()
	consts := make([]map[string]uint32, workers)
	vars := make([]map[string]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mc := make(map[string]uint32, names)
			mv := make(map[string]uint32, names)
			for i := 0; i < names; i++ {
				// Distinct walk order per worker maximizes first-intern races.
				k := (i*13 + w*names/workers) % names
				cn, vn := fmt.Sprintf("c%d", k), fmt.Sprintf("V%d", k)
				ct, vt := s.Const(cn), s.Var(vn)
				if !ct.IsConst() || !vt.IsVar() {
					t.Errorf("worker %d: wrong kinds %v %v", w, ct, vt)
					return
				}
				if prev, ok := mc[cn]; ok && prev != ct.ID() {
					t.Errorf("worker %d: const %q changed ID %d -> %d", w, cn, prev, ct.ID())
					return
				}
				if prev, ok := mv[vn]; ok && prev != vt.ID() {
					t.Errorf("worker %d: var %q changed ID %d -> %d", w, vn, prev, vt.ID())
					return
				}
				mc[cn], mv[vn] = ct.ID(), vt.ID()
				// Lookup-by-ID must serve the just-interned name immediately,
				// concurrently with everyone else's interning.
				if got := s.Name(ct); got != cn {
					t.Errorf("worker %d: Name(const %d) = %q, want %q", w, ct.ID(), got, cn)
					return
				}
				if got := s.Name(vt); got != vn {
					t.Errorf("worker %d: Name(var %d) = %q, want %q", w, vt.ID(), got, vn)
					return
				}
			}
			consts[w], vars[w] = mc, mv
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s.NumConsts() != names || s.NumVars() != names {
		t.Fatalf("interned %d consts, %d vars; want %d each", s.NumConsts(), s.NumVars(), names)
	}
	for w := 1; w < workers; w++ {
		for n, id := range consts[w] {
			if consts[0][n] != id {
				t.Fatalf("workers disagree on const %q: %d vs %d", n, consts[0][n], id)
			}
		}
		for n, id := range vars[w] {
			if vars[0][n] != id {
				t.Fatalf("workers disagree on var %q: %d vs %d", n, vars[0][n], id)
			}
		}
	}
	seen := make(map[uint32]bool, names)
	for n, id := range consts[0] {
		if seen[id] {
			t.Fatalf("const ID %d assigned twice", id)
		}
		seen[id] = true
		if ct, ok := s.HasConst(n); !ok || ct.ID() != id {
			t.Fatalf("HasConst(%q) = (%v,%v), want ID %d", n, ct, ok, id)
		}
	}
}

// TestConcurrentFreshness: FreshVar and FreshNull issued from many
// goroutines never collide — with each other or with plain interning of
// clashing names.
func TestConcurrentFreshness(t *testing.T) {
	const (
		workers = 8
		perW    = 300
	)
	s := NewStore()
	fresh := make([][]Term, workers)
	nulls := make([][]Term, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				v, errV := s.FreshVar("x")
				n, errN := s.FreshNull()
				if errV != nil || errN != nil {
					t.Errorf("fresh: %v, %v", errV, errN)
					return
				}
				fresh[w] = append(fresh[w], v)
				nulls[w] = append(nulls[w], n)
				// Interleave adversarial interning of the same prefix space.
				s.Var(fmt.Sprintf("x%d", i*workers+w))
			}
		}(w)
	}
	wg.Wait()
	seenV := make(map[uint32]bool)
	seenN := make(map[uint32]bool)
	for w := 0; w < workers; w++ {
		for _, v := range fresh[w] {
			if seenV[v.ID()] {
				t.Fatalf("FreshVar returned variable ID %d twice", v.ID())
			}
			seenV[v.ID()] = true
		}
		for _, n := range nulls[w] {
			if seenN[n.ID()] {
				t.Fatalf("FreshNull returned label %d twice", n.ID())
			}
			seenN[n.ID()] = true
		}
	}
	if s.NullCount() != workers*perW {
		t.Fatalf("NullCount = %d, want %d", s.NullCount(), workers*perW)
	}
}
