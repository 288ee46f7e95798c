package intern

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestMapArenaSequentialIDs: single-threaded interning through a Map+Arena
// pair assigns dense sequential IDs in first-intern order, and both
// directions agree.
func TestMapArenaSequentialIDs(t *testing.T) {
	m := NewMap()
	a := NewArena[string]()
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("n%d", i)
		id, isNew, _ := m.Intern(name, func() (uint32, string, bool) { id, ok := a.Append(name, math.MaxUint32); return id, name, ok })
		if !isNew || id != uint32(i) {
			t.Fatalf("intern %q: got (%d,%v), want (%d,true)", name, id, isNew, i)
		}
	}
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("n%d", i)
		id, isNew, _ := m.Intern(name, func() (uint32, string, bool) { panic("alloc on re-intern") })
		if isNew || id != uint32(i) {
			t.Fatalf("re-intern %q: got (%d,%v), want (%d,false)", name, id, isNew, i)
		}
		if got := a.Get(uint32(i)); got == nil || *got != name {
			t.Fatalf("arena get %d: got %v, want %q", i, got, name)
		}
	}
	if a.Len() != 5000 {
		t.Fatalf("arena len = %d, want 5000", a.Len())
	}
	if a.Get(5000) != nil {
		t.Fatal("arena get past end succeeded")
	}
	if _, ok := m.Lookup("nope"); ok {
		t.Fatal("lookup of unknown name succeeded")
	}
}

// TestMapConcurrentIntern: G goroutines intern overlapping name sets; every
// name ends with exactly one stable ID, IDs are a permutation of 0..n-1,
// and lookups during interning never observe a wrong binding. Run with
// -race.
func TestMapConcurrentIntern(t *testing.T) {
	const (
		workers = 8
		names   = 2000
	)
	m := NewMap()
	a := NewArena[string]()
	got := make([]map[string]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make(map[string]uint32, names)
			// Each worker walks the shared name set from a different offset,
			// so shard contention and first-intern races are maximized.
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("k%d", (i*7+w*names/workers)%names)
				id, _, _ := m.Intern(name, func() (uint32, string, bool) { id, ok := a.Append(name, math.MaxUint32); return id, name, ok })
				if prev, ok := mine[name]; ok && prev != id {
					t.Errorf("worker %d: %q changed ID %d -> %d", w, name, prev, id)
					return
				}
				mine[name] = id
				// The inverse direction must already serve the new ID.
				if back := a.Get(id); back == nil || *back != name {
					t.Errorf("worker %d: arena(%d) = %v, want %q", w, id, back, name)
					return
				}
			}
			got[w] = mine
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if a.Len() != names {
		t.Fatalf("arena len = %d, want %d", a.Len(), names)
	}
	seen := make(map[uint32]string, names)
	for w := 1; w < workers; w++ {
		for name, id := range got[w] {
			if got[0][name] != id {
				t.Fatalf("workers disagree on %q: %d vs %d", name, got[0][name], id)
			}
		}
	}
	for name, id := range got[0] {
		if other, dup := seen[id]; dup {
			t.Fatalf("ID %d assigned to both %q and %q", id, other, name)
		}
		seen[id] = name
		if int(id) >= names {
			t.Fatalf("ID %d out of dense range [0,%d)", id, names)
		}
	}
}

// TestArenaLimitRefusesBeforeMinting: once the arena holds its limit, a new
// name is refused — no ID minted, nothing kept in the map, so asking again
// is refused again — while names interned before still resolve.
func TestArenaLimitRefusesBeforeMinting(t *testing.T) {
	m := NewMap()
	a := NewArena[string]()
	intern := func(name string) (uint32, bool, bool) {
		return m.Intern(name, func() (uint32, string, bool) {
			id, ok := a.Append(name, 3)
			return id, name, ok
		})
	}
	for i := 0; i < 3; i++ {
		if id, isNew, ok := intern(fmt.Sprint(i)); !ok || !isNew || id != uint32(i) {
			t.Fatalf("intern %d = (%d, %v, %v)", i, id, isNew, ok)
		}
	}
	for try := 0; try < 2; try++ {
		if _, _, ok := intern("full"); ok {
			t.Fatalf("try %d: a fourth name was interned past the limit", try)
		}
		if _, found := m.Lookup("full"); found || a.Len() != 3 {
			t.Fatalf("try %d: refused name kept (found %v, arena %d)", try, found, a.Len())
		}
	}
	if id, isNew, ok := intern("1"); !ok || isNew || id != 1 {
		t.Fatalf("known name on a full arena = (%d, %v, %v)", id, isNew, ok)
	}
}
