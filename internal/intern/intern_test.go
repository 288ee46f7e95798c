package intern

import (
	"fmt"
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
		id, isNew := m.Intern(name, func() (uint32, string) { return a.Append(name), name })
		if !isNew || id != uint32(i) {
			t.Fatalf("intern %q: got (%d,%v), want (%d,true)", name, id, isNew, i)
		}
	}
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("n%d", i)
		id, isNew := m.Intern(name, func() (uint32, string) { panic("alloc on re-intern") })
		if isNew || id != uint32(i) {
			t.Fatalf("re-intern %q: got (%d,%v), want (%d,false)", name, id, isNew, i)
		}
		if got, ok := a.Get(uint32(i)); !ok || got != name {
			t.Fatalf("arena get %d: got (%q,%v), want %q", i, got, ok, name)
		}
	}
	if a.Len() != 5000 {
		t.Fatalf("arena len = %d, want 5000", a.Len())
	}
	if _, ok := a.Get(5000); ok {
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
				id, _ := m.Intern(name, func() (uint32, string) { return a.Append(name), name })
				if prev, ok := mine[name]; ok && prev != id {
					t.Errorf("worker %d: %q changed ID %d -> %d", w, name, prev, id)
					return
				}
				mine[name] = id
				// The inverse direction must already serve the new ID.
				if back, ok := a.Get(id); !ok || back != name {
					t.Errorf("worker %d: arena(%d) = (%q,%v), want %q", w, id, back, ok, name)
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
