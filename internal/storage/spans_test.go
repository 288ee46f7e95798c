package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/schema"
	"repro/internal/term"
)

// refRow is one local row of the reference model: its tuple, the
// insertion index a per-row column would hold for it, and its liveness.
type refRow struct {
	args []term.Term
	g    int32
	dead bool
}

// spanRef is the per-row reference the insertion spans are checked
// against: every relation as a plain column of rows, and the next index.
type spanRef struct {
	next int
	rels [3][]refRow
}

// spanArity is the arity of each predicate of the span property test.
var spanArity = [3]int{1, 2, 2}

func (m *spanRef) copy() *spanRef {
	out := &spanRef{next: m.next}
	for p := range m.rels {
		out.rels[p] = slices.Clone(m.rels[p])
	}
	return out
}

func (m *spanRef) rows() (n int) {
	for _, rows := range m.rels {
		n += len(rows)
	}
	return n
}

func (m *spanRef) live(p int, args []term.Term) (int, bool) {
	for ri, row := range m.rels[p] {
		if !row.dead && slices.Equal(row.args, args) {
			return ri, true
		}
	}
	return 0, false
}

func (m *spanRef) insert(p int, args []term.Term) bool {
	if _, ok := m.live(p, args); ok {
		return false
	}
	m.rels[p] = append(m.rels[p], refRow{args: slices.Clone(args), g: int32(m.next)})
	m.next++
	return true
}

// compact reclaims the dead rows of every relation at or past the dead
// fraction, keeping the survivors' indexes, and squashes once holes
// outnumber held indexes — what CompactAll does.
func (m *spanRef) compact(frac float64) int {
	removed := 0
	for p, rows := range m.rels {
		dead := 0
		for _, row := range rows {
			if row.dead {
				dead++
			}
		}
		if dead == 0 || float64(dead) < frac*float64(len(rows)) {
			continue
		}
		m.rels[p] = slices.DeleteFunc(slices.Clone(rows), func(row refRow) bool { return row.dead })
		removed += dead
	}
	if holes := m.next - m.rows(); holes > 0 && 2*holes > m.next {
		m.squash()
	}
	return removed
}

// squash renumbers every held index to its rank.
func (m *spanRef) squash() {
	var held []int32
	for _, rows := range m.rels {
		for _, row := range rows {
			held = append(held, row.g)
		}
	}
	slices.Sort(held)
	for p := range m.rels {
		m.rels[p] = slices.Clone(m.rels[p])
		for ri := range m.rels[p] {
			m.rels[p][ri].g = int32(sort.Search(len(held), func(i int) bool { return held[i] >= m.rels[p][ri].g }))
		}
	}
	m.next = len(held)
}

// stagedRow is one tuple a test appended to a TupleBuffer.
type stagedRow struct {
	p    int
	args []term.Term
}

// spanWorld is one instance under test beside its reference.
type spanWorld struct {
	name string
	db   *DB
	ref  *spanRef
}

// check holds the instance to its reference: Verify, every row's
// insertion index and tuple through the spans, IndexOf of every live
// tuple, Row at every held index, and a Probe's live-row count at every
// mark in [0, next].
func (w *spanWorld) check(t *testing.T, seed int64, step int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d, %s: %s", seed, step, w.name, fmt.Sprintf(format, args...))
	}
	if err := w.db.Verify(); err != nil {
		fail("%v", err)
	}
	if int(w.db.Mark()) != w.ref.next {
		fail("mark %d, reference next %d", w.db.Mark(), w.ref.next)
	}
	for p, rows := range w.ref.rels {
		pred := schema.PredID(p)
		r := w.db.relOf(pred)
		if r == nil && len(rows) > 0 || r != nil && r.rows() != len(rows) {
			fail("pred %d: rows differ from the reference's %d", p, len(rows))
		}
		since := make([]int, w.ref.next+2) // live rows at index >= m
		for ri, row := range rows {
			if g := r.indexOf(int32(ri)); g != row.g || !slices.Equal(r.args(int32(ri)), row.args) || r.isDead(int32(ri)) != row.dead {
				fail("pred %d row %d: index %d, want %d (tuple %v, dead %v)", p, ri, g, row.g, row.args, row.dead)
			}
			if a := w.db.Row(int(row.g)); a.Pred != pred || !slices.Equal(a.Args, row.args) {
				fail("Row(%d) = %v, want pred %d %v", row.g, a, p, row.args)
			}
			if row.dead {
				continue
			}
			since[row.g]++
			if g, ok := w.db.IndexOf(r.atomAt(int32(ri))); !ok || g != int(row.g) {
				fail("IndexOf pred %d %v = %d %v, want %d", p, row.args, g, ok, row.g)
			}
		}
		count := windowCounter(w.db, pred)
		for m := w.ref.next; m >= 0; m-- {
			since[m] += since[m+1]
			if got := count(Mark(m)); got != since[m] {
				fail("window count (pred %d, %d) = %d, want %d", p, m, got, since[m])
			}
		}
	}
}

// TestInsertionSpansMatchColumn drives seeded random interleavings of
// inserts across relations, MergeBuffers batches, tombstones and revivals,
// compactions (squashing once holes outnumber held indexes, and forced),
// segment round trips, and writes to a clone and to a snapshot's overlay,
// and after every step holds each instance — the snapshot view too — to a
// per-row reference column of insertion indexes.
func TestInsertionSpansMatchColumn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tuple := func(p int) []term.Term {
			args := make([]term.Term, spanArity[p])
			for i := range args {
				args[i] = segConst(rng.Intn(12))
			}
			return args
		}
		main := &spanWorld{name: "main", db: NewDB(), ref: &spanRef{}}
		var clone, overlay, frozen *spanWorld
		var snap *Snapshot
		for step := 0; step < 300; step++ {
			// Writes land on the main instance, its clone or the overlay.
			w := main
			if k := rng.Intn(4); k == 1 && clone != nil {
				w = clone
			} else if k == 2 && overlay != nil {
				w = overlay
			}
			switch op := rng.Intn(20); {
			case op < 8:
				for n := rng.Intn(6) + 1; n > 0; n-- {
					p := rng.Intn(3)
					args := tuple(p)
					if got, want := w.db.InsertArgs(schema.PredID(p), args), w.ref.insert(p, args); got != want {
						t.Fatalf("seed %d step %d, %s: insert %d%v new=%v, want %v", seed, step, w.name, p, args, got, want)
					}
				}
			case op < 11:
				bufs := make([]*TupleBuffer, rng.Intn(3)+1)
				var staged [][]stagedRow
				var order []int
				for i := range bufs {
					bufs[i] = NewTupleBuffer()
					staged = append(staged, nil)
					for n := rng.Intn(20); n > 0; n-- {
						p := rng.Intn(3)
						args := tuple(p)
						bufs[i].Append(schema.PredID(p), args)
						staged[i] = append(staged[i], stagedRow{p, args})
						if !slices.Contains(order, p) {
							order = append(order, p)
						}
					}
				}
				want := 0
				for _, p := range order {
					for _, rows := range staged {
						for _, s := range rows {
							if s.p == p && w.ref.insert(p, s.args) {
								want++
							}
						}
					}
				}
				if got := w.db.MergeBuffers(bufs, 1); got != want {
					t.Fatalf("seed %d step %d, %s: merge added %d, want %d", seed, step, w.name, got, want)
				}
			case op < 14:
				p := rng.Intn(3)
				if n := len(w.ref.rels[p]); n > 0 {
					ri := rng.Intn(n)
					row := &w.ref.rels[p][ri]
					if got := w.db.Tombstone(schema.PredID(p), int32(ri)); got != !row.dead {
						t.Fatalf("seed %d step %d, %s: tombstone %d row %d = %v", seed, step, w.name, p, ri, got)
					}
					row.dead = true
				}
			case op < 15:
				// Re-insert the tuple of a dead row no live row shadows: it
				// lands as a fresh row.
				p := rng.Intn(3)
				for ri := range w.ref.rels[p] {
					if row := w.ref.rels[p][ri]; row.dead {
						if _, ok := w.ref.live(p, row.args); !ok {
							if !w.db.InsertArgs(schema.PredID(p), row.args) || !w.ref.insert(p, row.args) {
								t.Fatalf("seed %d step %d, %s: re-insert of %d row %d failed", seed, step, w.name, p, ri)
							}
							break
						}
					}
				}
			case op < 16:
				frac := []float64{0.01, 0.3, 1}[rng.Intn(3)]
				if got, want := w.db.CompactAll(frac), w.ref.compact(frac); got != want {
					t.Fatalf("seed %d step %d, %s: compact(%v) reclaimed %d, want %d", seed, step, w.name, frac, got, want)
				}
			case op < 17:
				w.db.squash()
				w.ref.squash()
			case op < 18:
				db, err := ReadSegment(main.db.AppendSegment(nil))
				if err != nil {
					t.Fatalf("seed %d step %d: segment round trip: %v", seed, step, err)
				}
				main.db = db
			case op < 19:
				clone = &spanWorld{name: "clone", db: main.db.Clone(), ref: main.ref.copy()}
			default:
				if snap != nil {
					snap.Release()
				}
				snap = main.db.Snapshot()
				frozen = &spanWorld{name: "snapshot", db: snap.DB(), ref: main.ref.copy()}
				overlay = &spanWorld{name: "overlay", db: snap.DB().Overlay(), ref: main.ref.copy()}
			}
			for _, w := range []*spanWorld{main, clone, overlay, frozen} {
				if w != nil {
					w.check(t, seed, step)
				}
			}
		}
		if snap != nil {
			snap.Release()
		}
	}
}
