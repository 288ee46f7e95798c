package incremental

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/datalog"
	"repro/internal/parser"
	"repro/internal/storage"
)

func load(t *testing.T, src string) (*parser.Result, *storage.DB) {
	t.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := storage.NewDB()
	db.InsertAll(r.Facts)
	return r, db
}

const tcSrc = `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
`

func edge(r *parser.Result, a, b string) atom.Atom {
	p := r.Program.Reg.Intern("e", 2)
	return atom.New(p, r.Program.Store.Const(a), r.Program.Store.Const(b))
}

func tFact(r *parser.Result, a, b string) atom.Atom {
	p := r.Program.Reg.Intern("t", 2)
	return atom.New(p, r.Program.Store.Const(a), r.Program.Store.Const(b))
}

func TestInsertPropagates(t *testing.T) {
	r, db := load(t, tcSrc+`e(a,b).`)
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if !e.DB().Contains(tFact(r, "a", "b")) {
		t.Fatalf("initial materialization missing t(a,b)")
	}
	if err := e.Insert(edge(r, "b", "c")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	for _, want := range [][2]string{{"b", "c"}, {"a", "c"}} {
		if !e.DB().Contains(tFact(r, want[0], want[1])) {
			t.Fatalf("missing t(%s,%s) after insert", want[0], want[1])
		}
	}
	if e.Stats().DerivedNew < 2 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

func TestDeleteWithRederivation(t *testing.T) {
	// Two parallel paths a→b→d and a→c→d; deleting one edge must keep
	// t(a,d) alive through the other. The overestimate reaches t(a,d)
	// through e(a,b), t(b,d), and the support search proves it from
	// e(a,c), t(c,d) before deleting it — so only t(a,b) is overdeleted
	// and nothing needs rederiving.
	r, db := load(t, tcSrc+`e(a,b). e(b,d). e(a,c). e(c,d).`)
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := e.Delete(edge(r, "a", "b")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if e.DB().Contains(edge(r, "a", "b")) || e.DB().Contains(tFact(r, "a", "b")) {
		t.Fatalf("deleted edge still present")
	}
	if !e.DB().Contains(tFact(r, "a", "d")) {
		t.Fatalf("t(a,d) lost despite surviving path a->c->d")
	}
	if st := e.Stats(); st.Overdeleted != 1 || st.Rederived != 0 || st.Kept != 1 {
		t.Fatalf("want t(a,b) overdeleted and t(a,d) kept, nothing rederived; stats = %+v", st)
	}
}

func TestDeleteCascades(t *testing.T) {
	r, db := load(t, tcSrc+`e(a,b). e(b,c). e(c,d).`)
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := e.Delete(edge(r, "b", "c")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	for _, gone := range [][2]string{{"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}} {
		if e.DB().Contains(tFact(r, gone[0], gone[1])) {
			t.Fatalf("t(%s,%s) survived a cut", gone[0], gone[1])
		}
	}
	for _, kept := range [][2]string{{"a", "b"}, {"c", "d"}} {
		if !e.DB().Contains(tFact(r, kept[0], kept[1])) {
			t.Fatalf("t(%s,%s) wrongly deleted", kept[0], kept[1])
		}
	}
}

func TestRejections(t *testing.T) {
	r, db := load(t, tcSrc)
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := e.Insert(tFact(r, "a", "b")); err == nil {
		t.Fatalf("inserting an intensional fact accepted")
	}
	if err := e.Delete(tFact(r, "a", "b")); err == nil {
		t.Fatalf("deleting an intensional fact accepted")
	}
	rx, dbx := load(t, `r(X,Y) :- p(X).`)
	if _, err := New(rx.Program, dbx); err == nil {
		t.Fatalf("existential program accepted")
	}
	rn, dbn := load(t, `p(X) :- a(X), not b(X).`)
	if _, err := New(rn.Program, dbn); err == nil {
		t.Fatalf("negation accepted")
	}
}

func TestDeleteAbsentFactIsNoop(t *testing.T) {
	r, db := load(t, tcSrc+`e(a,b).`)
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	before := e.DB().Len()
	if err := e.Delete(edge(r, "x", "y")); err != nil {
		t.Fatalf("delete absent: %v", err)
	}
	if e.DB().Len() != before {
		t.Fatalf("no-op delete changed the instance")
	}
}

// assertMatchesRecompute checks the maintained instance against a
// from-scratch recomputation over the live base facts, and its
// extensional facts against the live set itself.
func assertMatchesRecompute(t *testing.T, label string, eng *Engine, live []atom.Atom) {
	t.Helper()
	base := storage.NewDB()
	for _, f := range live {
		base.Insert(f)
	}
	want, _, err := datalog.Eval(eng.prog, base, datalog.Options{Stratify: true})
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	got := eng.DB()
	if err := got.Verify(); err != nil {
		t.Fatalf("%s: maintained instance: %v", label, err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: maintained %d facts, recompute %d", label, got.Len(), want.Len())
	}
	for _, f := range want.All() {
		if !got.Contains(f) {
			t.Fatalf("%s: maintained instance missing %v", label, f)
		}
	}
	// The extensional facts must be exactly the live base facts.
	heads, ext := eng.prog.HeadPreds(), 0
	for _, f := range got.All() {
		if !heads[f.Pred] {
			ext++
		}
	}
	if ext != len(live) {
		t.Fatalf("%s: maintained instance holds %d extensional facts, want %d", label, ext, len(live))
	}
	for _, f := range live {
		if !got.Contains(f) {
			t.Fatalf("%s: maintained instance lost base fact %v", label, f)
		}
	}
}

// TestBaseIsACopy: Base is a fresh instance of the live extensional
// facts in insertion order; writing to it changes neither the
// materialization nor what the next Base returns.
func TestBaseIsACopy(t *testing.T) {
	r, db := load(t, tcSrc+`e(a,b). e(b,c). e(c,d).`)
	eng, err := New(r.Program, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(edge(r, "b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Insert(edge(r, "d", "e")); err != nil {
		t.Fatal(err)
	}
	live := []atom.Atom{edge(r, "a", "b"), edge(r, "c", "d"), edge(r, "d", "e")}
	base := eng.Base()
	if err := base.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := base.All(); !slices.EqualFunc(got, live, atom.Atom.Equal) {
		t.Fatalf("Base() = %v, want %v", got, live)
	}
	base.Insert(edge(r, "x", "y"))
	for _, f := range live[:2] {
		if row, ok := base.FindRow(f.Pred, f.Args); ok {
			base.Tombstone(f.Pred, row)
		}
	}
	base.Compact(0)
	assertMatchesRecompute(t, "after writing to Base()", eng, live)
	if got := eng.Base().All(); !slices.EqualFunc(got, live, atom.Atom.Equal) {
		t.Fatalf("Base() after writing to a copy = %v, want %v", got, live)
	}
}

// TestDeleteOnColdPositionsMatchesEval: the initial materialization of a
// linear closure scans t and probes only e, so the engine starts with no
// posting of t built. The first deletes' overestimate and rederivation
// joins probe t at both positions — each built then, behind after every
// further write, caught up by the next probe — and must leave exactly what
// datalog.Eval computes from the surviving base facts.
func TestDeleteOnColdPositionsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var src strings.Builder
	src.WriteString(tcSrc)
	const nodes = 40
	for i := 0; i < 3*nodes; i++ {
		fmt.Fprintf(&src, "e(n%d,n%d).\n", rng.Intn(nodes), rng.Intn(nodes))
	}
	r, db := load(t, src.String())
	eng, err := New(r.Program, db)
	if err != nil {
		t.Fatal(err)
	}
	live := append([]atom.Atom(nil), r.Facts...)
	for step := 0; step < 12; step++ {
		i := rng.Intn(len(live))
		if err := eng.Delete(live[i]); err != nil {
			t.Fatalf("step %d: delete: %v", step, err)
		}
		live = append(live[:i], live[i+1:]...)
		if step%3 == 2 {
			if err := eng.Insert(edge(r, fmt.Sprintf("n%d", rng.Intn(nodes)), fmt.Sprintf("n%d", rng.Intn(nodes)))); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
		}
		assertMatchesEval(t, eng)
	}
}

// assertStatsConsistent checks the DRed accounting invariants: counters
// only grow, nothing is rederived that was not first overdeleted, and
// explicit deletions never exceed the facts handed in.
func assertStatsConsistent(t *testing.T, label string, prev, cur Stats) {
	t.Helper()
	if cur.Inserted < prev.Inserted || cur.Deleted < prev.Deleted ||
		cur.DerivedNew < prev.DerivedNew || cur.Overdeleted < prev.Overdeleted ||
		cur.Rederived < prev.Rederived || cur.Compacted < prev.Compacted {
		t.Fatalf("%s: stats regressed: %+v -> %+v", label, prev, cur)
	}
	if cur.Rederived > cur.Overdeleted {
		t.Fatalf("%s: Rederived %d > Overdeleted %d (rederived a fact never overdeleted)",
			label, cur.Rederived, cur.Overdeleted)
	}
}

// TestRandomUpdateStreamMatchesRecompute is the main property: after every
// update in a random insert/delete stream over random programs, the
// maintained instance equals a from-scratch recomputation.
func TestRandomUpdateStreamMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	progs := []string{
		tcSrc,
		tcSrc + `
back(X,Y) :- t(Y,X).
meet(X) :- t(X,Y), back(X,Y).
`,
		`
tri(X,Z) :- e(X,Y), g(Y,Z).
hop(X,W) :- tri(X,Z), g(Z,W).
`,
	}
	for trial := 0; trial < 12; trial++ {
		src := progs[trial%len(progs)]
		r, db := load(t, src)
		eng, err := New(r.Program, db)
		if err != nil {
			t.Fatalf("trial %d: new: %v", trial, err)
		}
		nodes := 5
		var live []atom.Atom
		inLive := make(map[string]bool) // set semantics: base facts dedupe
		mk := func() atom.Atom {
			preds := []string{"e", "g"}
			p := preds[rng.Intn(len(preds))]
			pid := r.Program.Reg.Intern(p, 2)
			return atom.New(pid,
				r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(nodes))),
				r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(nodes))))
		}
		for step := 0; step < 30; step++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				f := mk()
				if err := eng.Insert(f); err != nil {
					t.Fatalf("trial %d step %d: insert: %v", trial, step, err)
				}
				if k := atom.SortKey(f); !inLive[k] {
					inLive[k] = true
					live = append(live, f)
				}
			} else {
				i := rng.Intn(len(live))
				f := live[i]
				live = append(live[:i], live[i+1:]...)
				delete(inLive, atom.SortKey(f))
				if err := eng.Delete(f); err != nil {
					t.Fatalf("trial %d step %d: delete: %v", trial, step, err)
				}
			}
			// Oracle: full recomputation over the current base facts.
			assertMatchesRecompute(t, fmt.Sprintf("trial %d step %d", trial, step), eng, live)
		}
	}
}

// TestRandomUpdateStreamNonLinear runs the same maintained-vs-recompute
// property over the NON-linear transitive closure (t joins t — the DRed
// regime where one deletion's overestimate cone fans out through derived
// facts on both join sides) plus a three-body join program, with the DRed
// accounting invariants checked after every update. Longer streams over a
// smaller node set drive the dead fraction up, so storage compaction fires
// inside the stream too.
func TestRandomUpdateStreamNonLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	progs := []string{
		`
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
`,
		`
tri(X,W) :- e(X,Y), g(Y,Z), e(Z,W).
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
`,
	}
	compacted := false
	for trial := 0; trial < 8; trial++ {
		src := progs[trial%len(progs)]
		r, db := load(t, src)
		eng, err := New(r.Program, db)
		if err != nil {
			t.Fatalf("trial %d: new: %v", trial, err)
		}
		nodes := 4
		var live []atom.Atom
		inLive := make(map[string]bool)
		mk := func() atom.Atom {
			preds := []string{"e", "g"}
			pid := r.Program.Reg.Intern(preds[rng.Intn(len(preds))], 2)
			return atom.New(pid,
				r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(nodes))),
				r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(nodes))))
		}
		for step := 0; step < 50; step++ {
			prev := eng.Stats()
			if len(live) == 0 || rng.Intn(2) == 0 {
				f := mk()
				if err := eng.Insert(f); err != nil {
					t.Fatalf("trial %d step %d: insert: %v", trial, step, err)
				}
				if k := atom.SortKey(f); !inLive[k] {
					inLive[k] = true
					live = append(live, f)
				}
			} else {
				i := rng.Intn(len(live))
				f := live[i]
				live = append(live[:i], live[i+1:]...)
				delete(inLive, atom.SortKey(f))
				if err := eng.Delete(f); err != nil {
					t.Fatalf("trial %d step %d: delete: %v", trial, step, err)
				}
			}
			label := fmt.Sprintf("trial %d step %d", trial, step)
			assertStatsConsistent(t, label, prev, eng.Stats())
			assertMatchesRecompute(t, label, eng, live)
		}
		if eng.Stats().Compacted > 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatalf("no trial ever compacted: the stream does not exercise reclamation")
	}
}
