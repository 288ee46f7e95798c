package incremental

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/storage"
)

// assertMatchesEval checks the maintained instance against datalog.Eval's
// from-scratch materialization over the engine's own extensional facts.
func assertMatchesEval(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.DB().Verify(); err != nil {
		t.Fatal(err)
	}
	want, _, err := datalog.Eval(e.prog, e.Base(), datalog.Options{Stratify: true, BiasRecursiveAtom: true})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if got, want := sortedFacts(e.prog, e.DB()), sortedFacts(e.prog, want); !slices.Equal(got, want) {
		t.Fatalf("maintained %d facts, Eval %d", len(got), len(want))
	}
}

// sortedFacts renders db's live facts, sorted.
func sortedFacts(prog *logic.Program, db *storage.DB) []string {
	var out []string
	for _, a := range db.All() {
		out = append(out, a.String(prog.Store, prog.Reg))
	}
	sort.Strings(out)
	return out
}

// TestDeleteCycleWithoutOutsideSupportVanishes: facts on a cycle support
// each other, so a search that counted a fact on its own stack as support
// would keep them after their only support from outside the cycle is
// deleted. Each program's cycle must vanish entirely.
func TestDeleteCycleWithoutOutsideSupportVanishes(t *testing.T) {
	for _, tc := range []struct {
		name, src, del string
		gone, kept     []string
	}{{
		// The recursive atom on the right: proving t(b,s) recurses into
		// t(a,s) through e(b,a), and t(a,s) back into t(b,s) through e(a,b).
		name: "right-linear",
		src:  tcSrc + `e(a,b). e(b,a). e(b,s).`,
		del:  "e(b,s)",
		gone: []string{"t(a,s)", "t(b,s)"},
		kept: []string{"t(a,a)", "t(a,b)", "t(b,a)", "t(b,b)"},
	}, {
		// The recursive atom on the left, the deleted edge entering the
		// cycle: t(s,a) and t(s,b) each derive the other.
		name: "left-linear",
		src:  "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n" + `e(s,a). e(a,b). e(b,a).`,
		del:  "e(s,a)",
		gone: []string{"t(s,a)", "t(s,b)"},
		kept: []string{"t(a,a)", "t(a,b)", "t(b,a)", "t(b,b)"},
	}, {
		name: "non-linear",
		src:  "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), t(Y,Z).\n" + `e(s,a). e(a,b). e(b,a).`,
		del:  "e(s,a)",
		gone: []string{"t(s,a)", "t(s,b)"},
		kept: []string{"t(a,a)", "t(a,b)", "t(b,a)", "t(b,b)"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			r, db := load(t, tc.src)
			e, err := New(r.Program, db)
			if err != nil {
				t.Fatal(err)
			}
			// f is "p(x,y)"; has reports whether the instance holds it.
			has := func(f string) bool {
				x, y, _ := strings.Cut(f[2:len(f)-1], ",")
				if f[0] == 'e' {
					return e.DB().Contains(edge(r, x, y))
				}
				return e.DB().Contains(tFact(r, x, y))
			}
			x, y, _ := strings.Cut(tc.del[2:len(tc.del)-1], ",")
			if err := e.Delete(edge(r, x, y)); err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.gone {
				if has(f) {
					t.Errorf("%s survived the delete of its cycle's only outside support", f)
				}
			}
			for _, f := range tc.kept {
				if !has(f) {
					t.Errorf("%s lost", f)
				}
			}
			assertMatchesEval(t, e)
		})
	}
}

// TestDeleteUnsureRefutationIsRechecked: a refutation a cycle cut can be
// wrong, and so can one that leans on it. Deleting e(a,x) and e(d,w), the
// search proves t(a,z) — first trying a→b, where t(b,z) only leads back
// to t(a,z) on the stack and is refuted unsure, then a→c→z. t(b,z) stays
// live (b→a→c→z). Later t(d,z) loses d→w and its one other support runs
// through that live refuted t(b,z): the refutation is unsure, and phase 2
// must re-check and restore t(d,z); no restored body fact would reach it.
func TestDeleteUnsureRefutationIsRechecked(t *testing.T) {
	r, db := load(t, tcSrc+`e(a,x). e(x,z). e(a,b). e(a,c). e(c,z). e(b,a). e(d,w). e(w,z). e(d,b).`)
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatal(err)
	}
	// A round reaches heads rule by rule, each rule's through the listed
	// facts in order: e(a,x), listed first, reaches t(a,z) before e(d,w)
	// reaches t(d,z), so t(a,z)'s search refutes t(b,z) first.
	if err := e.Delete(edge(r, "a", "x"), edge(r, "d", "w")); err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2]string{{"a", "z"}, {"b", "z"}, {"d", "z"}} {
		if !e.DB().Contains(tFact(r, f[0], f[1])) {
			t.Errorf("t(%s,%s) lost", f[0], f[1])
		}
	}
	if st := e.Stats(); st.Rederived == 0 {
		t.Errorf("want t(d,z) rederived by the phase-2 re-check; stats = %+v", st)
	}
	assertMatchesEval(t, e)
}

// TestDeleteDeepProofLadder: two n-node paths merge at c, and a0 also has
// an edge into the second path's head. Deleting e(a0,a1) reaches t(a0,c),
// whose only proof runs the whole second path — n steps deep. The search
// keeps its own stack, so the depth costs memory proportional to it, not
// a Go stack, and the delete must keep t(a0,c) without deleting anything.
func TestDeleteDeepProofLadder(t *testing.T) {
	const n = 50000
	var src strings.Builder
	// Only facts towards the sink c are derived, so the closure is 2n
	// facts, not n².
	src.WriteString("t(X,Y) :- e(X,Y), sink(Y).\nt(X,Z) :- e(X,Y), t(Y,Z).\nsink(c).\n")
	for _, p := range []string{"a", "b"} {
		for i := 0; i+1 < n; i++ {
			fmt.Fprintf(&src, "e(%s%d,%s%d).\n", p, i, p, i+1)
		}
		fmt.Fprintf(&src, "e(%s%d,c).\n", p, n-1)
	}
	src.WriteString("e(a0,b0).\n")
	r, db := load(t, src.String())
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(edge(r, "a0", "a1")); err != nil {
		t.Fatal(err)
	}
	if !e.DB().Contains(tFact(r, "a0", "c")) {
		t.Fatal("t(a0,c) lost despite the path a0→b0→…→c")
	}
	if st := e.Stats(); st.Kept != 1 || st.Overdeleted != 0 || st.Rederived != 0 {
		t.Fatalf("want t(a0,c) kept and nothing overdeleted; stats = %+v", st)
	}
	if len(e.marks.touched) != 0 || len(e.search.goals) != 0 || len(e.search.cands) != 0 {
		t.Fatal("delete left marks or search state behind")
	}
	assertMatchesEval(t, e)
}

// TestDeleteBatchStreamMatchesRecompute: the stream property with the
// service's batch shape — up to four base facts inserted or deleted per
// update, absent ones mixed in — over small dense graphs (cycles
// everywhere, so cut and unsure refutations are common) and programs with
// intensional predicates in lower strata and in non-recursive joins.
func TestDeleteBatchStreamMatchesRecompute(t *testing.T) {
	progs := []string{
		tcSrc,
		"t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n",
		"t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), t(Y,Z).\n",
		"h(X,Y) :- e(X,Y).\nh(X,Y) :- g(X,Y).\nt(X,Y) :- h(X,Y).\nt(X,Z) :- h(X,Y), t(Y,Z).\n" +
			"u(X) :- t(X,X).\nv(X,Y) :- t(X,Y), u(Y).\nv(X,Z) :- v(X,Y), g(Y,Z).\n",
		tcSrc + "s(X,Y) :- t(X,Y), g(Y,X).\nw(X,Z) :- s(X,Y), t(Y,Z).\nw(X,Z) :- w(X,Y), s(Y,Z).\n",
	}
	var total Stats
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, db := load(t, progs[seed%int64(len(progs))])
		eng, err := New(r.Program, db)
		if err != nil {
			t.Fatal(err)
		}
		nodes := 3 + rng.Intn(6)
		mk := func() atom.Atom {
			pid := r.Program.Reg.Intern([]string{"e", "g"}[rng.Intn(2)], 2)
			return atom.New(pid,
				r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(nodes))),
				r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(nodes))))
		}
		var live []atom.Atom
		inLive := map[string]bool{}
		for step := 0; step < 40; step++ {
			var batch []atom.Atom
			if len(live) == 0 || rng.Intn(2) == 0 {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					f := mk()
					batch = append(batch, f)
					if key := atom.SortKey(f); !inLive[key] {
						inLive[key] = true
						live = append(live, f)
					}
				}
				err = eng.Insert(batch...)
			} else {
				for k := 1 + rng.Intn(4); k > 0 && len(live) > 0; k-- {
					i := rng.Intn(len(live))
					batch = append(batch, live[i])
					delete(inLive, atom.SortKey(live[i]))
					live = append(live[:i], live[i+1:]...)
				}
				if f := mk(); !inLive[atom.SortKey(f)] {
					batch = append(batch, f) // absent, or already in the batch
				}
				err = eng.Delete(batch...)
			}
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesRecompute(t, fmt.Sprintf("seed %d step %d", seed, step), eng, live)
		}
		st := eng.Stats()
		total.Kept += st.Kept
		total.Rederived += st.Rederived
	}
	// Both the check and its unsure fallback must have done work.
	if total.Kept == 0 || total.Rederived == 0 {
		t.Fatalf("stream never kept or never rederived a fact: %+v", total)
	}
}

// TestRederiveCycleReclaimsDeadRows: a stream that deletes and re-inserts
// the same two edges of the unsure ladder, so every delete rederives
// hundreds of facts. Each rederived fact lands as a fresh row beside its
// dead one; after every update the instance must pass Verify, equal a
// from-scratch recomputation, and hold at most twice its live facts
// physically — compaction reclaims what re-insertion leaves behind.
func TestRederiveCycleReclaimsDeadRows(t *testing.T) {
	var src strings.Builder
	src.WriteString(tcSrc)
	edges := unsureLadderEdges(12, 12)
	for _, ed := range edges {
		fmt.Fprintf(&src, "e(%s,%s).\n", ed[0], ed[1])
	}
	r, db := load(t, src.String())
	var live []atom.Atom
	for _, ed := range edges {
		live = append(live, edge(r, ed[0], ed[1]))
	}
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatal(err)
	}
	cut := []atom.Atom{edge(r, "a", "x"), edge(r, "d", "w")}
	rest := live[:0:0]
	for _, f := range live {
		if !f.Equal(cut[0]) && !f.Equal(cut[1]) {
			rest = append(rest, f)
		}
	}
	check := func(label string, want []atom.Atom) {
		t.Helper()
		assertMatchesRecompute(t, label, e, want)
		if n, phys := e.DB().Len(), e.DB().PhysicalLen(); phys > 2*n {
			t.Fatalf("%s: %d rows stored for %d live facts", label, phys, n)
		}
	}
	for i := 0; i < 40; i++ {
		before := e.Stats().Rederived
		if err := e.Delete(cut...); err != nil {
			t.Fatal(err)
		}
		if e.Stats().Rederived == before {
			t.Fatalf("delete %d rederived nothing", i)
		}
		check(fmt.Sprintf("delete %d", i), rest)
		if err := e.Insert(cut...); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("insert %d", i), live)
	}
	if e.Stats().Compacted == 0 {
		t.Fatal("the stream never compacted")
	}
	assertMatchesEval(t, e)
}
