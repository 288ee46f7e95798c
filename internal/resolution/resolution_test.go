package resolution

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/parser"
)

func TestMGCUBasicResolution(t *testing.T) {
	// Query atom t(a, X); TGD t(U,V) :- e(U,V). One chunk unifier.
	r := parser.MustParse(`
t(U,V) :- e(U,V).
?(X) :- t(a,X).
`)
	tgd := r.Program.TGDs[0]
	st := NewState(r.Queries[0].Atoms)
	chunks := MGCUs(st, tgd, 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(chunks))
	}
	res := Resolve(st, tgd, chunks[0])
	if res.Size() != 1 {
		t.Fatalf("resolvent size = %d, want 1", res.Size())
	}
	e, _ := r.Program.Reg.Lookup("e")
	if res.Atoms[0].Pred != e {
		t.Fatalf("resolvent should be over e")
	}
	// The constant a must survive into the resolvent.
	if !res.Atoms[0].Args[0].IsConst() {
		t.Fatalf("constant lost in resolution")
	}
}

func TestMGCUNoPredicateMatch(t *testing.T) {
	r := parser.MustParse(`
t(U,V) :- e(U,V).
?(X) :- s(a,X).
`)
	st := NewState(r.Queries[0].Atoms)
	if got := MGCUs(st, r.Program.TGDs[0], 0); got != nil {
		t.Fatalf("no chunk unifier should exist: %v", got)
	}
}

// The paper's unsoundness example (§4.1): Q(x) ← R(x,y), S(y) with TGD
// P(x') → ∃y' R(x',y'): resolving R(x,y) alone would lose the shared
// variable y; the chunk conditions must reject it.
func TestChunkConditionRejectsSharedExistential(t *testing.T) {
	r := parser.MustParse(`
r(U,W) :- p(U).
?(X) :- r(X,Y), s(Y).
`)
	tgd := r.Program.TGDs[0] // r(U,W) :- p(U), W existential
	if len(tgd.Existentials()) != 1 {
		t.Fatalf("W must be existential")
	}
	st := NewState(r.Queries[0].Atoms)
	chunks := MGCUs(st, tgd, 0)
	if len(chunks) != 0 {
		t.Fatalf("unsound resolution step admitted: %d chunks", len(chunks))
	}
}

// The paper's companion example: with TGD P(x') → ∃y' R(x',y'), S(y')
// (two-atom head — after single-head normalization both atoms route
// through an aux predicate) the whole chunk R(x,y), S(y) can be resolved.
// Here we emulate with a single-head equivalent: both query atoms unify
// against the same head atom.
func TestChunkUnifierMergesAtoms(t *testing.T) {
	r := parser.MustParse(`
r(U,W) :- p(U).
?() :- r(a,Y), r(a,Z).
`)
	// Wait: ?() with no outputs — Y, Z both non-shared. Both atoms can be
	// resolved either separately or as one chunk.
	st := NewState(r.Queries[0].Atoms)
	tgd := r.Program.TGDs[0]
	chunks := MGCUs(st, tgd, 0)
	// Subsets: {0}, {1}, {0,1} — all should satisfy the chunk conditions
	// (Y and Z are non-shared within their respective S1 choices... except
	// when resolving one atom alone, the other atom does not mention Y).
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	for _, ch := range chunks {
		res := Resolve(st, tgd, ch)
		if res.Size() > 2 {
			t.Fatalf("resolvent too large: %d", res.Size())
		}
	}
}

func TestChunkConditionRejectsConstantExistential(t *testing.T) {
	r := parser.MustParse(`
r(U,W) :- p(U).
?() :- r(X,b).
`)
	st := NewState(r.Queries[0].Atoms)
	chunks := MGCUs(st, r.Program.TGDs[0], 0)
	if len(chunks) != 0 {
		t.Fatalf("existential unified with constant must be rejected")
	}
}

func TestMGCUPanicsOnMultiHead(t *testing.T) {
	r := parser.MustParse(`
a(X), b(X) :- c(X).
?() :- a(Y).
`)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on multi-head TGD")
		}
	}()
	MGCUs(NewState(r.Queries[0].Atoms), r.Program.TGDs[0], 0)
}

func TestSpecializationsMergePairs(t *testing.T) {
	r := parser.MustParse(`?() :- t(X,a), t(b,Y), s(X).`)
	st := NewState(r.Queries[0].Atoms)
	sps := Specializations(st)
	if len(sps) != 1 {
		t.Fatalf("specializations = %d, want 1 (the t-pair)", len(sps))
	}
	if sps[0].Size() != 2 {
		t.Fatalf("merged state size = %d, want 2", sps[0].Size())
	}
}

func TestSpecializationsRespectConstants(t *testing.T) {
	r := parser.MustParse(`?() :- t(a,X), t(b,X).`)
	st := NewState(r.Queries[0].Atoms)
	if sps := Specializations(st); len(sps) != 0 {
		t.Fatalf("clashing constants must not merge: %d", len(sps))
	}
}

func TestDecomposeComponents(t *testing.T) {
	r := parser.MustParse(`?() :- e(X,Y), f(Y), g(Z), h(a).`)
	st := NewState(r.Queries[0].Atoms)
	comps := Decompose(st)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 ({e,f}, {g}, {h})", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[c.Size()]++
	}
	if sizes[2] != 1 || sizes[1] != 2 {
		t.Fatalf("component sizes wrong: %v", sizes)
	}
}

func TestDecomposeSingleton(t *testing.T) {
	r := parser.MustParse(`?() :- e(X,Y).`)
	st := NewState(r.Queries[0].Atoms)
	if comps := Decompose(st); len(comps) != 1 {
		t.Fatalf("singleton should not split")
	}
}

func TestCanonicalIsomorphicStates(t *testing.T) {
	r := parser.MustParse(`
?() :- e(X,Y), f(Y).
?() :- e(U,V), f(V).
?() :- e(U,V), f(U).
`)
	st := r.Program.Store
	_, k1 := Canonical(NewState(r.Queries[0].Atoms), atom.NewCanonicalizer(st, nil))
	_, k2 := Canonical(NewState(r.Queries[1].Atoms), atom.NewCanonicalizer(st, nil))
	_, k3 := Canonical(NewState(r.Queries[2].Atoms), atom.NewCanonicalizer(st, nil))
	if k1 != k2 {
		t.Fatalf("isomorphic states got different keys:\n%q\n%q", k1, k2)
	}
	if k1 == k3 {
		t.Fatalf("non-isomorphic states share a key: %q", k1)
	}
}

func TestCanonicalAtomOrderInvariance(t *testing.T) {
	r := parser.MustParse(`
?() :- f(Y), e(X,Y).
?() :- e(X,Y), f(Y).
`)
	st := r.Program.Store
	_, k1 := Canonical(NewState(r.Queries[0].Atoms), atom.NewCanonicalizer(st, nil))
	_, k2 := Canonical(NewState(r.Queries[1].Atoms), atom.NewCanonicalizer(st, nil))
	if k1 != k2 {
		t.Fatalf("atom order changed the canonical key")
	}
}

func TestCanonicalConstantsRigid(t *testing.T) {
	r := parser.MustParse(`
?() :- e(a,X).
?() :- e(b,X).
`)
	st := r.Program.Store
	_, k1 := Canonical(NewState(r.Queries[0].Atoms), atom.NewCanonicalizer(st, nil))
	_, k2 := Canonical(NewState(r.Queries[1].Atoms), atom.NewCanonicalizer(st, nil))
	if k1 == k2 {
		t.Fatalf("different constants must yield different keys")
	}
}

func TestStateDedup(t *testing.T) {
	r := parser.MustParse(`?() :- e(X,Y), e(X,Y).`)
	st := NewState(r.Queries[0].Atoms)
	if st.Size() != 1 {
		t.Fatalf("duplicate atoms must collapse: %d", st.Size())
	}
}

func TestResolveRemovesWholeChunk(t *testing.T) {
	// Both query atoms resolve against the head in one chunk; resolvent is
	// just the body.
	r := parser.MustParse(`
t(U,V) :- e(U,V).
?() :- t(X,Y), t(X,Y).
`)
	st := NewState(r.Queries[0].Atoms) // dedups to 1 atom
	chunks := MGCUs(st, r.Program.TGDs[0], 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	res := Resolve(st, r.Program.TGDs[0], chunks[0])
	if res.Size() != 1 {
		t.Fatalf("resolvent = %d atoms", res.Size())
	}
}

func TestSubstApplicationInResolve(t *testing.T) {
	// Resolving t(a,X),s(X) via t(U,V) :- e(U,V) must propagate V=X
	// binding into the kept atom s(X)? No: γ maps U→a, V~X; the kept atom
	// s(X) is rewritten by γ, staying s(X) or s(V) — either way connected
	// to the new body atom e(a, ·).
	r := parser.MustParse(`
t(U,V) :- e(U,V).
?() :- t(a,X), s(X).
`)
	st := NewState(r.Queries[0].Atoms)
	chunks := MGCUs(st, r.Program.TGDs[0], 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	res := Resolve(st, r.Program.TGDs[0], chunks[0])
	if res.Size() != 2 {
		t.Fatalf("resolvent size = %d", res.Size())
	}
	// The e-atom and the s-atom must share a variable.
	vs0 := atom.VarSet(res.Atoms[:1])
	shared := false
	for _, a := range res.Atoms[1:] {
		for _, x := range a.Args {
			if x.IsVar() && vs0[x] {
				shared = true
			}
		}
	}
	if !shared {
		t.Fatalf("resolution lost the connection between atoms: %v", res.Atoms)
	}
}
