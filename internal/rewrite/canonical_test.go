package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/atom"
	"repro/internal/guide"
	"repro/internal/logic"
	"repro/internal/resolution"
	"repro/internal/schema"
	"repro/internal/term"
)

// TestCanonicalRenamingInvariance is the key property of the one
// canonical form, over its three rank spaces: an injective renaming of
// the renamed terms never changes what a state or trigger is named, and
// constants stay rigid.
//
//   - variables: a §4.3 search state keeps its resolution.Canonical key;
//     shuffling its atoms keeps it too when no two atoms tie structurally
//     (greedy tie-breaking is the one documented imperfection — it costs
//     re-exploration in a memo, never soundness);
//   - skolems: a translator state renamed in its variables and skolems
//     gets the same rewrite class, the class arguments of the two
//     instances correspond position by position under the renaming, and
//     put back into the class's state they give the instance;
//   - nulls: two body images equal up to null renaming share one trigger
//     pattern, while changing a constant or merging two nulls does not.
func TestCanonicalRenamingInvariance(t *testing.T) {
	prog := logic.NewProgram()
	st := prog.Store
	preds := []schema.PredID{prog.Reg.Intern("p", 2), prog.Reg.Intern("q", 3), prog.Reg.Intern("r", 1)}
	consts := []term.Term{st.Const("c1"), st.Const("c2")}
	vars := make([]term.Term, 5)
	for i := range vars {
		vars[i] = st.Var(fmt.Sprintf("A%d_rand", i))
	}
	nulls := []term.Term{term.MkNull(0), term.MkNull(1), term.MkNull(2), term.MkNull(3)}
	tr := newTranslator(prog, prog, 4, 1000, 4)
	rng := rand.New(rand.NewSource(23))

	// randAtoms draws 1 to 4 atoms whose arguments are a constant one time
	// in four and otherwise one of pool.
	randAtoms := func(pool []term.Term) []atom.Atom {
		var atoms []atom.Atom
		for i := 0; i < 1+rng.Intn(4); i++ {
			p := preds[rng.Intn(len(preds))]
			args := make([]term.Term, prog.Reg.Arity(p))
			for j := range args {
				if rng.Intn(4) == 0 {
					args[j] = consts[rng.Intn(len(consts))]
				} else {
					args[j] = pool[rng.Intn(len(pool))]
				}
			}
			atoms = append(atoms, atom.New(p, args...))
		}
		return resolution.NewState(atoms).Atoms
	}
	// permute maps the terms of from injectively onto a shuffle of onto.
	permute := func(ren map[term.Term]term.Term, from, onto []term.Term) {
		for i, j := range rng.Perm(len(onto))[:len(from)] {
			ren[from[i]] = onto[j]
		}
	}
	freshVars := func(trial int) []term.Term {
		out := make([]term.Term, len(vars))
		for i := range out {
			out[i] = st.Var(fmt.Sprintf("Z%d_%dfresh", i, trial))
		}
		return out
	}

	cases := []struct {
		space string
		check func(t *testing.T, trial int)
	}{
		{"variables", func(t *testing.T, trial int) {
			s := resolution.NewState(randAtoms(vars))
			ren := map[term.Term]term.Term{}
			permute(ren, vars, freshVars(trial))
			s2 := resolution.State{Atoms: resolution.ApplyFlat(ren, s.Atoms)}
			_, k1 := resolution.Canonical(s, atom.NewCanonicalizer(st, nil))
			_, k2 := resolution.Canonical(s2, atom.NewCanonicalizer(st, nil))
			if k1 != k2 {
				t.Fatalf("trial %d: key changed under injective renaming", trial)
			}
			if !structurallyDistinct(s.Atoms) {
				return
			}
			s3 := resolution.State{Atoms: append([]atom.Atom(nil), s2.Atoms...)}
			rng.Shuffle(len(s3.Atoms), func(a, b int) { s3.Atoms[a], s3.Atoms[b] = s3.Atoms[b], s3.Atoms[a] })
			if _, k3 := resolution.Canonical(s3, atom.NewCanonicalizer(st, nil)); k1 != k3 {
				t.Fatalf("trial %d: key changed under shuffle despite distinct structural keys", trial)
			}
		}},
		{"skolems", func(t *testing.T, trial int) {
			s := resolution.NewState(randAtoms(append(vars[:3:3], tr.skolems...)))
			ren := map[term.Term]term.Term{}
			permute(ren, vars, freshVars(trial))
			permute(ren, tr.skolems, tr.skolems)
			s2 := resolution.State{Atoms: resolution.ApplyFlat(ren, s.Atoms)}
			c1, args1, err := tr.classOf(s)
			if err != nil {
				t.Fatal(err)
			}
			c2, args2, err := tr.classOf(s2)
			if err != nil {
				t.Fatal(err)
			}
			if c1 != c2 {
				t.Fatalf("trial %d: renamed state got class %d, want %d", trial, c2.id, c1.id)
			}
			if len(args1) != len(c1.skolems) || len(args2) != len(args1) {
				t.Fatalf("trial %d: %d and %d class arguments for %d skolems", trial, len(args1), len(args2), len(c1.skolems))
			}
			for i := range args1 {
				if ren[args1[i]] != args2[i] {
					t.Fatalf("trial %d: class argument %d does not correspond under the renaming", trial, i)
				}
			}
			// Argument i stands for the class's skolem i: putting each
			// argument back into the class's state gives the instance up
			// to variable renaming (skolems rigid; compared when no greedy
			// tie can reorder the atoms).
			back := map[term.Term]term.Term{}
			for i, sk := range c1.skolems {
				back[sk] = args1[i]
			}
			if structurallyDistinct(s.Atoms) {
				inst := resolution.State{Atoms: resolution.ApplyFlat(back, c1.state.Atoms)}
				_, k1 := resolution.Canonical(inst, atom.NewCanonicalizer(st, nil))
				if _, k2 := resolution.Canonical(s, atom.NewCanonicalizer(st, nil)); k1 != k2 {
					t.Fatalf("trial %d: class arguments %v do not name the class's skolems", trial, args1)
				}
			}
		}},
		{"nulls", func(t *testing.T, trial int) {
			img := randAtoms(nulls)
			ren := map[term.Term]term.Term{}
			permute(ren, nulls, []term.Term{term.MkNull(10), term.MkNull(11), term.MkNull(12), term.MkNull(13)})
			memo := guide.NewTriggerMemo()
			if !memo.Admit(0, img) {
				t.Fatalf("trial %d: first trigger suppressed", trial)
			}
			if memo.Admit(0, resolution.ApplyFlat(ren, img)) {
				t.Fatalf("trial %d: image equal up to null renaming got a new pattern", trial)
			}
			for _, v := range variants(img, consts) {
				if !memo.Admit(0, v) {
					t.Fatalf("trial %d: a different constant or null-equality pattern shares the pattern", trial)
				}
				memo = guide.NewTriggerMemo()
				memo.Admit(0, img)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.space, func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				tc.check(t, trial)
			}
		})
	}
}

// structurallyDistinct reports whether no two atoms agree once every
// non-constant is blanked out.
func structurallyDistinct(atoms []atom.Atom) bool {
	seen := map[string]bool{}
	for _, a := range atoms {
		k := fmt.Sprint(a.Pred)
		for _, x := range a.Args {
			if x.IsConst() {
				k += fmt.Sprintf(",%d", x)
			} else {
				k += ",_"
			}
		}
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// variants returns copies of a ground image that differ from it in one
// constant, or in one null identified with another null of the image.
func variants(img []atom.Atom, consts []term.Term) [][]atom.Atom {
	var out [][]atom.Atom
	at := func(i, j int, x term.Term) []atom.Atom {
		cp := make([]atom.Atom, len(img))
		for k, a := range img {
			cp[k] = a.Clone()
		}
		cp[i].Args[j] = x
		return cp
	}
	var first term.Term
	for i, a := range img {
		for j, x := range a.Args {
			switch {
			case x.IsConst():
				other := consts[0]
				if x == other {
					other = consts[1]
				}
				out = append(out, at(i, j, other))
			case first == 0:
				first = x
			case x != first:
				out = append(out, at(i, j, first))
			}
		}
	}
	return out
}
