// Package resolution implements the building blocks of the paper's proof
// trees (Section 4.1): chunk-based resolution (Definition 4.3), query
// specialization (Definition 4.5), and query decomposition (Definition
// 4.4), together with the canonical renaming of CQ states that the
// space-bounded algorithms of Section 4.3 rely on ("we should reuse
// variables that have been lost").
//
// Throughout this package, CQ states follow the convention of the §4.3
// algorithm: output variables have already been instantiated with the
// candidate constants c̄, so every remaining variable is existential and
// constants are rigid. A "shared" variable of a subset S of a query is one
// that also occurs outside S (Definition of chunk unifier, §4.1).
package resolution

import (
	"slices"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/term"
)

// State is a CQ state of the §4.3 algorithm: a set of atoms over constants
// and variables. The output tuple is implicit (already instantiated), so a
// State is just the atom set, kept deduplicated and canonically renamed.
type State struct {
	Atoms []atom.Atom
}

// NewState builds a state from atoms, deduplicating identical atoms.
func NewState(atoms []atom.Atom) State {
	return State{Atoms: dedup(slices.Clone(atoms))}
}

// dedup drops repeated atoms in place, keeping first occurrences in order.
func dedup(atoms []atom.Atom) []atom.Atom {
	out := atoms[:0]
	for _, a := range atoms {
		if !slices.ContainsFunc(out, a.Equal) {
			out = append(out, a)
		}
	}
	return out
}

// Size is the number of atoms — the node-width contribution |λ(v)| of this
// state (§4.2).
func (s State) Size() int { return len(s.Atoms) }

// Empty reports whether every atom has been discharged.
func (s State) Empty() bool { return len(s.Atoms) == 0 }

// Chunk is a most general chunk unifier (MGCU) of a state with a TGD
// (Definition of chunk unifier, §4.1), specialized to single-head TGDs:
// S1 is the subset of state atoms resolved together against the head.
type Chunk struct {
	// S1 holds indices into the state's atom slice.
	S1 []int
	// Gamma is the most general unifier of the chunk with the head: the
	// terms it binds, each with its image resolved through the chains.
	Gamma []Binding
}

// Binding is one term a chunk unifier binds and the term it resolves to.
type Binding struct{ From, To term.Term }

// MGCUs enumerates the most general chunk unifiers of the state with the
// (variable-renamed, single-head) TGD. For each non-empty subset S1 of
// state atoms sharing the head's predicate (at most maxChunk atoms;
// maxChunk ≤ 0 means unlimited), the candidate unifier γ must:
//
//	(1) map no existential variable of σ to a constant, and
//	(2) identify an existential variable only with non-shared variables
//	    of S1.
//
// Full subset enumeration is exponential in the number of same-predicate
// atoms; callers cap it. Size-1 chunks subsume larger ones for full TGDs
// (resolving one atom is more general, and the untouched copies discharge
// independently); multi-atom chunks matter for existential heads, where
// condition (2) forces the atoms sharing the existential's image to be
// resolved together — those chunks involve atoms overlapping on the
// existential position, and size 2 covers the pairwise interactions.
func MGCUs(s State, tgd *logic.TGD, maxChunk int) []Chunk {
	if len(tgd.Head) != 1 {
		panic("resolution: MGCUs requires single-head TGDs (apply analysis.SingleHead)")
	}
	head := tgd.Head[0]
	var cand []int
	for i, a := range s.Atoms {
		if a.Pred == head.Pred {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	if maxChunk <= 0 || maxChunk > len(cand) {
		maxChunk = len(cand)
	}
	ex := tgd.Existentials()
	var out []Chunk
	// Enumerate subsets of cand of size ≤ maxChunk incrementally, pruning
	// branches whose partial unifier already fails. One unifier g is
	// extended per atom and undone through the trail of the terms each
	// unification bound; an emitted chunk's unifier is the trail resolved.
	g := atom.NewSubst()
	var trail []term.Term
	var rec func(start int, s1 []int)
	rec = func(start int, s1 []int) {
		if len(s1) > 0 {
			if chunkConditions(s, s1, g, ex, tgd) {
				gamma := make([]Binding, len(trail))
				for k, v := range trail {
					gamma[k] = Binding{v, g.Apply(v)}
				}
				out = append(out, Chunk{S1: slices.Clone(s1), Gamma: gamma})
			}
		}
		if len(s1) == maxChunk {
			return
		}
		for bit := start; bit < len(cand); bit++ {
			i := cand[bit]
			mark := len(trail)
			if atom.UnifyAtomsTrail(g, s.Atoms[i], head, &trail) {
				rec(bit+1, append(s1, i))
			}
			for _, v := range trail[mark:] {
				delete(g, v)
			}
			trail = trail[:mark]
		}
	}
	rec(0, nil)
	return out
}

// chunkConditions checks conditions (1) and (2) on the unifier.
func chunkConditions(s State, s1 []int, g atom.Subst, ex map[term.Term]bool, tgd *logic.TGD) bool {
	if len(ex) == 0 {
		return true
	}
	inS1 := make(map[int]bool, len(s1))
	for _, i := range s1 {
		inS1[i] = true
	}
	// Variables of S1 and of the rest of the state.
	varsS1 := make(map[term.Term]bool)
	varsRest := make(map[term.Term]bool)
	for i, a := range s.Atoms {
		for _, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			if inS1[i] {
				varsS1[t] = true
			} else {
				varsRest[t] = true
			}
		}
	}
	shared := func(y term.Term) bool { return varsRest[y] }

	for x := range ex {
		rep := g.Apply(x)
		if rep.IsConst() {
			return false // condition (1)
		}
		// Condition (2): every query variable identified with x must occur
		// in S1 and be non-shared; every TGD variable identified with x
		// must be x itself (an existential cannot merge with a frontier
		// variable, which never occurs in S1).
		for y := range varsS1 {
			if g.Apply(y) == rep && shared(y) {
				return false
			}
		}
		for y := range varsRest {
			if g.Apply(y) == rep {
				return false // identified with a variable outside S1
			}
		}
		for y := range tgd.BodyVars() {
			if g.Apply(y) == rep {
				return false // identified with a frontier/body variable
			}
		}
	}
	return true
}

// Resolve applies a chunk unifier, producing the σ-resolvent state
// (Definition 4.3): γ((atoms(q) \ S1) ∪ body(σ)).
func Resolve(s State, tgd *logic.TGD, c Chunk) State {
	atoms := make([]atom.Atom, 0, len(s.Atoms)+len(tgd.Body))
	for i, a := range s.Atoms {
		if !slices.Contains(c.S1, i) {
			atoms = append(atoms, c.apply(a))
		}
	}
	for _, b := range tgd.Body {
		atoms = append(atoms, c.apply(b))
	}
	return State{Atoms: dedup(atoms)}
}

// apply returns atom a under the chunk's unifier.
func (c Chunk) apply(a atom.Atom) atom.Atom {
	args := slices.Clone(a.Args)
	for i, t := range args {
		for _, b := range c.Gamma {
			if b.From == t {
				args[i] = b.To
			}
		}
	}
	return atom.Atom{Pred: a.Pred, Args: args}
}

// Specializations enumerates the useful atom-merging specializations of the
// state (Definition 4.5 instances): unify two atoms with the same predicate
// so the state shrinks. Each result applies the MGU of one unifiable pair.
// (Bindings of variables to database constants — the other specialization
// the §4.3 algorithm guesses — happen during Discharge, where they are
// driven by index lookups instead of blind guessing.)
func Specializations(s State) []State {
	var out []State
	for i := 0; i < len(s.Atoms); i++ {
		for j := i + 1; j < len(s.Atoms); j++ {
			if s.Atoms[i].Pred != s.Atoms[j].Pred {
				continue
			}
			g := atom.NewSubst()
			if !atom.UnifyAtoms(g, s.Atoms[i], s.Atoms[j]) {
				continue
			}
			out = append(out, NewState(g.ApplyAtoms(s.Atoms)))
		}
	}
	return out
}

// Decompose splits the state into its variable-connected components
// (Definition 4.4 with the finest valid split): two atoms must stay
// together iff they share a variable (constants — frozen output values —
// may be separated). The components can be processed independently, which
// is what the alternating algorithm for WARD does.
func Decompose(s State) []State {
	n := len(s.Atoms)
	if n <= 1 {
		return []State{s}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	byVar := make(map[term.Term]int)
	for i, a := range s.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				if j, ok := byVar[t]; ok {
					union(i, j)
				} else {
					byVar[t] = i
				}
			}
		}
	}
	groups := make(map[int][]atom.Atom)
	var roots []int
	for i, a := range s.Atoms {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], a)
	}
	out := make([]State, 0, len(roots))
	for _, r := range roots {
		out = append(out, State{Atoms: groups[r]})
	}
	return out
}

// Canonical renames the state by c (atom.Canonicalizer): its atoms in
// canonical order over c's variable pool v0, v1, ..., and its memo key.
func Canonical(s State, c *atom.Canonicalizer) (State, string) {
	atoms, key := c.Canonical(s.Atoms)
	return State{Atoms: atoms}, key
}

// ApplyFlat applies a term-to-term mapping in a single step (no chain
// following), returning fresh atoms. Use for renamings whose target names
// may occur in the input.
func ApplyFlat(m map[term.Term]term.Term, atoms []atom.Atom) []atom.Atom {
	out := make([]atom.Atom, len(atoms))
	for i, a := range atoms {
		args := make([]term.Term, len(a.Args))
		for j, t := range a.Args {
			if r, ok := m[t]; ok {
				args[j] = r
			} else {
				args[j] = t
			}
		}
		out[i] = atom.Atom{Pred: a.Pred, Args: args}
	}
	return out
}
