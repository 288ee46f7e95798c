package ucq

import (
	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/term"
)

// Member is one conjunctive query of an unfolding. Its variables live in
// a local name space (term.MkVar of small IDs, never interned), so they
// render nowhere; they only key a compiled plan's slots. Params[i] is the
// term the goal's i-th parameter became: a variable of CQ, or a constant
// of a rule head the parameter unified with (the member then answers only
// when the parameter takes that value).
type Member struct {
	CQ     *logic.CQ
	Params []term.Term
}

// Limits bounds an unfolding's search: Members the union's members,
// Atoms the atoms of all members together, Steps the rule heads tried
// against an atom. The atom bound counts a member in the making too, so
// it also bounds the search's depth. Zero leaves a bound off. Without
// the atom and step bounds a short program can ask for an exponential
// union: a chain of views, each joining two copies of the one below,
// doubles the member's atoms per level.
type Limits struct{ Members, Atoms, Steps int }

// Unfold is the Datalog case of Thm 4.7. Over positive full single-head
// rules that do not recurse, resolving each atom of a rule-defined
// predicate against every rule whose head unifies with it saturates: the
// closure is the finite UCQ q_Σ of the goal's unfoldings, and
// cert(q, D, Σ) = q_Σ(D) on every instance D. Unlike Rewrite, which
// freezes the output variables and so cannot unify two of them, or one
// with a rule constant, Unfold keeps every goal term a variable until the
// unfolding is done.
//
// The goal's constant occurrences, atom by atom and argument by argument,
// are parameters: each becomes a variable, and the members report what
// it unified with, so one unfolding serves every constant of the goal
// shape. Output constants stay constants.
//
// An atom of a predicate with rules is also kept as itself (a stored
// atom, its predicate holding facts of its own) when stored reports the
// predicate; otherwise only its rules define it. Unfold reports false
// when a rule is not positive full single-head, when the rules reachable
// from the goal recurse, or when the search passes a bound of lim; an
// empty union (no unfolding unifies) is a true result.
func Unfold(rules []*logic.TGD, q *logic.CQ, stored func(schema.PredID) bool, lim Limits) ([]Member, bool) {
	u := &unfolder{rules: make(map[schema.PredID][]*logic.TGD), stored: stored, lim: lim}
	for _, t := range rules {
		if len(t.Head) != 1 || t.HasNegation() || !t.IsFull() {
			return nil, false
		}
		u.rules[t.Head[0].Pred] = append(u.rules[t.Head[0].Pred], t)
	}
	state := make(map[schema.PredID]uint8) // 1: on the DFS path, 2: checked
	var acyclic func(p schema.PredID) bool
	acyclic = func(p schema.PredID) bool {
		switch state[p] {
		case 1:
			return false
		case 2:
			return true
		}
		state[p] = 1
		for _, t := range u.rules[p] {
			for _, a := range t.Body {
				if !acyclic(a.Pred) {
					return false
				}
			}
		}
		state[p] = 2
		return true
	}
	// The goal in the local name space: its variables renamed, its
	// constant occurrences replaced by parameter variables.
	local := u.renamer()
	goal := make([]atom.Atom, len(q.Atoms)) // a stack: the first atom on top
	for i, a := range q.Atoms {
		if !acyclic(a.Pred) {
			return nil, false
		}
		g := atom.Atom{Pred: a.Pred, Args: make([]term.Term, len(a.Args))}
		for j, x := range a.Args {
			if x.IsVar() {
				g.Args[j] = local(x)
			} else {
				g.Args[j] = u.fresh()
				u.params = append(u.params, g.Args[j])
			}
		}
		goal[len(q.Atoms)-1-i] = g
	}
	u.output = make([]term.Term, len(q.Output))
	for i, x := range q.Output {
		u.output[i] = local(x)
	}
	u.pending, u.s = goal, atom.NewSubst()
	if !u.expand() {
		return nil, false
	}
	return u.members, true
}

type unfolder struct {
	rules   map[schema.PredID][]*logic.TGD
	stored  func(schema.PredID) bool
	lim     Limits
	next    uint32
	params  []term.Term
	output  []term.Term
	members []Member
	atoms   int // of the members so far
	steps   int

	// The search state, extended and undone in place: the atoms kept
	// so far, the atoms left to resolve (a stack, the next on top), and
	// one substitution with the trail of the variables it bound.
	done    []atom.Atom
	pending []atom.Atom
	s       atom.Subst
	trail   []term.Term
}

func (u *unfolder) fresh() term.Term {
	u.next++
	return term.MkVar(u.next - 1)
}

// expand resolves the pending atoms, the top first, appending a member
// per complete unfolding, and leaves the search state as it found it; it
// reports false once the search passes a bound.
func (u *unfolder) expand() bool {
	n := len(u.pending)
	if n == 0 {
		if over(len(u.members)+1, u.lim.Members) {
			return false
		}
		u.atoms += len(u.done)
		m := Member{CQ: &logic.CQ{Atoms: u.s.ApplyAtoms(u.done), Output: make([]term.Term, len(u.output))}}
		for i, x := range u.output {
			m.CQ.Output[i] = u.s.Apply(x)
		}
		for _, p := range u.params {
			m.Params = append(m.Params, u.s.Apply(p))
		}
		u.members = append(u.members, m)
		return true
	}
	a := u.pending[n-1]
	u.pending = u.pending[:n-1]
	rules := u.rules[a.Pred]
	if len(rules) == 0 || u.stored(a.Pred) {
		if over(u.atoms+len(u.done)+1, u.lim.Atoms) {
			return false
		}
		u.done = append(u.done, a)
		if !u.expand() {
			return false
		}
		u.done = u.done[:len(u.done)-1]
	}
	for _, t := range rules {
		if u.steps++; over(u.steps, u.lim.Steps) {
			return false
		}
		head, body := u.rename(t)
		mark := len(u.trail)
		if atom.UnifyAtomsTrail(u.s, a, head, &u.trail) {
			for i := len(body) - 1; i >= 0; i-- {
				u.pending = append(u.pending, body[i])
			}
			if !u.expand() {
				return false
			}
			u.pending = u.pending[:n-1]
		}
		for _, v := range u.trail[mark:] {
			delete(u.s, v)
		}
		u.trail = u.trail[:mark]
	}
	u.pending = append(u.pending, a)
	return true
}

// over reports whether n passes the bound max, zero being none.
func over(n, max int) bool { return max > 0 && n > max }

// renamer returns a renaming into fresh local variables: the same
// variable to the same one, any other term to itself.
func (u *unfolder) renamer() func(term.Term) term.Term {
	m := make(map[term.Term]term.Term)
	return func(x term.Term) term.Term {
		if !x.IsVar() {
			return x
		}
		v, ok := m[x]
		if !ok {
			v = u.fresh()
			m[x] = v
		}
		return v
	}
}

// rename returns the rule's head and body over fresh local variables.
func (u *unfolder) rename(t *logic.TGD) (atom.Atom, []atom.Atom) {
	f := u.renamer()
	ren := func(a atom.Atom) atom.Atom {
		out := atom.Atom{Pred: a.Pred, Args: make([]term.Term, len(a.Args))}
		for i, x := range a.Args {
			out.Args[i] = f(x)
		}
		return out
	}
	body := make([]atom.Atom, len(t.Body))
	for i, a := range t.Body {
		body[i] = ren(a)
	}
	return ren(t.Head[0]), body
}
