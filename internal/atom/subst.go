package atom

import (
	"repro/internal/term"
)

// Subst is a substitution from terms to terms (paper §2). Only variables —
// and, during chase-graph unravelling, nulls — are ever mapped; constants
// are always the identity. A nil Subst behaves as the identity.
type Subst map[term.Term]term.Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Apply resolves a single term through the substitution, following chains
// (x ↦ y, y ↦ c resolves x to c). Chains arise during unification; Resolve
// keeps application correct without eager path compression.
func (s Subst) Apply(t term.Term) term.Term {
	if s == nil {
		return t
	}
	seen := 0
	for {
		nxt, ok := s[t]
		if !ok || nxt == t {
			return t
		}
		t = nxt
		seen++
		if seen > len(s) {
			// A cycle among variables (x↦y, y↦x) denotes equality; return
			// the current representative rather than looping forever.
			return t
		}
	}
}

// ApplyAtom applies the substitution to every argument of the atom,
// returning a new atom.
func (s Subst) ApplyAtom(a Atom) Atom {
	args := make([]term.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Apply(t)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// ApplyAtoms applies the substitution to a set of atoms.
func (s Subst) ApplyAtoms(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = s.ApplyAtom(a)
	}
	return out
}

// Bind records t ↦ u. It refuses to bind constants (which must stay fixed)
// and reports whether the binding is consistent with existing entries.
func (s Subst) Bind(t, u term.Term) bool {
	if t.IsConst() {
		return t == u
	}
	cur := s.Apply(t)
	tgt := s.Apply(u)
	if cur == tgt {
		return true
	}
	if cur.IsVar() {
		s[cur] = tgt
		return true
	}
	if tgt.IsVar() {
		s[tgt] = cur
		return true
	}
	return false
}
