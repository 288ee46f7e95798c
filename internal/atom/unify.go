package atom

import (
	"repro/internal/term"
)

// UnifyTerms extends the substitution s so that it unifies t and u, treating
// constants as rigid and both variables and nulls as unifiable placeholders.
// It reports whether unification succeeded; on failure s may be partially
// extended (callers clone, or undo a trail, when they need rollback).
//
// Nulls unify like variables here because chase-graph unravelling (paper
// §4.2) renames nulls, and the homomorphism machinery treats them as
// flexible; callers that require null-rigidity use MatchTerms instead.
func UnifyTerms(s Subst, t, u term.Term) bool {
	return unifyTerms(s, t, u, nil)
}

// unifyTerms is UnifyTerms that appends the term it binds to *trail when
// trail is not nil. The bound term is the end of its chain (Apply's
// fixed point), so it had no binding before.
func unifyTerms(s Subst, t, u term.Term, trail *[]term.Term) bool {
	t = s.Apply(t)
	u = s.Apply(u)
	if t == u {
		return true
	}
	switch {
	case t.IsVar():
	case u.IsVar():
		t, u = u, t
	case t.IsNull():
	case u.IsNull():
		t, u = u, t
	default: // two distinct constants
		return false
	}
	s[t] = u
	if trail != nil {
		*trail = append(*trail, t)
	}
	return true
}

// UnifyAtoms extends s to unify atoms a and b argument-wise. The predicates
// must match exactly.
func UnifyAtoms(s Subst, a, b Atom) bool {
	return UnifyAtomsTrail(s, a, b, nil)
}

// UnifyAtomsTrail is UnifyAtoms that appends every term it binds to
// *trail, on failure too. Each of them was unbound, so deleting them from
// s undoes the unification: a search can extend one substitution and
// undo, instead of cloning it per attempt.
func UnifyAtomsTrail(s Subst, a, b Atom, trail *[]term.Term) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !unifyTerms(s, a.Args[i], b.Args[i], trail) {
			return false
		}
	}
	return true
}

// MatchTerm extends s to match pattern term p against ground term g, where
// only variables in the pattern may be bound (constants and nulls in the
// pattern are rigid). This is one-way matching, the building block of
// homomorphism search.
func MatchTerm(s Subst, p, g term.Term) bool {
	p = s.Apply(p)
	if p.IsVar() {
		s[p] = g
		return true
	}
	return p == g
}

// MatchAtom extends s to match pattern atom pa against ground atom ga.
func MatchAtom(s Subst, pa, ga Atom) bool {
	if pa.Pred != ga.Pred || len(pa.Args) != len(ga.Args) {
		return false
	}
	for i := range pa.Args {
		if !MatchTerm(s, pa.Args[i], ga.Args[i]) {
			return false
		}
	}
	return true
}
