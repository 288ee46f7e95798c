// Package atom defines relational atoms and facts, substitutions over terms,
// homomorphisms between atom sets, and most-general-unifier computation.
// These are the basic objects of Section 2 of the paper.
package atom

import (
	"strings"

	"repro/internal/schema"
	"repro/internal/term"
)

// Atom is a relational atom R(t1,...,tn). Facts are atoms whose arguments
// are all constants; chase-produced atoms may also carry labeled nulls;
// rule and query atoms carry variables.
type Atom struct {
	Pred schema.PredID
	Args []term.Term
}

// New builds an atom.
func New(pred schema.PredID, args ...term.Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Clone returns a deep copy of the atom (fresh argument slice).
func (a Atom) Clone() Atom {
	args := make([]term.Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports whether two atoms are identical.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// IsGround reports whether the atom contains no variables (constants and
// nulls are both allowed — this is the notion of instance atom).
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars appends the variables of a (with duplicates) to dst and returns it.
func (a Atom) Vars(dst []term.Term) []term.Term {
	for _, t := range a.Args {
		if t.IsVar() {
			dst = append(dst, t)
		}
	}
	return dst
}

// Hash returns an FNV-1a style hash of the atom, suitable for dedup tables.
func (a Atom) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h ^= uint64(a.Pred)
	h *= prime
	for _, t := range a.Args {
		h ^= uint64(t)
		h *= prime
	}
	return h
}

// String renders the atom using the given naming context.
func (a Atom) String(st *term.Store, reg *schema.Registry) string {
	var b strings.Builder
	b.WriteString(reg.Name(a.Pred))
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(st.Name(t))
	}
	b.WriteByte(')')
	return b.String()
}

// VarSet returns the set of variables occurring in the atom set.
func VarSet(atoms []Atom) map[term.Term]bool {
	vs := make(map[term.Term]bool)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				vs[t] = true
			}
		}
	}
	return vs
}

// SortKey gives a deterministic ordering key for atoms with identical
// naming context; used to canonicalize atom sets in reports and tests.
func SortKey(a Atom) string {
	var b strings.Builder
	b.WriteString(string(rune(a.Pred)))
	for _, t := range a.Args {
		b.WriteByte(byte(t.Kind()))
		b.WriteString(string(rune(t.ID())))
	}
	return b.String()
}
