package atom

import (
	"encoding/binary"
	"slices"
	"strconv"

	"repro/internal/term"
)

// Rank spaces: a renamed term is named by its rank, the order of its first
// occurrence, within its space. Signature words are tagged: a fresh term
// of space s is tag s, a rigid term tagRigid, a ranked one tagRigid+1+s.
const (
	spaceSkolem = iota
	spaceVar
	spaceNull
	tagRigid
)

// Canonicalizer names atom sequences up to renaming: §4.3 keeps a CQ state
// up to a renaming of its variables (and Theorem 6.3's translation also
// of the skolems standing for frozen outputs), and §7(1) treats triggers
// equal up to null renaming as one. Constants are rigid; variables,
// caller-designated skolems and nulls each get their own rank space.
//
// Canonical places atoms greedily, least signature first — the predicate,
// then per argument a word of a tag and a value (a rigid term, or a rank
// once placed) — ranking each placed atom's fresh terms. The order never
// depends on renamed terms' identities; a tie between equal signatures
// may split a class, which costs a memo re-exploration, never soundness.
//
// A key is the renamed atoms packed little-endian, 4 B per predicate and
// per argument (a predicate fixes its arity), written once into a reused
// buffer. A Canonicalizer is not safe for concurrent use.
type Canonicalizer struct {
	store   *term.Store
	ranked  [3]bool     // per term.Kind: is the kind renamed
	vars    []term.Term // the pool v0, v1, ..., interned on first use
	skolems []term.Term
	skolem  map[term.Term]bool

	// Scratch of the current call.
	order    []int       // atom indices in canonical order
	placed   []bool      // per atom
	off      []int32     // per atom: its first argument's index into slots
	slots    []int32     // per argument: index into terms, or -1 if rigid
	terms    []term.Term // distinct renamed terms
	space    []int8      // per term
	rank     []int32     // per term, -1 until placed
	next     [3]int32    // per space: the next rank
	concrete []term.Term // skolems in rank order
	args     []term.Term
	key      []byte
}

// NewCanonicalizer returns a canonicalizer of query states: variables are
// renamed to the pool v0, v1, ... interned in st, and the given skolem
// constants to skolems[0], skolems[1], ... in rank order. Other constants
// and nulls are rigid.
func NewCanonicalizer(st *term.Store, skolems []term.Term) *Canonicalizer {
	c := &Canonicalizer{store: st, ranked: [3]bool{term.Var: true}, skolems: skolems, skolem: make(map[term.Term]bool, len(skolems))}
	for _, s := range skolems {
		c.skolem[s] = true
	}
	return c
}

// NewNullCanonicalizer returns a canonicalizer of ground atom sequences:
// nulls are renamed to term.MkNull(rank), everything else is rigid.
func NewNullCanonicalizer() *Canonicalizer {
	return &Canonicalizer{ranked: [3]bool{term.Null: true}}
}

// Canonical returns the atoms in canonical order under the canonical
// renaming, and their key. The renamed atoms are fresh: one slice of
// atoms over one argument backing.
func (c *Canonicalizer) Canonical(atoms []Atom) ([]Atom, string) {
	c.index(atoms)
	c.order = c.order[:0]
	c.placed = slices.Grow(c.placed[:0], len(atoms))[:len(atoms)]
	clear(c.placed)
	for len(c.order) < len(atoms) {
		best := -1
		for i := range atoms {
			if !c.placed[i] && (best < 0 || c.less(atoms, i, best)) {
				best = i
			}
		}
		c.placed[best] = true
		c.order = append(c.order, best)
		c.place(atoms, best)
	}
	out := make([]Atom, len(atoms))
	args := make([]term.Term, 0, len(c.slots))
	for k, i := range c.order {
		from := len(args)
		args = c.rename(atoms, i, args)
		out[k] = Atom{Pred: atoms[i].Pred, Args: args[from:len(args):len(args)]}
	}
	return out, string(c.key)
}

// Key returns the key of the atoms in the order given, renamed terms
// ranked by first occurrence: the pattern of a trigger's body image,
// whose atom i is the image of body atom i.
func (c *Canonicalizer) Key(atoms []Atom) string {
	c.index(atoms)
	for i := range atoms {
		c.place(atoms, i)
		c.args = c.rename(atoms, i, c.args[:0])
	}
	return string(c.key)
}

// Skolems returns the skolems of the last call's atoms in rank order: the
// concrete skolem renamed to skolems[i] is at position i. The slice is
// scratch, valid until the next call.
func (c *Canonicalizer) Skolems() []term.Term { return c.concrete }

// index resets the scratch and gives every argument its slot.
func (c *Canonicalizer) index(atoms []Atom) {
	c.off, c.slots, c.terms, c.space, c.rank = c.off[:0], c.slots[:0], c.terms[:0], c.space[:0], c.rank[:0]
	c.concrete, c.key, c.next = c.concrete[:0], c.key[:0], [3]int32{}
	for _, a := range atoms {
		c.off = append(c.off, int32(len(c.slots)))
		for _, t := range a.Args {
			c.slots = append(c.slots, c.slotOf(t))
		}
	}
}

// slotOf returns t's index into the call's renamed terms, adding it on
// first sight, or -1 for a rigid term.
func (c *Canonicalizer) slotOf(t term.Term) int32 {
	sp := int8(spaceSkolem)
	if !c.skolem[t] {
		if !c.ranked[t.Kind()] {
			return -1
		}
		sp = spaceNull
		if t.IsVar() {
			sp = spaceVar
		}
	}
	for i, u := range c.terms {
		if u == t {
			return int32(i)
		}
	}
	c.terms, c.space, c.rank = append(c.terms, t), append(c.space, sp), append(c.rank, -1)
	return int32(len(c.terms) - 1)
}

// less compares the signatures of atoms i and j under the current ranks.
func (c *Canonicalizer) less(atoms []Atom, i, j int) bool {
	a, b := atoms[i], atoms[j]
	if a.Pred != b.Pred {
		return a.Pred < b.Pred
	}
	for k := 0; k < len(a.Args) && k < len(b.Args); k++ {
		wa, wb := c.word(a.Args[k], c.slots[int(c.off[i])+k]), c.word(b.Args[k], c.slots[int(c.off[j])+k])
		if wa != wb {
			return wa < wb
		}
	}
	return len(a.Args) < len(b.Args)
}

// word is an argument's signature word: tag<<32 | rigid term or rank.
func (c *Canonicalizer) word(t term.Term, s int32) uint64 {
	switch {
	case s < 0:
		return tagRigid<<32 | uint64(t)
	case c.rank[s] < 0:
		return uint64(c.space[s]) << 32
	}
	return uint64(tagRigid+1+c.space[s])<<32 | uint64(c.rank[s])
}

// place ranks the unranked renamed terms of atom i.
func (c *Canonicalizer) place(atoms []Atom, i int) {
	for j := range atoms[i].Args {
		s := c.slots[int(c.off[i])+j]
		if s < 0 || c.rank[s] >= 0 {
			continue
		}
		sp := c.space[s]
		c.rank[s] = c.next[sp]
		c.next[sp]++
		if sp == spaceSkolem {
			c.concrete = append(c.concrete, c.terms[s])
		}
	}
}

// rename appends atom i's renamed arguments to dst and the atom to the key.
func (c *Canonicalizer) rename(atoms []Atom, i int, dst []term.Term) []term.Term {
	c.key = binary.LittleEndian.AppendUint32(c.key, uint32(atoms[i].Pred))
	for j, t := range atoms[i].Args {
		if s := c.slots[int(c.off[i])+j]; s >= 0 {
			switch r := int(c.rank[s]); c.space[s] {
			case spaceSkolem:
				t = c.skolems[r]
			case spaceVar:
				for len(c.vars) <= r {
					c.vars = append(c.vars, c.store.Var("v"+strconv.Itoa(len(c.vars))))
				}
				t = c.vars[r]
			default:
				t = term.MkNull(uint32(r))
			}
		}
		c.key = binary.LittleEndian.AppendUint32(c.key, uint32(t))
		dst = append(dst, t)
	}
	return dst
}
