// Package term defines the term universe of the reasoner: constants,
// variables, and labeled nulls, together with an interning store that maps
// constant and variable names to compact numeric identifiers.
//
// The paper ("The Space-Efficient Core of Vadalog", PODS 2019, Section 2)
// works over three disjoint countably infinite sets: constants C, labeled
// nulls N, and variables V. Go has no algebraic data types, so a term is
// one uint32 packing its kind (top two bits) and its ID (low 30 bits); all
// name information lives in a Store. This keeps atoms flat, comparable
// with ==, and cheap to hash, and a stored term 4 bytes — essential for
// the chase and the proof-tree search, which keep millions of terms live,
// and for storage, whose term columns are most of an instance's bytes.
package term

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/intern"
)

// Kind discriminates the three disjoint sorts of terms.
type Kind uint8

const (
	// Const is a constant of C (interned in a Store).
	Const Kind = iota
	// Var is a variable of V (interned in a Store).
	Var
	// Null is a labeled null of N (generated by chase steps; never interned,
	// the ID is the label).
	Null
)

// String returns a human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case Const:
		return "const"
	case Var:
		return "var"
	case Null:
		return "null"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Term is a single term: a constant, a variable, or a labeled null, packed
// as kind<<30 | ID. Const is kind 0, so a constant is its ID, and the
// packed order is the (kind, ID) order. The zero value is the constant
// with ID 0 of whatever Store is in scope. Terms are pure values: they can
// be compared with == and used as map keys.
type Term uint32

const idBits = 30

// MaxID is the largest ID a term carries: a Store holds at most MaxID+1
// constants, MaxID+1 variables and MaxID+1 nulls.
const MaxID = 1<<idBits - 1

// ErrIDSpace reports that a Store has no ID left for a new name or null.
var ErrIDSpace = errors.New("term: ID space exhausted (2^30 names of one kind)")

// Kind returns the term's sort.
func (t Term) Kind() Kind { return Kind(t >> idBits) }

// ID returns the term's intern ID (a null's label).
func (t Term) ID() uint32 { return uint32(t) & MaxID }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t>>idBits == Term(Const) }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t>>idBits == Term(Var) }

// IsNull reports whether t is a labeled null.
func (t Term) IsNull() bool { return t>>idBits == Term(Null) }

// Key returns the term as a map key or hash input: the term itself, so a
// constant's key is its ID. Distinct terms have distinct keys.
func (t Term) Key() uint32 { return uint32(t) }

// MkConst builds a constant term with the given intern ID (at most MaxID).
func MkConst(id uint32) Term { return Term(id) }

// MkVar builds a variable term with the given intern ID (at most MaxID).
func MkVar(id uint32) Term { return Term(Var)<<idBits | Term(id) }

// MkNull builds a labeled null with the given label (at most MaxID).
func MkNull(label uint32) Term { return Term(Null)<<idBits | Term(label) }

// names interns one sort of names: a striped name→ID map with a lock-free
// read path plus a chunked append-only ID→entry arena (see internal/intern).
// IDs stay dense and sequential in first-intern order — exactly the
// assignment a single-threaded map-plus-slice store produces — so columnar
// storage indexed by ID and ID-ordered deterministic outputs are untouched
// by the concurrency rework. The map keys on the entry's own copy of the
// name, so each name's bytes are stored once.
type names struct {
	ids   *intern.Map
	arena *intern.Arena[entry]
}

func newNames() names {
	return names{ids: intern.NewMap(), arena: intern.NewArena[entry]()}
}

// intern returns name's ID, assigning the next dense ID if absent, and
// whether this call created it. A new name past MaxID is ErrIDSpace: it
// is refused before an ID is minted, so the arena never holds one.
func (n *names) intern(name string) (uint32, bool, error) {
	id, isNew, ok := n.ids.Intern(name, func() (uint32, string, bool) {
		e := newEntry(name)
		id, ok := n.arena.Append(e, MaxID+1)
		return id, e.name(), ok
	})
	if !ok {
		return 0, false, ErrIDSpace
	}
	return id, isNew, nil
}

// Store interns constant and variable names. A Store is the naming context
// for one reasoning session: all atoms of one database / program must share
// one Store. The zero value is not ready for use; call NewStore.
//
// Store is safe for concurrent use: interning, lookup, and rendering may
// race freely across goroutines (the service's bulk loads intern while
// queries parse and render). Interning the same name concurrently from
// many goroutines yields one stable ID; already-interned names resolve on
// a lock-free read path.
type Store struct {
	consts   names
	vars     names
	nextNull atomic.Uint32
}

// NewStore returns an empty interning store.
func NewStore() *Store {
	return &Store{consts: newNames(), vars: newNames()}
}

// Const interns the constant name and returns its term. Interning the same
// name twice yields the same term. It panics with ErrIDSpace where
// InternConst, which paths interning input (text, CSV, log replay) call,
// returns it.
func (s *Store) Const(name string) Term { return must(s.InternConst(name)) }

// Var is Const for a variable name.
func (s *Store) Var(name string) Term { return must(s.InternVar(name)) }

// InternConst interns the constant name and returns its term, or
// ErrIDSpace when the name is new and the store already holds MaxID+1
// constants.
func (s *Store) InternConst(name string) (Term, error) {
	id, _, err := s.consts.intern(name)
	return MkConst(id), err
}

// InternVar is InternConst for a variable name.
func (s *Store) InternVar(name string) (Term, error) {
	id, _, err := s.vars.intern(name)
	return MkVar(id), err
}

func must(t Term, err error) Term {
	if err != nil {
		panic(err)
	}
	return t
}

// FreshVar interns a new variable whose name does not clash with any interned
// variable, using the given prefix. Concurrent FreshVar calls return
// distinct variables: freshness is decided by winning the intern race, not
// by observing a count.
func (s *Store) FreshVar(prefix string) (Term, error) {
	for i := s.vars.arena.Len(); ; i++ {
		if id, isNew, err := s.vars.intern(prefix + strconv.Itoa(i)); isNew || err != nil {
			return MkVar(id), err
		}
	}
}

// FreshNull returns a fresh labeled null, never returned before by this
// store, or ErrIDSpace once MaxID+1 nulls have been issued. Nulls model
// the existential witnesses invented by chase steps.
func (s *Store) FreshNull() (Term, error) {
	for n := s.nextNull.Load(); n <= MaxID; n = s.nextNull.Load() {
		if s.nextNull.CompareAndSwap(n, n+1) {
			return MkNull(n), nil
		}
	}
	return 0, ErrIDSpace
}

// NullCount reports how many nulls this store has generated.
func (s *Store) NullCount() int { return int(s.nextNull.Load()) }

// NumConsts reports how many constants are interned.
func (s *Store) NumConsts() int { return s.consts.arena.Len() }

// NumVars reports how many variables are interned.
func (s *Store) NumVars() int { return s.vars.arena.Len() }

// HasConst reports whether the constant name is interned, and its term.
func (s *Store) HasConst(name string) (Term, bool) {
	id, ok := s.consts.ids.Lookup(name)
	return MkConst(id), ok
}

// Name renders a term using this store's name tables. Nulls render as
// "_:nK" (blank-node style); unknown IDs render with a #K fallback so that
// Name never panics on foreign terms. Safe concurrently with interning.
func (s *Store) Name(t Term) string {
	switch t.Kind() {
	case Const:
		if e := s.consts.arena.Get(t.ID()); e != nil {
			return e.name()
		}
		return "const#" + strconv.FormatUint(uint64(t.ID()), 10)
	case Var:
		if e := s.vars.arena.Get(t.ID()); e != nil {
			return e.name()
		}
		return "Var#" + strconv.FormatUint(uint64(t.ID()), 10)
	case Null:
		return "_:n" + strconv.FormatUint(uint64(t.ID()), 10)
	default:
		return fmt.Sprintf("?term(%d,%d)", t.Kind(), t.ID())
	}
}

// Names renders a slice of terms.
func (s *Store) Names(ts []Term) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = s.Name(t)
	}
	return out
}
