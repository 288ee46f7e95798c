// Package schema maintains the predicate vocabulary of a reasoning session:
// predicate names with arities interned to compact IDs, and the position
// space pos(S) used by the wardedness analysis (paper, Sections 2–3).
package schema

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/intern"
)

// PredID identifies an interned predicate.
type PredID uint32

// Position identifies an argument position R[i] of a predicate (paper §2:
// "A position R[i] in S identifies the i-th argument of R"). Index is
// 0-based internally; the String form prints 1-based as in the paper.
type Position struct {
	Pred  PredID
	Index int
}

// predInfo is one interned predicate's record in the arena.
type predInfo struct {
	name  string
	arity int
}

// Registry interns predicates. All atoms of one session share one Registry.
// Safe for concurrent use (the same striped-map-plus-arena substrate as
// term.Store): concurrent Intern of the same name yields one stable ID,
// and IDs stay DENSE and sequential in first-intern order — the storage
// layer and the tuple buffers index dense arrays by PredID.
type Registry struct {
	ids   *intern.Map
	preds *intern.Arena[predInfo]
}

// NewRegistry returns an empty predicate registry.
func NewRegistry() *Registry {
	return &Registry{ids: intern.NewMap(), preds: intern.NewArena[predInfo]()}
}

// Intern returns the ID of the predicate name/arity, creating it if needed.
// Predicates are identified by name alone; re-interning a known name with a
// different arity is an error surfaced via panic, because it indicates a
// malformed program (the parser reports this condition gracefully first).
func (r *Registry) Intern(name string, arity int) PredID {
	id, isNew, ok := r.ids.Intern(name, func() (uint32, string, bool) {
		// A copy, so that a name sliced from a program text does not keep
		// the whole text alive.
		name := strings.Clone(name)
		id, ok := r.preds.Append(predInfo{name: name, arity: arity}, math.MaxUint32)
		return id, name, ok
	})
	if !ok {
		panic("schema: predicate ID space exhausted")
	}
	if !isNew {
		if got := r.preds.Get(id).arity; got != arity {
			panic(fmt.Sprintf("schema: predicate %s used with arities %d and %d",
				name, got, arity))
		}
	}
	return PredID(id)
}

// Lookup reports the ID of a predicate name, if interned.
func (r *Registry) Lookup(name string) (PredID, bool) {
	id, ok := r.ids.Lookup(name)
	return PredID(id), ok
}

// CheckArity reports whether name is either unknown or interned with arity.
func (r *Registry) CheckArity(name string, arity int) bool {
	id, ok := r.ids.Lookup(name)
	if !ok {
		return true
	}
	return r.preds.Get(id).arity == arity
}

// Name returns the name of an interned predicate.
func (r *Registry) Name(id PredID) string {
	if info := r.preds.Get(uint32(id)); info != nil {
		return info.name
	}
	return fmt.Sprintf("pred#%d", id)
}

// Arity returns the arity of an interned predicate.
func (r *Registry) Arity(id PredID) int {
	if info := r.preds.Get(uint32(id)); info != nil {
		return info.arity
	}
	return -1
}

// Len reports the number of interned predicates.
func (r *Registry) Len() int { return r.preds.Len() }

// Positions returns pos({P}) — all argument positions of predicate id.
func (r *Registry) Positions(id PredID) []Position {
	n := r.Arity(id)
	out := make([]Position, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Position{Pred: id, Index: i})
	}
	return out
}

// PositionString renders a position in the paper's R[i] (1-based) notation.
func (r *Registry) PositionString(p Position) string {
	return fmt.Sprintf("%s[%d]", r.Name(p.Pred), p.Index+1)
}

// SortedNames returns all interned predicate names sorted alphabetically;
// useful for deterministic reports.
func (r *Registry) SortedNames() []string {
	out := make([]string, 0, r.Len())
	for id, n := 0, r.Len(); id < n; id++ {
		out = append(out, r.Name(PredID(id)))
	}
	sort.Strings(out)
	return out
}
