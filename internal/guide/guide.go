// Package guide implements the guide structures of Section 7(1): the data
// structures the Vadalog system uses for "aggressive termination control",
// i.e. stopping recursion through existential quantification as early as
// possible.
//
// The system described in the paper builds a linear forest, a warded forest
// and a lifted linear forest over chase facts. The essential mechanism all
// three share is pattern abstraction: a chase step whose trigger is
// isomorphic — same constants in the same positions, same equality pattern
// among nulls — to a previously fired trigger of the same TGD cannot
// contribute new certain answers for warded programs and is suppressed.
// This package provides that abstraction:
//
//   - Pattern canonicalization of atom sequences (constants stay rigid,
//     nulls are numbered by first occurrence across the sequence);
//   - A TriggerMemo that remembers, per TGD, the patterns of body images it
//     has fired on (the lifted forest's node set).
//
// On piece-wise linear warded programs the trigger memo is "by design more
// effective at terminating recursion earlier" (§7(1)): the single recursive
// body atom means the trigger pattern has one recursive component, so the
// memo saturates after polynomially many distinct patterns.
package guide

import (
	"strconv"
	"strings"

	"repro/internal/atom"
)

// Pattern is a canonical string form of an atom sequence where nulls are
// replaced by their first-occurrence index. Two sequences have equal
// Patterns iff they are isomorphic over null renaming.
type Pattern string

// Canonicalize computes the pattern of an atom sequence. Variables are not
// expected (trigger images and facts are ground); they are rendered
// distinctly if present so the function stays total.
func Canonicalize(atoms []atom.Atom) Pattern {
	var b strings.Builder
	nulls := make(map[uint32]int)
	for _, a := range atoms {
		b.WriteString(strconv.FormatUint(uint64(a.Pred), 36))
		b.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			switch {
			case t.IsNull():
				id, ok := nulls[t.ID()]
				if !ok {
					id = len(nulls)
					nulls[t.ID()] = id
				}
				b.WriteByte('N')
				b.WriteString(strconv.Itoa(id))
			case t.IsConst():
				b.WriteByte('c')
				b.WriteString(strconv.FormatUint(uint64(t.ID()), 36))
			default:
				b.WriteByte('v')
				b.WriteString(strconv.FormatUint(uint64(t.ID()), 36))
			}
		}
		b.WriteByte(')')
	}
	return Pattern(b.String())
}

// TriggerMemo suppresses repeated isomorphic triggers per TGD. It is the
// core of the termination control ablated in experiment E7.
type TriggerMemo struct {
	seen map[int]map[Pattern]bool
	hits int
}

// NewTriggerMemo returns an empty memo.
func NewTriggerMemo() *TriggerMemo {
	return &TriggerMemo{seen: make(map[int]map[Pattern]bool)}
}

// Admit reports whether the TGD (by index) should fire on a trigger whose
// body image is the given atom sequence; the first call for each (TGD,
// pattern) admits, later calls are suppressed.
func (m *TriggerMemo) Admit(tgd int, bodyImage []atom.Atom) bool {
	p := Canonicalize(bodyImage)
	s := m.seen[tgd]
	if s == nil {
		s = make(map[Pattern]bool)
		m.seen[tgd] = s
	}
	if s[p] {
		m.hits++
		return false
	}
	s[p] = true
	return true
}

// Suppressed reports how many triggers the memo rejected.
func (m *TriggerMemo) Suppressed() int { return m.hits }

// Size reports how many distinct trigger patterns are stored — the memory
// footprint proxy reported by E7.
func (m *TriggerMemo) Size() int {
	n := 0
	for _, s := range m.seen {
		n += len(s)
	}
	return n
}
