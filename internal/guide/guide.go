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
//   - Patterns of body images (atom.NewNullCanonicalizer: constants stay
//     rigid, nulls are numbered by first occurrence across the image);
//   - A TriggerMemo that remembers, per TGD, the patterns of body images it
//     has fired on (the lifted forest's node set).
//
// On piece-wise linear warded programs the trigger memo is "by design more
// effective at terminating recursion earlier" (§7(1)): the single recursive
// body atom means the trigger pattern has one recursive component, so the
// memo saturates after polynomially many distinct patterns.
package guide

import "repro/internal/atom"

// TriggerMemo suppresses repeated isomorphic triggers per TGD. It is the
// core of the termination control ablated in experiment E7.
type TriggerMemo struct {
	canon *atom.Canonicalizer
	seen  map[trigger]bool
}

// trigger is a TGD (by index) and the pattern of a body image.
type trigger struct {
	tgd     int
	pattern string
}

// NewTriggerMemo returns an empty memo.
func NewTriggerMemo() *TriggerMemo {
	return &TriggerMemo{canon: atom.NewNullCanonicalizer(), seen: make(map[trigger]bool)}
}

// Admit reports whether the TGD (by index) should fire on a trigger whose
// body image is the given atom sequence; the first call for each (TGD,
// pattern) admits, later calls are suppressed.
func (m *TriggerMemo) Admit(tgd int, bodyImage []atom.Atom) bool {
	// Body atom i's image is atom i, so the image is keyed in body order.
	k := trigger{tgd, m.canon.Key(bodyImage)}
	if m.seen[k] {
		return false
	}
	m.seen[k] = true
	return true
}

// Size reports how many distinct trigger patterns are stored — the memory
// footprint proxy reported by E7.
func (m *TriggerMemo) Size() int { return len(m.seen) }
