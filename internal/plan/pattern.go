package plan

import (
	"encoding/binary"
	"slices"

	"repro/internal/atom"
	"repro/internal/storage"
	"repro/internal/term"
)

// pattern is a conjunction of atoms compiled by shape: its variables take
// frame slots [0, vars) in order of first occurrence, and each constant
// position takes one slot after them, bound before the join runs. Two
// conjunctions with the same predicates, the same variable-equality
// pattern and constants at the same positions share one pattern, whatever
// their variable names and constants — so a proof search that matches
// thousands of states into an instance compiles a handful of joins.
type pattern struct {
	vars, numSlots int
	JoinPlan
}

// Patterns compiles conjunctions into patterns on first sight of their
// shape and keeps them. It is not safe for concurrent use; the zero value
// is ready.
type Patterns struct {
	byShape map[string]*pattern
	// key and vars are the scratch of shape keying.
	key  []byte
	vars []term.Term
}

// Each calls fn once per homomorphism from the atoms into db, in the
// compiled join's order: vals[n] is the image of vars[n], the atoms'
// variables in order of first occurrence. Constants (and nulls) in the
// atoms are rigid. vals is valid only during the call; fn returning false
// stops the enumeration, and Each reports whether it ran to completion.
func (ps *Patterns) Each(db *storage.DB, atoms []atom.Atom, fn func(vars, vals []term.Term) bool) bool {
	p := ps.compile(atoms)
	vars := slices.Clone(ps.vars) // fn may reuse ps for nested matches
	frame := storage.NewFrame(p.numSlots)
	k := p.vars
	for _, a := range atoms {
		for _, t := range a.Args {
			if !t.IsVar() {
				frame[k] = t
				k++
			}
		}
	}
	return p.each(db, frame, func() bool { return fn(vars, frame[:p.vars]) })
}

// Exists reports whether some homomorphism maps the atoms into db.
func (ps *Patterns) Exists(db *storage.DB, atoms []atom.Atom) bool {
	return !ps.Each(db, atoms, func(_, _ []term.Term) bool { return false })
}

// compile returns the atoms' pattern, compiling it on a shape's first
// sight. The shape key holds, per atom, the predicate and arity and, per
// position, 0 for a constant or 1 + the variable's first-occurrence
// number.
func (ps *Patterns) compile(atoms []atom.Atom) *pattern {
	key, vars := ps.key[:0], ps.vars[:0]
	consts := 0
	for _, a := range atoms {
		key = binary.AppendUvarint(key, uint64(a.Pred))
		key = binary.AppendUvarint(key, uint64(len(a.Args)))
		for _, t := range a.Args {
			if !t.IsVar() {
				key = append(key, 0)
				consts++
				continue
			}
			n := slices.Index(vars, t)
			if n < 0 {
				n = len(vars)
				vars = append(vars, t)
			}
			key = binary.AppendUvarint(key, uint64(n+1))
		}
	}
	ps.key, ps.vars = key, vars
	if p, ok := ps.byShape[string(key)]; ok {
		return p
	}
	p := compilePattern(atoms, vars, consts)
	if ps.byShape == nil {
		ps.byShape = make(map[string]*pattern)
	}
	ps.byShape[string(key)] = p
	return p
}

// compilePattern lifts the atoms onto their shape — variable n becomes
// slot n, the k-th constant position slot len(vars)+k — and compiles one
// greedy join over it with the constant slots bound from the start.
func compilePattern(atoms []atom.Atom, vars []term.Term, consts int) *pattern {
	p := &pattern{vars: len(vars), numSlots: len(vars) + consts}
	slotOf := make(map[term.Term]int, p.numSlots)
	for s := 0; s < p.numSlots; s++ {
		slotOf[term.MkVar(uint32(s))] = s
	}
	lifted := make([]atom.Atom, len(atoms))
	k := p.vars
	for i, a := range atoms {
		args := make([]term.Term, len(a.Args))
		for j, t := range a.Args {
			if t.IsVar() {
				args[j] = term.MkVar(uint32(slices.Index(vars, t)))
			} else {
				args[j] = term.MkVar(uint32(k))
				k++
			}
		}
		lifted[i] = atom.Atom{Pred: a.Pred, Args: args}
	}
	bound, live := make([]bool, p.numSlots), make([]bool, p.numSlots)
	for s := range live {
		live[s] = true
		bound[s] = s >= p.vars
	}
	p.JoinPlan = *compileJoin(lifted, greedyOrderBound(lifted, slotOf, bound), -1, slotOf, live, bound)
	return p
}

// each calls fn for every match of the join under frame, with the join's
// slots bound for the call; the slots are unbound again when each
// returns. fn returning false stops the enumeration; each reports whether
// it ran to completion.
func (j *JoinPlan) each(db *storage.DB, frame []term.Term, fn func() bool) bool {
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(j.Scans) {
			return fn()
		}
		return db.Probe(j.Scans[k], frame, 0, 0, 1, func() bool { return rec(k + 1) })
	}
	return rec(0)
}
