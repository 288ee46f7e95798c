package incremental

import (
	"fmt"

	"repro/internal/atom"
	"repro/internal/plan"
	"repro/internal/schema"
)

// handle locates one fact of the materialization: its predicate and the
// local row inside the predicate's relation. Deletion worklists carry
// handles; no side index from tuples to rows exists.
type handle struct {
	pred schema.PredID
	row  int32
}

// mark is what one Delete pass knows about a fact, as bit flags.
type mark uint8

const (
	// mPending: in the overdelete set, tombstoned once the overestimate
	// drains. The deleted base facts start here.
	mPending mark = 1 << iota
	// mProved: the support search proved the fact — it survives.
	mProved
	// mRefuted: the support search found no support.
	mRefuted
	// mUnsure: a refutation that a cycle or a live refuted fact cut; phase
	// 2 re-checks it if the fact turns pending.
	mUnsure
	// mOnStack: on the support search's stack, so never its own support.
	mOnStack
	// mKept: proved when the overestimate reached it (Stats.Kept, once).
	mKept
)

// marks holds a Delete pass's marks: one byte per local row of each
// touched relation, by predicate. The engine keeps the bytes between
// passes and clears only the touched handles.
type marks struct {
	rows    [][]mark
	touched []handle
}

func (m *marks) get(h handle) mark {
	if int(h.pred) < len(m.rows) {
		if r := m.rows[h.pred]; int(h.row) < len(r) {
			return r[h.row]
		}
	}
	return 0
}

func (m *marks) set(h handle, v mark) {
	for len(m.rows) <= int(h.pred) {
		m.rows = append(m.rows, nil)
	}
	r := m.rows[h.pred]
	if int(h.row) >= len(r) {
		r = append(r, make([]mark, int(h.row)+1-len(r))...)
		m.rows[h.pred] = r
	}
	if r[h.row] == 0 {
		m.touched = append(m.touched, h)
	}
	r[h.row] = v
}

func (m *marks) reset() {
	for _, h := range m.touched {
		m.rows[h.pred][h.row] = 0
	}
	m.touched = m.touched[:0]
}

// search is the support search's own stack — a proof can be as long as the
// longest path, so the search never recurses in Go. Each goal is a fact
// being proved; cands holds, per goal, its open candidate supports (rule
// instances none of whose body facts is dead) as groups of their unknown
// body facts, each group closed by a handle with row -1.
type search struct {
	goals []goal
	cands []handle
}

// goal is one fact on the search stack: its candidate groups start at
// cands[lo], at is the cursor, and unsure records a cut candidate.
type goal struct {
	h      handle
	lo, at int
	unsure bool
}

// verdict classifies a body fact of a candidate support.
type verdict uint8

const (
	alive   verdict = iota // a surviving base fact or a proved one
	dead                   // pending, or refuted and bound to turn pending
	cut                    // on the stack, or refuted unsure and not pending
	unknown                // an intensional fact nobody has searched yet
)

func (e *Engine) idb(p schema.PredID) bool {
	return int(p) < len(e.intensional) && e.intensional[p]
}

func (e *Engine) verdict(b handle) verdict {
	st := e.marks.get(b)
	switch {
	case st&mPending != 0:
		return dead
	case st&mProved != 0 || !e.idb(b.pred):
		return alive
	case st&(mRefuted|mUnsure) == mRefuted:
		return dead
	case st != 0:
		return cut
	}
	return unknown
}

// refutation is the mark of a fact the search refuted.
func refutation(unsure bool) mark {
	if unsure {
		return mRefuted | mUnsure
	}
	return mRefuted
}

// open starts proving the unknown intensional fact h over the intact
// instance: one head-bound join per rule deriving it (Exec.Supports, rows
// read from the probes that matched them). An instance whose body facts
// are all alive proves h at once; one with a dead or cut body fact is
// dropped; the rest stay open as candidates. With none open h is refuted
// at once, otherwise it goes on the stack.
func (e *Engine) open(h handle) {
	s := &e.search
	e.marks.set(h, mOnStack)
	lo, unsure, proved := len(s.cands), false, false
	args := e.db.FactArgs(h.pred, h.row)
	for _, ri := range e.headRules[h.pred] {
		ex := e.execs[ri]
		body := ex.Rule.Body
		ex.Supports(e.db, h.pred, args, func(rows []int32) bool {
			start := len(s.cands)
			for i, row := range rows {
				b := handle{pred: body[i].Pred, row: row}
				switch e.verdict(b) {
				case unknown:
					s.cands = append(s.cands, b)
				case cut:
					unsure = true
					fallthrough
				case dead:
					s.cands = s.cands[:start]
					return true
				}
			}
			if len(s.cands) == start {
				proved = true
				return false
			}
			s.cands = append(s.cands, handle{row: -1})
			return true
		})
		if proved {
			break
		}
	}
	switch {
	case proved:
		s.cands = s.cands[:lo]
		e.marks.set(h, mProved)
	case len(s.cands) == lo:
		e.marks.set(h, refutation(unsure))
	default:
		s.goals = append(s.goals, goal{h: h, lo: lo, at: lo, unsure: unsure})
	}
}

// prove settles the unknown fact h as proved or refuted by a depth-first
// backward search over its candidate supports. Proofs are well-founded: a
// fact on the stack never supports anything, so a proved fact survives the
// delete. A refutation is sure when every support has a body fact that
// is, or is bound to turn, pending: the overestimate then reaches the
// fact and phase 2's restore propagation covers it. Otherwise it is
// unsure and phase 2 re-checks it. Proved and refuted facts stay memoized
// for the whole pass.
func (e *Engine) prove(h handle, bud *plan.Budget) error {
	s := &e.search
	e.open(h)
	for len(s.goals) > 0 {
		if err := bud.Err(); err != nil {
			return err
		}
		g := &s.goals[len(s.goals)-1]
		if g.at == len(s.cands) {
			e.settle(refutation(g.unsure))
			continue
		}
		b := s.cands[g.at]
		if b.row < 0 {
			e.settle(mProved) // every body fact of the group is alive
			continue
		}
		switch e.verdict(b) {
		case alive:
			g.at++
		case unknown:
			e.open(b)
		case cut:
			g.unsure = true
			fallthrough
		case dead:
			for s.cands[g.at].row >= 0 {
				g.at++
			}
			g.at++
		}
	}
	return bud.Err()
}

// settle pops the top goal with its final mark.
func (e *Engine) settle(v mark) {
	s := &e.search
	g := s.goals[len(s.goals)-1]
	s.goals = s.goals[:len(s.goals)-1]
	s.cands = s.cands[:g.lo]
	e.marks.set(g.h, v)
}

// Delete retracts base facts and maintains the materialization with DRed,
// entirely in place: the overestimate walks seed-bound compiled plans over
// the still-intact instance and proves what it reaches before deleting
// it, deletion applies as tombstone flips (no store rebuild), and
// rederivation combines head-bound checks of unsure facts with
// seed-bound propagation of restored ones.
func (e *Engine) Delete(facts ...atom.Atom) error {
	return e.DeleteBudgeted(nil, facts...)
}

// DeleteBudgeted is Delete charged against a budget. DRed's two phases
// abort differently: phase 1 (overestimate and support search) runs over
// the intact instance — an abort there returns the typed error with
// NOTHING mutated, the engine stays healthy. Once tombstones apply, an
// abort in phase 2 (rederive) leaves overdeleted facts unrestored, so the
// engine is marked broken and Rebuild recovers. A nil budget is exactly
// Delete.
func (e *Engine) DeleteBudgeted(bud *plan.Budget, facts ...atom.Atom) error {
	if err := e.guard(bud); err != nil {
		return err
	}
	for _, f := range facts {
		if e.idb(f.Pred) {
			return fmt.Errorf("incremental: %s is intensional; only base facts can be deleted", e.prog.Reg.Name(f.Pred))
		}
	}
	if bud != nil {
		e.attach(bud)
		defer e.attach(nil)
	}
	m := &e.marks
	defer func() {
		m.reset()
		e.search.goals, e.search.cands = e.search.goals[:0], e.search.cands[:0]
	}()
	// Seed the overestimate with the actually present base facts.
	var pend []handle
	for _, f := range facts {
		row, ok := e.db.FindRow(f.Pred, f.Args)
		if !ok {
			continue
		}
		if h := (handle{pred: f.Pred, row: row}); m.get(h) == 0 {
			m.set(h, mPending)
			pend = append(pend, h)
		}
	}
	if len(pend) == 0 {
		return nil
	}
	seeds := len(pend)

	// Phase 1 — overestimate, checked: every fact derived through a pending
	// fact is reached, and proved or refuted by the support search before
	// it may turn pending; a proved fact is kept and not propagated from.
	// Tombstones land only after the whole phase, so every join runs over
	// the OLD, intact instance.
	work := append([]handle(nil), pend...)
	var reached []handle
	kept := 0
	for len(work) > 0 {
		if err := bud.Err(); err != nil {
			// Nothing has been mutated yet: the delete simply didn't
			// happen, and the engine stays healthy.
			return err
		}
		g := work[len(work)-1]
		work = work[:len(work)-1]
		// Heads are checked after the seed-bound runs: the search joins on
		// the same executors, whose frames a run holds bound.
		reached = reached[:0]
		for _, occ := range e.bodyOcc[g.pred] {
			ex := e.execs[occ.rule]
			ex.RunSeed(e.db, occ.pos, g.row, func() bool {
				if row, ok := e.db.FindRow(ex.HeadArgs(0)); ok {
					reached = append(reached, handle{pred: ex.Rule.Head[0].Pred, row: row})
				}
				return true
			})
		}
		for _, h := range reached {
			st := m.get(h)
			if st == 0 {
				if err := e.prove(h, bud); err != nil {
					return err
				}
				st = m.get(h)
			}
			switch {
			case st&mPending != 0:
			case st&mProved != 0:
				if st&mKept == 0 {
					m.set(h, st|mKept)
					kept++
				}
			default:
				m.set(h, st|mPending)
				pend = append(pend, h)
				work = append(work, h)
			}
		}
	}
	if err := bud.Err(); err != nil {
		return err // still pre-mutation: the last join may have stopped early
	}
	e.stats.Deleted += seeds
	e.stats.Overdeleted += len(pend) - seeds
	e.stats.Kept += kept

	// Apply — flip tombstones; columns, postings, and insertion marks stay
	// put.
	// From here on an abort leaves the materialization partial.
	for _, h := range pend {
		e.db.Tombstone(h.pred, h.row)
	}

	// Phase 2 — rederive: only an unsure refutation can hide a derivation
	// from the surviving instance, so only unsure facts get a head-bound
	// check; every other pending fact that returns does so through a
	// restored body fact, and each restoration propagates through the
	// seed-bound plans to the still-pending facts it re-supports.
	rederived := 0
	var restored []handle
	revive := func(h handle) {
		e.db.Revive(h.pred, h.row)
		m.set(h, m.get(h)&^mPending)
		rederived++
		restored = append(restored, h)
	}
	for _, h := range pend {
		if bud.Aborted() {
			break // verdict handled after the worklists drain
		}
		if m.get(h)&(mPending|mUnsure) != mPending|mUnsure {
			continue
		}
		args := e.db.FactArgs(h.pred, h.row)
		for _, ri := range e.headRules[h.pred] {
			if e.execs[ri].Rederivable(e.db, h.pred, args) {
				revive(h)
				break
			}
		}
	}
	for len(restored) > 0 {
		if bud.Aborted() {
			break
		}
		g := restored[len(restored)-1]
		restored = restored[:len(restored)-1]
		for _, occ := range e.bodyOcc[g.pred] {
			ex := e.execs[occ.rule]
			ex.RunSeed(e.db, occ.pos, g.row, func() bool {
				hp, hargs := ex.HeadArgs(0)
				if row, ok := e.db.FindRowAny(hp, hargs); ok && m.get(handle{pred: hp, row: row})&mPending != 0 {
					revive(handle{pred: hp, row: row})
				}
				return true
			})
		}
	}
	e.stats.Rederived += rederived

	if err := bud.Err(); err != nil {
		// Tombstones applied but rederivation didn't finish: facts still
		// derivable from the surviving base facts may be missing. Partial
		// revives are sound (each had a derivation), but the
		// materialization is an under-approximation until Rebuild.
		e.broken = fmt.Errorf("incremental: delete aborted mid-rederivation: %w", err)
		return e.broken
	}

	// Reclaim physical space once a relation is mostly tombstones. Compact
	// invalidates row handles, so it runs only here, after the worklists
	// have drained.
	e.stats.Compacted += e.db.Compact(CompactFraction)
	return nil
}
