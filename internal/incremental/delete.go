package incremental

import (
	"fmt"

	"repro/internal/atom"
	"repro/internal/plan"
	"repro/internal/schema"
)

// handle locates one fact of the materialization: its predicate and the
// local row inside the predicate's relation. Deletion worklists carry
// handles; no side index from tuples to rows exists. The overestimate's
// rounds take them as they are.
type handle = plan.Seed

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
	if int(h.Pred) < len(m.rows) {
		if r := m.rows[h.Pred]; int(h.Row) < len(r) {
			return r[h.Row]
		}
	}
	return 0
}

func (m *marks) set(h handle, v mark) {
	for len(m.rows) <= int(h.Pred) {
		m.rows = append(m.rows, nil)
	}
	r := m.rows[h.Pred]
	if int(h.Row) >= len(r) {
		r = append(r, make([]mark, int(h.Row)+1-len(r))...)
		m.rows[h.Pred] = r
	}
	if r[h.Row] == 0 {
		m.touched = append(m.touched, h)
	}
	r[h.Row] = v
}

func (m *marks) reset() {
	for _, h := range m.touched {
		m.rows[h.Pred][h.Row] = 0
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
	case st&mProved != 0 || !e.idb(b.Pred):
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
	args := e.db.FactArgs(h.Pred, h.Row)
	for _, ri := range e.headRules[h.Pred] {
		ex := e.execs[ri]
		body := ex.Rule.Body
		ex.Supports(e.db, h.Pred, args, func(rows []int32) bool {
			start := len(s.cands)
			for i, row := range rows {
				b := handle{Pred: body[i].Pred, Row: row}
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
			s.cands = append(s.cands, handle{Row: -1})
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
// fact, and if it comes back, phase 2's propagation derives it again from
// a re-inserted body fact. Otherwise it is unsure and phase 2 re-checks
// it. Proved and refuted facts stay memoized for the whole pass.
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
		if b.Row < 0 {
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
			for s.cands[g.at].Row >= 0 {
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
// entirely in place: the overestimate runs row-list rounds of the compiled
// plans over the still-intact instance and proves what it reaches before
// deleting it, deletion applies as tombstone flips (no store rebuild), and
// rederivation re-inserts the unsure facts that head-bound checks still
// derive and propagates them like an insertion.
func (e *Engine) Delete(facts ...atom.Atom) error {
	return e.DeleteBudgeted(nil, facts...)
}

// DeleteBudgeted is Delete charged against a budget. DRed's two phases
// abort differently: phase 1 (overestimate and support search) runs over
// the intact instance — an abort there returns the typed error with
// NOTHING mutated, the engine stays healthy. Once tombstones apply, an
// abort in phase 2 (rederive) leaves overdeleted facts missing, so the
// engine is marked broken until Adopt rolls it back. A nil budget is
// exactly Delete.
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
		if h := (handle{Pred: f.Pred, Row: row}); m.get(h) == 0 {
			m.set(h, mPending)
			pend = append(pend, h)
		}
	}
	if len(pend) == 0 {
		return nil
	}
	seeds := len(pend)

	// Phase 1 — overestimate, checked: each round joins every rule through
	// the facts that turned pending in the round before and records the
	// heads it reaches; between rounds each reached fact is proved or
	// refuted by the support search before it may turn pending, and a
	// proved fact is kept and not propagated from. Tombstones land only
	// after the whole phase, so every join runs over the OLD, intact
	// instance.
	var reached []handle
	kept := 0
	fx := plan.Fixpoint{DB: e.db, Plans: e.plans, Execs: e.execs, Budget: bud,
		Match: func(_ int, ex *plan.Exec) func() bool {
			return func() bool {
				p, args := ex.HeadArgs(0)
				if row, ok := e.db.FindRow(p, args); ok {
					reached = append(reached, handle{Pred: p, Row: row})
				}
				return true
			}
		}}
	fx.RunRows(pend, func() []handle {
		from := len(pend)
		for _, h := range reached {
			st := m.get(h)
			if st == 0 {
				if e.prove(h, bud) != nil {
					return nil
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
			}
		}
		reached = reached[:0]
		return pend[from:]
	})
	if err := bud.Err(); err != nil {
		// Nothing has been mutated yet: the delete simply didn't happen,
		// and the engine stays healthy.
		return err
	}
	e.stats.Deleted += seeds
	e.stats.Overdeleted += len(pend) - seeds
	e.stats.Kept += kept

	// Apply — flip tombstones; columns, postings, and insertion marks stay
	// put.
	// From here on an abort leaves the materialization partial.
	for _, h := range pend {
		e.db.Tombstone(h.Pred, h.Row)
	}

	// Phase 2 — rederive: only an unsure refutation can hide a derivation
	// from the surviving instance, so only unsure facts get a head-bound
	// check. One that passes is inserted again, as a fresh row beside its
	// dead one, and propagation derives every pending fact it re-supports.
	mark := e.db.Mark()
	for _, h := range pend {
		if bud.Aborted() {
			break // propagate reports the abort
		}
		if m.get(h)&mUnsure == 0 {
			continue
		}
		args := e.db.FactArgs(h.Pred, h.Row)
		for _, ri := range e.headRules[h.Pred] {
			if e.execs[ri].Rederivable(e.db, h.Pred, args) {
				e.db.InsertArgs(h.Pred, args)
				e.stats.Rederived++
				break
			}
		}
	}
	if err := e.propagate(mark, bud, "delete", &e.stats.Rederived); err != nil {
		return err
	}

	// Reclaim physical space once a relation is mostly tombstones. Compact
	// invalidates row handles, so it runs only here, after the worklists
	// have drained.
	e.stats.Compacted += e.db.Compact(CompactFraction)
	return nil
}
