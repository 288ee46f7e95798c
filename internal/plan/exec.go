package plan

import (
	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/term"
)

// Exec is the reusable execution state for one compiled rule: a single
// binding frame that lives for the whole evaluation. Where the previous
// engines cloned a map substitution per index probe, an Exec binds and
// unbinds slots of the same flat array across every round — constant
// steady-state memory per rule, zero allocation per binding.
//
// An Exec is not safe for concurrent use.
type Exec struct {
	Rule *RulePlan
	// Probes counts successful row matches at every join level — the work
	// metric of experiment E8, maintained by Run.
	Probes int

	frame []term.Term
	// scratch is the instantiation buffer behind HeadArgs and Blocked: the
	// engines hand it straight to storage.InsertArgs/ContainsArgs, which
	// copy, so no per-derivation argument slice is ever allocated.
	scratch []term.Term
	// rows holds, per body atom, the local row the current Supports match
	// read it from.
	rows []int32

	// bud, when set, is polled on the probe hot path: budLeft counts down
	// locally and every BudgetStride probes flush into the shared budget
	// (one atomic add + one limit/deadline poll). A tripped budget stops
	// the enumeration exactly like a callback returning false — every
	// slot unbinds on the way out — and the engine reads the verdict from
	// Budget.Err. The unbudgeted path counts down too and flushes into
	// the nil budget, which never stops it.
	bud     *Budget
	budLeft int
}

// SetBudget attaches (or with nil detaches) the budget every subsequent
// Run/runSeed/Supports enumeration charges its probes to.
func (e *Exec) SetBudget(b *Budget) {
	e.bud = b
	e.budLeft = BudgetStride
}

// probe counts one probe of a join and reports whether the enumeration
// may continue: every BudgetStride probes it flushes them into the
// shared budget.
func (e *Exec) probe() bool {
	e.Probes++
	e.budLeft--
	return e.budLeft > 0 || e.flush()
}

// flush charges one stride of probes to the budget, reporting whether
// the enumeration may continue. Out of line, so that probe inlines.
//
//go:noinline
func (e *Exec) flush() bool {
	e.budLeft = BudgetStride
	return e.bud.AddProbes(BudgetStride) == nil
}

// NewExec returns an executor for the rule with a fresh all-unbound frame.
func NewExec(r *RulePlan) *Exec {
	return &Exec{Rule: r, frame: storage.NewFrame(r.NumSlots)}
}

// Frame exposes the binding frame. Callers may read slots during a Run
// callback and may write existential slots (see RulePlan.ExistSlots)
// between match and head instantiation, but must not retain the slice.
func (e *Exec) Frame() []term.Term { return e.frame }

// Run enumerates every homomorphism of the rule body into db using variant
// di (body atom di restricted to rows at/after since). fn is invoked with
// the bindings in e.Frame(); returning false stops the enumeration. Run
// reports whether it ran to completion, and leaves every body slot
// unbound.
func (e *Exec) Run(db *storage.DB, di int, since storage.Mark, fn func() bool) bool {
	j := &e.Rule.Variants[di].JoinPlan
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(j.Scans) {
			return fn()
		}
		s := storage.Mark(0)
		if k == j.DeltaStep {
			s = since
		}
		return db.ProbeWithRow(j.Scans[k], e.frame, s, 0, 1, func(int32) bool {
			return e.probe() && rec(k+1)
		})
	}
	return rec(0)
}

// runSeed enumerates every rule instance whose body atom di is EXACTLY the
// fact stored at local row seed of its relation — the join of a row-list
// round (Fixpoint.RunRows): the fact is pinned at the variant's delta step
// via storage.ProbeRow and the remaining scans enumerate around it with
// the variant's join order. fn and the frame behave exactly as in Run.
func (e *Exec) runSeed(db *storage.DB, di int, seed int32, fn func() bool) bool {
	j := &e.Rule.Variants[di].JoinPlan
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(j.Scans) {
			return fn()
		}
		probe := func() bool { return e.probe() && rec(k+1) }
		if k == j.DeltaStep {
			return db.ProbeRow(j.Scans[k], e.frame, seed, probe)
		}
		return db.Probe(j.Scans[k], e.frame, 0, 0, 1, probe)
	}
	return rec(0)
}

// Supports enumerates the rule instances deriving the fact pred(args...)
// in db — the head-bound support enumeration of DRed. The head template is
// matched against the fact first (constants compared, repeated variables
// checked for consistency, frontier slots bound), then the precompiled
// Rederive join runs with every slot unread past it projected away. For
// each full body match fn receives rows, where rows[i] is the local row
// body atom i matched, read from the probe that matched it; rows is valid
// only during the call, and fn returning false stops the enumeration.
// Supports reports whether any instance was found, and resets every slot
// before returning. False when the rule has no rederive plan (not full
// single-head) or a different head predicate.
func (e *Exec) Supports(db *storage.DB, pred schema.PredID, args []term.Term, fn func(rows []int32) bool) bool {
	j := e.Rule.Rederive
	if j == nil || e.Rule.Head[0].Pred != pred {
		return false
	}
	if e.rows == nil {
		e.rows = make([]int32, len(e.Rule.Body))
	}
	found := false
	if e.bindHead(args) {
		var rec func(k int) bool
		rec = func(k int) bool {
			if k == len(j.Scans) {
				found = true
				return fn(e.rows)
			}
			return db.ProbeWithRow(j.Scans[k], e.frame, 0, 0, 1, func(row int32) bool {
				if !e.probe() {
					return false
				}
				e.rows[j.Order[k]] = row
				return rec(k + 1)
			})
		}
		rec(0)
	}
	e.unbindHead()
	return found
}

// Rederivable reports whether the rule derives the fact pred(args...) from
// db: Supports stopped at the first witness.
func (e *Exec) Rederivable(db *storage.DB, pred schema.PredID, args []term.Term) bool {
	return e.Supports(db, pred, args, func([]int32) bool { return false })
}

// bindHead binds the frame's head slots from the fact's argument tuple,
// reporting whether the fact is an instance of the head template. On a
// false return some slots may already be bound; the caller pairs every
// bindHead with unbindHead.
func (e *Exec) bindHead(args []term.Term) bool {
	t := &e.Rule.Head[0]
	for i := range t.Args {
		a := &t.Args[i]
		if a.Slot < 0 {
			if args[i] != a.Const {
				return false
			}
			continue
		}
		if e.frame[a.Slot] == storage.Unbound {
			e.frame[a.Slot] = args[i]
		} else if e.frame[a.Slot] != args[i] {
			return false
		}
	}
	return true
}

// unbindHead resets every slot the head template references.
func (e *Exec) unbindHead() {
	for _, a := range e.Rule.Head[0].Args {
		if a.Slot >= 0 {
			e.frame[a.Slot] = storage.Unbound
		}
	}
}

// Blocked reports whether some negated body atom of the rule holds in db
// under the current frame — the stratified negation-as-failure check, run
// once the positive body is fully matched (safe negation makes the negated
// atoms ground at that point). The check instantiates into the scratch
// buffer and never allocates.
func (e *Exec) Blocked(db *storage.DB) bool {
	for i := range e.Rule.Neg {
		t := &e.Rule.Neg[i]
		e.scratch = t.AppendArgs(e.scratch[:0], e.frame)
		if db.ContainsArgs(t.Pred, e.scratch) {
			return true
		}
	}
	return false
}

// Head instantiates head atom i under the current frame.
func (e *Exec) Head(i int) atom.Atom { return e.Rule.Head[i].Instantiate(e.frame) }

// HeadArgs instantiates head atom i into the executor's scratch buffer,
// returning its predicate and argument tuple. The tuple is valid until the
// next HeadArgs or Blocked call; storage.DB.InsertArgs/ContainsArgs copy
// it, so the insert-only engines derive facts without allocating.
func (e *Exec) HeadArgs(i int) (schema.PredID, []term.Term) {
	t := &e.Rule.Head[i]
	e.scratch = t.AppendArgs(e.scratch[:0], e.frame)
	return t.Pred, e.scratch
}

// BodyImage instantiates the full body under the current frame — the
// trigger image h(body(σ)) used for chase trigger keys, guide-structure
// memoization, and provenance. The plan must have been compiled with
// Options.NeedBodyImage; otherwise dead body variables are projected away
// and their slots are unbound here.
func (e *Exec) BodyImage() []atom.Atom {
	out := make([]atom.Atom, len(e.Rule.Body))
	for i := range e.Rule.Body {
		out[i] = e.Rule.Body[i].Instantiate(e.frame)
	}
	return out
}

// HeadSatisfied reports whether the rule's head already holds in db under
// the frontier bindings of the current frame — the restricted chase's
// test, run through the precompiled HeadCheck join before the existential
// slots are filled.
func (e *Exec) HeadSatisfied(db *storage.DB) bool {
	return !e.Rule.HeadCheck.each(db, e.frame, func() bool { return false })
}

// SetExistentials fills the existential slots from vals (aligned with
// RulePlan.ExistSlots); ClearExistentials resets them. The chase brackets
// head instantiation with this pair after inventing fresh nulls.
func (e *Exec) SetExistentials(vals []term.Term) {
	for i, s := range e.Rule.ExistSlots {
		e.frame[s] = vals[i]
	}
}

// ClearExistentials resets every existential slot to unbound.
func (e *Exec) ClearExistentials() {
	for _, s := range e.Rule.ExistSlots {
		e.frame[s] = storage.Unbound
	}
}
