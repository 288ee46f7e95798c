// Package incremental maintains the materialization of a Datalog program
// under base-fact insertions and deletions — the Section 7 (future work 3)
// direction — with the classical delete-and-rederive (DRed) algorithm,
// checked before it kills:
//
//   - Insert: semi-naive delta evaluation seeded with the new facts —
//     only consequences of the insertion are recomputed.
//   - Delete: (1) overestimate — every derived fact with a derivation
//     through a deleted fact is reached, and deleted unless a backward
//     support search proves it from the surviving instance first;
//     (2) rederive — insert again the overdeleted facts that still have a
//     derivation, re-checking only those whose refutation was unsure.
//
// Both directions run on the round driver shared with the fixpoint
// engines (plan.Fixpoint), and both are in place. Insertion appends
// through the scratch paths and propagates with Fixpoint.Run. Deletion's
// overestimate is Fixpoint.RunRows: rounds of rule instances through the
// (pred, row) handles that turned pending in the round before. The
// support search and the rederive check enumerate head-bound plans
// (Exec.Supports), deletion flips storage tombstones, and a rederived
// fact lands as a fresh row and propagates exactly as an inserted one
// does. The materialization, base facts included, is the only store and
// is never rebuilt; physical space is reclaimed by storage.Compact once a
// relation is mostly dead.
//
// The engine supports full single-head TGDs without negation (negation
// under updates requires maintaining strata fronts; callers can rebuild
// per stratum instead). Updates apply to base (extensional) facts;
// intensional facts are always maintained, never edited directly.
package incremental

import (
	"fmt"

	"repro/internal/atom"
	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/storage"
)

// CompactFraction is the per-relation dead fraction beyond which Delete
// asks the store to physically reclaim tombstoned rows. Rebuilding at half
// dead bounds the instance's physical size at 2x its live size while
// keeping the amortized reclamation cost per tombstone constant for the
// churning relation.
const CompactFraction = 0.5

// Engine holds a program and its maintained materialization.
type Engine struct {
	prog *logic.Program
	// db is the maintained materialization and the only store: rules
	// never derive an extensional predicate, so its extensional relations
	// are the base facts currently asserted.
	db *storage.DB
	// intensional marks maintained predicates, by PredID.
	intensional []bool
	// plans / execs drive insertion deltas, deletion overestimates, and
	// rederivation through the compiled-plan pipeline shared with the
	// fixpoint engines; compiled once at New, and the program the initial
	// materialization evaluates.
	plans *plan.Program
	execs []*plan.Exec
	// headRules[p] lists the rules deriving p — the head-bound plans of the
	// support search and the rederive check.
	headRules map[schema.PredID][]int

	// broken is the typed abort error of a budgeted update that stopped
	// AFTER mutating the materialization: db no longer equals the closure
	// of its extensional facts, so every further update is refused until
	// the owner rolls back with Adopt. Aborts that land before any mutation
	// (insert preflight, Delete phase 1 — tombstones only apply after the
	// overestimate completes) leave the engine healthy and broken unset.
	broken error

	// marks and search are a Delete pass's per-fact state and support
	// search stack, kept between deletes so a pass allocates neither.
	marks  marks
	search search

	stats Stats
}

// Stats accumulates maintenance effort across updates.
type Stats struct {
	// Inserted / Deleted count base-fact changes applied.
	Inserted, Deleted int
	// DerivedNew counts facts added by insertion deltas.
	DerivedNew int
	// Overdeleted counts facts removed by the DRed overestimate.
	Overdeleted int
	// Rederived counts overdeleted facts the rederivation step inserted
	// again: the unsure facts its check re-derived and the facts their
	// propagation derived.
	Rederived int
	// Kept counts facts the overestimate reached but the support search
	// proved from the surviving instance, so they were never deleted.
	Kept int
	// Compacted counts rows physically reclaimed by storage compaction.
	Compacted int
}

// New materializes the program over the initial base facts.
func New(prog *logic.Program, base *storage.DB) (*Engine, error) {
	return NewBudgeted(prog, base, nil)
}

// Restore builds an engine around an ALREADY-materialized instance — the
// recovery path from a durability checkpoint. db is a decoded segment
// instance; the caller asserts what New would have established by
// evaluation: db is the closure of its extensional facts under prog.
// Nothing is re-evaluated and ownership of db transfers to the engine (no
// clone — the decoded instance has no other referent). Program validation
// and all plan/index compilation run exactly as in New.
func Restore(prog *logic.Program, db *storage.DB) (*Engine, error) {
	e, err := newShell(prog)
	if err != nil {
		return nil, err
	}
	e.db = db
	return e, nil
}

// Base returns a fresh instance of the live extensional facts of DB(), in
// insertion order: a cold-path copy made on each call. Facts over
// intensional predicates, even ones given to New, are maintained, not base.
func (e *Engine) Base() *storage.DB {
	base := storage.NewDB()
	for _, f := range e.db.All() {
		if !e.idb(f.Pred) {
			base.InsertArgs(f.Pred, f.Args)
		}
	}
	return base
}

// newShell validates the program and compiles every maintenance
// structure of an engine EXCEPT the store — the shared prefix of
// NewBudgeted (which evaluates the closure) and Restore (which trusts a
// checkpoint).
func newShell(prog *logic.Program) (*Engine, error) {
	if prog.HasNegation() {
		return nil, fmt.Errorf("incremental: negation is not supported under updates; rebuild per stratum")
	}
	e := &Engine{
		prog:      prog,
		plans:     plan.Compile(prog, plan.Options{DeltaFirst: true}),
		headRules: make(map[schema.PredID][]int),
	}
	if !e.plans.Analysis().IsFullSingleHead() {
		return nil, fmt.Errorf("incremental: program is not full single-head (Datalog)")
	}
	e.execs = make([]*plan.Exec, len(prog.TGDs))
	for i, r := range e.plans.Rules {
		e.execs[i] = plan.NewExec(r)
	}
	for p := range prog.HeadPreds() {
		for len(e.intensional) <= int(p) {
			e.intensional = append(e.intensional, false)
		}
		e.intensional[p] = true
	}
	for ri, t := range prog.TGDs {
		e.headRules[t.Head[0].Pred] = append(e.headRules[t.Head[0].Pred], ri)
	}
	return e, nil
}

// NewBudgeted is New with the initial materialization charged against a
// budget: a tripped budget aborts with the typed error and no engine —
// nothing to recover, the caller simply doesn't get a materialization.
// A nil budget is exactly New.
func NewBudgeted(prog *logic.Program, base *storage.DB, bud *plan.Budget) (*Engine, error) {
	e, err := newShell(prog)
	if err != nil {
		return nil, err
	}
	db, _, err := datalog.Run(e.plans, base, datalog.Options{Stratify: true, Budget: bud})
	if err != nil {
		return nil, err
	}
	e.db = db
	return e, nil
}

// DB exposes the maintained materialization (read-only by convention).
func (e *Engine) DB() *storage.DB { return e.db }

// Stats returns the accumulated maintenance counters.
func (e *Engine) Stats() Stats { return e.stats }

// Broken reports the abort that left the materialization partial (nil
// while healthy). A broken engine refuses updates until Adopt.
func (e *Engine) Broken() error { return e.broken }

// Adopt makes db the store and st the counters, clearing the broken
// state: the rollback of an aborted update. db must be an instance this
// engine maintained, taken between updates (the service clones the
// snapshot it serves), and st the counters it had then. No row handle
// or mark outlives an update, so nothing else refers to the old store.
func (e *Engine) Adopt(db *storage.DB, st Stats) {
	e.db, e.stats, e.broken = db, st, nil
}

// guard refuses updates on a broken engine and preflights the budget.
func (e *Engine) guard(bud *plan.Budget) error {
	if e.broken != nil {
		return fmt.Errorf("incremental: engine broken by aborted update (%v); roll back first", e.broken)
	}
	return bud.Check()
}

// attach points every executor at the budget (nil detaches). Budgeted
// updates bracket their work with attach(bud) / attach(nil) so an
// expired one-shot budget never outlives its update.
func (e *Engine) attach(bud *plan.Budget) {
	for _, ex := range e.execs {
		ex.SetBudget(bud)
	}
}

// Insert asserts base facts and propagates their consequences with a
// semi-naive delta fixpoint seeded at the insertion point.
func (e *Engine) Insert(facts ...atom.Atom) error {
	return e.InsertBudgeted(nil, facts...)
}

// InsertBudgeted is Insert charged against a budget. A budget tripped
// during delta propagation aborts with the typed error and marks the
// engine broken (the base facts landed but their consequences are
// partial) until Adopt rolls it back. A nil budget is exactly Insert.
func (e *Engine) InsertBudgeted(bud *plan.Budget, facts ...atom.Atom) error {
	if err := e.guard(bud); err != nil {
		return err
	}
	for _, f := range facts {
		if !f.IsGround() {
			return fmt.Errorf("incremental: inserting non-ground atom")
		}
		if e.idb(f.Pred) {
			return fmt.Errorf("incremental: %s is intensional; only base facts can be inserted", e.prog.Reg.Name(f.Pred))
		}
	}
	mark := e.db.Mark()
	added := 0
	for _, f := range facts {
		// The atoms are ground and interned, so dedup runs on the scratch
		// argument path directly.
		if e.db.InsertArgs(f.Pred, f.Args) {
			added++
		}
	}
	e.stats.Inserted += added
	if added == 0 {
		return nil
	}
	return e.propagate(mark, bud, "insert", &e.stats.DerivedNew)
}

// propagate runs the budgeted delta fixpoint after facts landed at mark —
// the round driver over every rule, every pair starting at those facts —
// adds the facts it derives to *derived, and marks the engine broken when
// the budget has tripped, during the run or before it. The budget (nil =
// unlimited) is charged the facts each join inserts; probes charge
// through the executors' attached budget.
func (e *Engine) propagate(mark storage.Mark, bud *plan.Budget, op string, derived *int) error {
	if bud != nil {
		e.attach(bud)
		defer e.attach(nil)
	}
	if e.db.Mark() > mark {
		before := e.db.Len()
		fx := plan.Fixpoint{DB: e.db, Plans: e.plans, Execs: e.execs, Budget: bud}
		fx.Run(plan.AllRules(len(e.prog.TGDs)), mark)
		*derived += e.db.Len() - before
	}
	if err := bud.Err(); err != nil {
		e.broken = fmt.Errorf("incremental: %s aborted mid-propagation: %w", op, err)
		return e.broken
	}
	return nil
}

// InsertBulk asserts base facts staged in columnar tuple buffers — the
// streaming bulk-load path (relio.LoadBuffered feeds it batch by batch).
// Buffers land through one storage.DB.MergeBuffers (one pre-sized dedup
// grow per relation, cached hashes), then one semi-naive delta fixpoint
// propagates the whole batch.
// Buffers are read-only here; the caller may Reset and refill them.
func (e *Engine) InsertBulk(bufs []*storage.TupleBuffer) (int, error) {
	return e.InsertBulkBudgeted(nil, bufs)
}

// InsertBulkBudgeted is InsertBulk charged against a budget, with the
// same abort semantics as InsertBudgeted.
func (e *Engine) InsertBulkBudgeted(bud *plan.Budget, bufs []*storage.TupleBuffer) (int, error) {
	if err := e.guard(bud); err != nil {
		return 0, err
	}
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, p := range b.Touched() {
			if e.idb(p) {
				return 0, fmt.Errorf("incremental: %s is intensional; only base facts can be bulk-loaded", e.prog.Reg.Name(p))
			}
		}
	}
	mark := e.db.Mark()
	added := e.db.MergeBuffers(bufs, 1)
	e.stats.Inserted += added
	if added > 0 {
		if err := e.propagate(mark, bud, "bulk insert", &e.stats.DerivedNew); err != nil {
			return added, err
		}
	}
	return added, nil
}

// Compact retries physical reclamation outside an update — the service
// calls this after a snapshot epoch drains, when the pins that made a
// Delete's own compaction defer are (mostly) gone. Relations still
// pinned by the currently served epoch are copied out rather than
// deferred again, so dead rows cannot accumulate under continuous query
// load. Returns rows reclaimed.
func (e *Engine) Compact() int {
	n := e.db.CompactAll(CompactFraction)
	e.stats.Compacted += n
	return n
}
