// Package datalog implements bottom-up evaluation of Datalog programs
// (full single-head TGDs, the class FULL1 of §6.1): naive and semi-naive
// fixpoints, stratification by predicate level (the strata induced by
// piece-wise linearity, §7(3)), and the join-ordering bias of §7(2) that
// puts the unique mutually-recursive body atom first.
//
// The engine is both the substrate for the Theorem 6.3 translation targets
// and the baseline for the optimization experiments E8/E9.
package datalog

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/term"
)

// Options configures evaluation.
type Options struct {
	// Stratify evaluates the program stratum by stratum in predicate-level
	// order, materializing each stratum before the next starts (§7(3)).
	// Within a stratum, semi-naive deltas are restricted to the stratum's
	// own recursive predicates — an optimization piece-wise linearity makes
	// effective.
	Stratify bool
	// BiasRecursiveAtom places the mutually-recursive (delta) body atom
	// first in every join and orders the rest greedily by bound
	// variables (§7(2), plan.Options.DeltaFirst). When false, every join
	// keeps the written body order with the delta restriction in place.
	// Either way each (rule, delta position) runs one join order, fixed
	// at compile time.
	BiasRecursiveAtom bool
	// InPlace evaluates directly into db instead of a private Clone. The
	// caller owns the aliasing consequences: db must not be read
	// concurrently with Eval, and on error it may hold a partial fixpoint.
	// The reasoning service sets this when evaluating view rules into a
	// copy-on-write overlay of an epoch snapshot: the overlay IS the
	// private copy, and a Clone of it would only stack a second overlay
	// on a snapshot of the first.
	InPlace bool
	// Budget, when non-nil, bounds the fixpoint: derived-fact and probe
	// caps plus the budget context's deadline/cancellation, checked on
	// the probe hot loop every plan.BudgetStride probes and, for derived
	// facts, on every successful insertion against the headroom the join
	// read at its start. A tripped budget aborts the fixpoint
	// mid-round and Eval returns the typed error (plan.ErrOverBudget /
	// plan.ErrCanceled) with a nil instance — the partially evaluated
	// target (the InPlace overlay, or the internal clone) is consistent
	// but incomplete, and must be discarded, never served. Nil means
	// unlimited, with zero hot-loop cost beyond one nil-check per probe.
	Budget *plan.Budget
	// Tracer, when non-nil, records the evaluation's execution trace:
	// the join order of each (rule, delta) pair, once, per-stratum
	// round/derived/probe counts, and run totals.
	// The hooks fire at round granularity (never per probe), so a nil
	// Tracer costs one nil-check per round×rule×delta and a live one stays
	// off the hot loop.
	Tracer *plan.Tracer
}

// Stats reports evaluation effort: the round driver's counters.
type Stats = plan.FixpointStats

// Eval computes the least fixpoint of the program over the database,
// returning an instance containing the input facts plus all derived facts
// — a new private clone by default, db itself under Options.InPlace. The
// program must consist of full single-head TGDs.
//
// Programs with negated body atoms are evaluated under stratified semantics
// (the perfect model): evaluation is forced into stratified mode and the
// program must be stratified — a predicate negated inside its own recursive
// component is rejected. Negation must be safe (Program.Validate).
func Eval(prog *logic.Program, db *storage.DB, opt Options) (*storage.DB, *Stats, error) {
	if prog.HasNegation() {
		// Before compiling: unsafe negation cannot be planned.
		if err := prog.Validate(); err != nil {
			return nil, nil, fmt.Errorf("datalog: %w", err)
		}
	}
	return Run(plan.Compile(prog, plan.Options{DeltaFirst: opt.BiasRecursiveAtom}), db, opt)
}

// Run is Eval over an already-compiled program: its owner (the
// incremental engine, the reasoning service's demand rewritings) compiles
// once and evaluates it any number of times. The plans fix each join
// order, so Options.BiasRecursiveAtom is not read; a program with negated
// body atoms is evaluated stratified, as under Eval.
func Run(plans *plan.Program, db *storage.DB, opt Options) (*storage.DB, *Stats, error) {
	// Analyzed once per compiled program, not once per evaluation: the
	// reasoning service evaluates one demand rewriting per query, and
	// re-analyzing it was a third of that.
	an := plans.Analysis()
	if !an.IsFullSingleHead() {
		return nil, nil, fmt.Errorf("datalog: program is not full single-head (Datalog)")
	}
	if ok, vs := an.IsStratifiedNegation(); !ok {
		return nil, nil, fmt.Errorf("datalog: %s", vs[0].Reason)
	}
	if err := opt.Budget.Check(); err != nil {
		return nil, nil, err
	}
	edb := db
	if !opt.InPlace {
		edb = db.Clone()
	}
	// Stratified, rules are grouped by the level of their head predicate
	// and each level runs to its fixpoint, lowest first: lower strata are
	// fully materialized when a stratum starts, so only the stratum's own
	// predicates can grow during its fixpoint. Negation forces it.
	rules := an.Prog.TGDs
	opt.Stratify = opt.Stratify || an.Prog.HasNegation()
	groups := plan.AllRules(len(rules))
	if opt.Stratify {
		level := make([]int, len(rules))
		for i, t := range rules {
			level[i] = an.Level(t.Head[0].Pred)
		}
		groups = plan.GroupByLevel(level)
	}
	fx := plan.Fixpoint{
		DB: edb, Plans: plans, Budget: opt.Budget, Tracer: opt.Tracer,
		Stratified: opt.Stratify,
	}
	fx.Run(groups, 0)
	stats := fx.Stats
	opt.Tracer.Fixpoint(stats.Rounds, stats.Derived, int64(stats.Probes))
	recordFixpoint(&stats)
	if err := opt.Budget.Err(); err != nil {
		// The fixpoint aborted mid-round: edb is consistent (every fact in
		// it is derivable) but incomplete, so no instance is returned.
		// Under InPlace the caller's db holds that partial state and must
		// be discarded.
		return nil, &stats, err
	}
	return edb, &stats, nil
}

// Naive computes the fixpoint by re-evaluating every rule against the full
// instance each round — the reference engine used to property-test the
// semi-naive evaluators. It runs the same compiled-plan pipeline as the
// other engines (unbiased written-order plans, no delta restriction), so
// the four-engine cross-check exercises plan.Exec everywhere. Programs
// with negation are evaluated stratum by stratum (perfect-model
// semantics), naively within each stratum.
func Naive(prog *logic.Program, db *storage.DB) (*storage.DB, error) {
	an := analysis.Analyze(prog)
	if !an.IsFullSingleHead() {
		return nil, fmt.Errorf("datalog: program is not full single-head (Datalog)")
	}
	groups := plan.AllRules(len(prog.TGDs))
	if prog.HasNegation() {
		if err := prog.Validate(); err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		strata, err := an.NegationStrata()
		if err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		groups = plan.GroupByLevel(strata)
	}
	work := db.Clone()
	plans := plan.Compile(prog, plan.Options{})
	execs := make([]*plan.Exec, len(prog.TGDs))
	for _, g := range groups {
		for {
			before := work.Len()
			for _, ri := range g.Rules {
				if execs[ri] == nil {
					execs[ri] = plan.NewExec(plans.Rules[ri])
				}
				ex := execs[ri]
				hasNeg := len(ex.Rule.Neg) > 0
				// Delta position 0 with mark 0 is the unrestricted join.
				// Negated predicates live in strictly lower (closed) strata,
				// so checking them mid-enumeration is stable.
				ex.Run(work, 0, 0, func() bool {
					if hasNeg && ex.Blocked(work) {
						return true
					}
					work.InsertArgs(ex.HeadArgs(0))
					return true
				})
			}
			if work.Len() == before {
				break
			}
		}
	}
	return work, nil
}

// Answers evaluates the program and then the query, returning the answer
// tuples (the evaluation Q(D) of the Datalog query (Σ,q), §6).
func Answers(prog *logic.Program, db *storage.DB, q *logic.CQ, opt Options) ([][]term.Term, *Stats, error) {
	out, stats, err := Eval(prog, db, opt)
	if err != nil {
		return nil, nil, err
	}
	return plan.EvalCQ(out, q), stats, nil
}
