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
	"sort"

	"repro/internal/analysis"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/schema"
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
	// first in every join (§7(2)). When false, the remaining atoms are
	// joined in written order after the delta atom, without connectivity
	// reordering.
	BiasRecursiveAtom bool
	// Barrier stages each round's derivations in a columnar tuple buffer
	// and lands them in one bulk merge at the round boundary instead of
	// inserting them mid-round. The delta window of a round is then
	// EXACTLY the previous round's output — disjoint from the round's own
	// derivations, which under direct insertion extend the window while
	// the round still runs and get re-probed both in their own round and
	// the next. Engaged only on non-linear strata (some rule joins two or
	// more atoms over the stratum's growing predicates), where the
	// double-probing is quadratic in the delta; linear strata keep the
	// direct-insert path, whose windows are already cheap. The fixpoint is
	// unchanged — a derivation deferred one round still lands — only round
	// counts and probe counts move.
	Barrier bool
	// Adaptive re-picks each rule's join-order variant every round from
	// current predicate cardinalities (plan.ChooseAlt over the plans'
	// precompiled alternatives — the ROADMAP "index swap"): when a delta
	// window decisively outgrows a side relation, the join drives from the
	// small relation and probes the window by index instead. The fixpoint
	// is unchanged for any selection; only probe counts move. Off, every
	// round keeps the compile-time order — the E8 baselines measure the
	// static bias choice in isolation.
	Adaptive bool
	// InPlace evaluates directly into db instead of a private Clone. The
	// caller owns the aliasing consequences: db must not be read
	// concurrently with Eval, and on error it may hold a partial fixpoint.
	// The reasoning service sets this when evaluating view rules into a
	// copy-on-write overlay of an epoch snapshot — the overlay IS the
	// private copy, and cloning it again would eagerly duplicate every
	// relation's dedup and posting structures.
	InPlace bool
	// Budget, when non-nil, bounds the fixpoint: derived-fact and probe
	// caps plus the budget context's deadline/cancellation, checked on
	// the probe hot loop every plan.BudgetStride probes and on every
	// successful insertion. A tripped budget aborts the fixpoint
	// mid-round and Eval/EvalParallel return the typed error
	// (plan.ErrOverBudget / plan.ErrCanceled) with a nil instance — the
	// partially evaluated target (the InPlace overlay, or the internal
	// clone) is consistent but incomplete, and must be discarded, never
	// served. Nil means unlimited, with zero hot-loop cost beyond one
	// nil-check per probe.
	Budget *plan.Budget
	// Tracer, when non-nil, records the evaluation's execution trace:
	// join-order decisions per (rule, delta, round) including adaptive
	// switches, per-stratum round/derived/probe counts, and run totals.
	// The hooks fire at round granularity on the coordinating goroutine
	// (never per probe), so a nil Tracer costs one nil-check per
	// round×rule×delta and a live one stays off the hot loop.
	Tracer *plan.Tracer
}

// Stats reports evaluation effort.
type Stats struct {
	// Rounds is the total number of fixpoint rounds across strata.
	Rounds int
	// Derived is the number of new facts derived (beyond the input).
	Derived int
	// Probes counts index probe extensions during joins — the work metric
	// for the join-ordering experiment E8.
	Probes int
	// PeakDelta is the largest number of facts derived in a single round —
	// the transient-memory metric for the materialization experiment E9.
	PeakDelta int
	// Strata is the number of strata evaluated (1 when not stratified).
	Strata int
	// InlineRounds / FannedRounds split the parallel evaluator's rounds by
	// schedule: inline rounds ran on the coordinator with direct insertion
	// (the delta was too small to pay for dispatch), fanned rounds sharded
	// the delta across the worker pool with buffered derivations and a
	// bulk merge. Both zero under the sequential engines.
	InlineRounds int
	FannedRounds int
}

type evaluator struct {
	prog  *logic.Program
	an    *analysis.Analysis
	db    *storage.DB
	opt   Options
	stats Stats
	// plans holds the per-rule compiled plans: join orders, scan access
	// paths, and templates are fixed once per evaluation, never per round.
	plans *plan.Program
	// execs holds one reusable binding frame per rule (lazily created).
	execs []*plan.Exec
}

// exec returns the rule's executor, creating it on first use (attached
// to the evaluation's budget, if any).
func (e *evaluator) exec(ri int) *plan.Exec {
	if e.execs[ri] == nil {
		e.execs[ri] = plan.NewExec(e.plans.Rules[ri])
		if e.opt.Budget != nil {
			e.execs[ri].SetBudget(e.opt.Budget)
		}
	}
	return e.execs[ri]
}

// collectProbes folds the per-rule probe counters into the stats.
func (e *evaluator) collectProbes(execs []*plan.Exec) {
	for _, ex := range execs {
		if ex != nil {
			e.stats.Probes += ex.Probes
		}
	}
}

// probesNow sums the live per-rule probe counters — the running total
// behind per-stratum trace deltas. Only called when a tracer is
// attached, from the coordinating goroutine.
func (e *evaluator) probesNow() int64 {
	var n int64
	for _, ex := range e.execs {
		if ex != nil {
			n += int64(ex.Probes)
		}
	}
	return n
}

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
		opt.Stratify = true
	}
	plans, cached := plan.CachedHit(prog, plan.Options{DeltaFirst: opt.BiasRecursiveAtom})
	opt.Tracer.Plan(cached)
	// Analyzed once per compiled program, not once per Eval: the reasoning
	// service evaluates one cached demand rewriting per query, and
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
	e := &evaluator{
		prog:  prog,
		an:    an,
		db:    edb,
		opt:   opt,
		plans: plans,
		execs: make([]*plan.Exec, len(prog.TGDs)),
	}
	if opt.Stratify {
		e.evalStratified()
	} else {
		e.fixpoint(ruleIndices(prog), nil)
	}
	e.collectProbes(e.execs)
	stats := e.stats
	opt.Tracer.Fixpoint(stats.Rounds, stats.Derived, int64(stats.Probes))
	recordFixpoint(&stats)
	if err := opt.Budget.Err(); err != nil {
		// The fixpoint aborted mid-round: e.db is consistent (every fact
		// in it is derivable) but incomplete, so no instance is returned.
		// Under InPlace the caller's db holds that partial state and must
		// be discarded.
		return nil, &stats, err
	}
	return e.db, &stats, nil
}

func ruleIndices(p *logic.Program) []int {
	out := make([]int, len(p.TGDs))
	for i := range out {
		out[i] = i
	}
	return out
}

// evalStratified groups rules by the level of their head predicate and runs
// one fixpoint per level, lowest first. Facts of lower strata are fully
// materialized when a stratum starts, so only the stratum's own predicates
// can grow during its fixpoint.
func (e *evaluator) evalStratified() {
	byLevel := make(map[int][]int)
	var levels []int
	for i, t := range e.prog.TGDs {
		l := e.an.Level(t.Head[0].Pred)
		if _, ok := byLevel[l]; !ok {
			levels = append(levels, l)
		}
		byLevel[l] = append(byLevel[l], i)
	}
	sort.Ints(levels)
	for _, l := range levels {
		if e.opt.Budget.Aborted() {
			return
		}
		rules := byLevel[l]
		// Predicates that can grow during this stratum's fixpoint.
		growing := make(map[schema.PredID]bool)
		for _, ri := range rules {
			growing[e.prog.TGDs[ri].Head[0].Pred] = true
		}
		var rounds0, derived0 int
		var probes0 int64
		if e.opt.Tracer != nil {
			rounds0, derived0, probes0 = e.stats.Rounds, e.stats.Derived, e.probesNow()
		}
		e.fixpoint(rules, growing)
		if e.opt.Tracer != nil {
			e.opt.Tracer.Stratum(l, e.stats.Rounds-rounds0, e.stats.Derived-derived0, e.probesNow()-probes0)
		}
		e.stats.Strata++
	}
}

// fixpoint runs semi-naive evaluation of the given rules to saturation.
// growing, when non-nil, restricts delta positions to body atoms whose
// predicate is in the set (stratified mode); nil means any body atom can be
// a delta position.
func (e *evaluator) fixpoint(rules []int, growing map[schema.PredID]bool) {
	if e.opt.Barrier && e.nonLinear(rules, growing) {
		e.fixpointBarrier(rules, growing)
		return
	}
	mark := storage.Mark(0)
	for round := 1; ; round++ {
		e.stats.Rounds++
		next := e.db.Mark()
		before := e.db.Len()
		for _, ri := range rules {
			t := e.prog.TGDs[ri]
			deltas := e.deltaPositions(t, growing, round)
			for _, di := range deltas {
				alt := 0
				if e.opt.Adaptive {
					alt = plan.ChooseAlt(e.db, e.plans.Rules[ri], di, mark)
				}
				if e.opt.Tracer != nil {
					e.opt.Tracer.Join(ri, di, round, alt, e.opt.Adaptive, e.plans.Rules[ri].Variants[di].Alts[alt].Order)
				}
				e.joinRule(ri, di, alt, mark)
				if e.opt.Budget.Aborted() {
					return
				}
			}
		}
		added := e.db.Len() - before
		e.stats.Derived += added
		if added > e.stats.PeakDelta {
			e.stats.PeakDelta = added
		}
		mark = next
		if added == 0 {
			return
		}
	}
}

// nonLinear reports whether some rule of the group joins >= 2 body atoms
// over the group's growing predicates — the shape where a round's own
// output re-enters the round's joins through the non-delta positions. For
// an unstratified fixpoint (growing nil) the head predicates of the group
// stand in for the growing set.
func (e *evaluator) nonLinear(rules []int, growing map[schema.PredID]bool) bool {
	if growing == nil {
		growing = make(map[schema.PredID]bool, len(rules))
		for _, ri := range rules {
			growing[e.prog.TGDs[ri].Head[0].Pred] = true
		}
	}
	for _, ri := range rules {
		n := 0
		for _, b := range e.prog.TGDs[ri].Body {
			if growing[b.Pred] {
				n++
			}
		}
		if n >= 2 {
			return true
		}
	}
	return false
}

// fixpointBarrier is the Options.Barrier variant of fixpoint: rounds
// stage head images into a tuple buffer and land them in one MergeBuffers
// at the round boundary, so every join of round r probes an instance
// frozen at the end of round r-1 and the delta window [mark, next) is
// disjoint from the round's own output.
func (e *evaluator) fixpointBarrier(rules []int, growing map[schema.PredID]bool) {
	buf := storage.NewTupleBuffer()
	mark := storage.Mark(0)
	for round := 1; ; round++ {
		e.stats.Rounds++
		next := e.db.Mark()
		for _, ri := range rules {
			t := e.prog.TGDs[ri]
			deltas := e.deltaPositions(t, growing, round)
			for _, di := range deltas {
				alt := 0
				if e.opt.Adaptive {
					alt = plan.ChooseAlt(e.db, e.plans.Rules[ri], di, mark)
				}
				if e.opt.Tracer != nil {
					e.opt.Tracer.Join(ri, di, round, alt, e.opt.Adaptive, e.plans.Rules[ri].Variants[di].Alts[alt].Order)
				}
				ex := e.exec(ri)
				hasNeg := len(ex.Rule.Neg) > 0
				ex.RunAlt(e.db, di, alt, mark, 0, 1, func() bool {
					if hasNeg && ex.Blocked(e.db) {
						return true
					}
					ex.HeadAppend(0, buf)
					return true
				})
				if e.opt.Budget.Aborted() {
					// Discard the round's staged derivations: the instance
					// stays frozen at the last completed round boundary.
					return
				}
			}
		}
		added := e.db.MergeBuffers([]*storage.TupleBuffer{buf}, 1)
		buf.Reset()
		e.stats.Derived += added
		if added > e.stats.PeakDelta {
			e.stats.PeakDelta = added
		}
		if e.opt.Budget.AddDerived(added) != nil {
			// Post-dedup per-round charging: the trip lands at the round
			// boundary, but the succeed/fail verdict matches the
			// per-insertion engines (the fixpoint total is
			// schedule-independent).
			return
		}
		mark = next
		if added == 0 {
			return
		}
	}
}

// deltaPositions selects which body atoms act as the semi-naive delta for
// this round. Round 1 uses a single unrestricted position (-1 handled by
// mark 0). In stratified mode only atoms over growing predicates qualify;
// rules without such atoms fire in round 1 only.
func (e *evaluator) deltaPositions(t *logic.TGD, growing map[schema.PredID]bool, round int) []int {
	if round == 1 {
		return []int{0} // mark 0: everything is delta; one scan suffices
	}
	var out []int
	for i, b := range t.Body {
		if growing == nil || growing[b.Pred] {
			out = append(out, i)
		}
	}
	return out
}

// joinRule executes the rule's compiled plan with body atom di restricted
// to the delta (facts at/after mark), inserting head images. Negated atoms
// are checked once the positive body is fully matched; they are ground then
// (safe negation) and range over strictly lower strata, so the check is
// stable for the whole stratum fixpoint. alt selects the precompiled
// join-order alternative (0: the compile-time order; others only under
// Options.Adaptive); the binding frame is reused across all rounds of the
// fixpoint.
func (e *evaluator) joinRule(ri, di, alt int, mark storage.Mark) {
	ex := e.exec(ri)
	hasNeg := len(ex.Rule.Neg) > 0
	bud := e.opt.Budget
	ex.RunAlt(e.db, di, alt, mark, 0, 1, func() bool {
		if hasNeg && ex.Blocked(e.db) {
			return true
		}
		if e.db.InsertArgs(ex.HeadArgs(0)) && bud != nil {
			// Per-insertion charging makes the derived-fact cap exact: a
			// closure of exactly MaxDerived facts completes, one more
			// aborts here mid-round.
			if bud.AddDerived(1) != nil {
				return false
			}
		}
		return true
	})
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
	groups := [][]int{ruleIndices(prog)}
	if prog.HasNegation() {
		if err := prog.Validate(); err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		strata, err := an.NegationStrata()
		if err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		byLevel := make(map[int][]int)
		var levels []int
		for i, l := range strata {
			if _, ok := byLevel[l]; !ok {
				levels = append(levels, l)
			}
			byLevel[l] = append(byLevel[l], i)
		}
		sort.Ints(levels)
		groups = groups[:0]
		for _, l := range levels {
			groups = append(groups, byLevel[l])
		}
	}
	work := db.Clone()
	plans := plan.Cached(prog, plan.Options{})
	execs := make([]*plan.Exec, len(prog.TGDs))
	for _, rules := range groups {
		for {
			before := work.Len()
			for _, ri := range rules {
				if execs[ri] == nil {
					execs[ri] = plan.NewExec(plans.Rules[ri])
				}
				ex := execs[ri]
				hasNeg := len(ex.Rule.Neg) > 0
				// Delta position 0 with mark 0 is the unrestricted join.
				// Negated predicates live in strictly lower (closed) strata,
				// so checking them mid-enumeration is stable.
				ex.Run(work, 0, 0, 0, 1, func() bool {
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
	return out.EvalCQ(q), stats, nil
}
