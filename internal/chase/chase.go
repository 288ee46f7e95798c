// Package chase implements the chase procedure of Section 2 — the main
// algorithmic tool for query answering under TGDs — together with the
// termination control of Section 7(1).
//
// A chase step: a TGD σ = φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄) is applicable to instance I
// with homomorphism h when h(φ) ⊆ I; applying it adds h'(ψ) where h'
// extends h|x̄ with fresh labeled nulls for z̄. The chase of a database D
// under Σ satisfies cert(q, D, Σ) = q(chase(D, Σ)) (Proposition 2.1).
//
// For warded programs the chase can be infinite. The engine offers:
//
//   - the RESTRICTED variant (skip a trigger whose head is already
//     satisfied), the textbook mitigation;
//   - guide-structure termination control (Options.TriggerMemo): a TGD is
//     fired at most once per isomorphism class of its trigger image, the
//     abstraction at the core of the Vadalog forests (§7(1)). On warded
//     programs this prunes the null-propagation cascades while preserving
//     certain answers for CQs over the constants of the database (we
//     cross-validate against the proof-tree engine in the tests);
//   - hard budgets (MaxRounds, MaxFacts, MaxDepth) as a backstop, with the
//     truncation surfaced in the result.
package chase

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/guide"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/term"
)

// Options configures a chase run.
type Options struct {
	// Restricted skips triggers whose head is already satisfied in the
	// current instance (restricted/standard chase). When false the chase is
	// semi-oblivious: each TGD fires once per body image.
	Restricted bool
	// TriggerMemo enables guide-structure termination control: triggers
	// isomorphic to an already-fired trigger of the same TGD are suppressed.
	TriggerMemo bool
	// MaxRounds, MaxFacts, MaxDepth are hard budgets (0 = unlimited).
	// MaxDepth bounds the birth depth of nulls.
	MaxRounds int
	MaxFacts  int
	MaxDepth  int
	// Budget, when non-nil, bounds the run externally: probe/derived-fact
	// caps and the budget context's deadline, charged on the same hot-loop
	// counters as the Datalog engines. Unlike MaxRounds/MaxFacts — which
	// truncate and return a usable prefix — a tripped Budget aborts the
	// run with the typed error (plan.ErrOverBudget / plan.ErrCanceled) and
	// no Result: the caller wanted out, not an approximation.
	Budget *plan.Budget
	// Provenance records, for each derived fact, the TGD and the trigger
	// that produced it (the chase graph of §4.2).
	Provenance bool
}

// Default returns the options used by the engines: restricted chase with
// guide-structure termination control and a generous fact budget.
func Default() Options {
	return Options{Restricted: true, TriggerMemo: true, MaxFacts: 1_000_000, MaxRounds: 10_000}
}

// Derivation records how a fact was derived (one edge bundle of the chase
// graph GD,Σ).
type Derivation struct {
	TGD     int         // index into the program
	Trigger []atom.Atom // h(body(σ))
}

// Result is the outcome of a chase run.
type Result struct {
	DB *storage.DB
	// Rounds is the number of semi-naive rounds executed.
	Rounds int
	// Applications counts the chase steps actually applied.
	Applications int
	// SuppressedByMemo / SuppressedRestricted / SuppressedDepth count
	// triggers skipped by each control.
	SuppressedByMemo     int
	SuppressedRestricted int
	SuppressedDepth      int
	// Truncated reports that a hard budget was hit; the instance is then a
	// prefix of the chase, not a model.
	Truncated bool
	// MaxNullDepth is the deepest null birth depth observed.
	MaxNullDepth int
	// MemoPatterns is the number of stored trigger patterns (guide
	// structure size; the E7 memory proxy).
	MemoPatterns int
	// Prov maps DB row index -> derivation, when Options.Provenance.
	Prov map[int]Derivation
	// BaseFacts is the input database's physical size in global insertion
	// indexes (rows below this index are D — live or tombstoned; rows at
	// or above it were derived by the chase). It partitions the same index
	// space Prov and IndexOf use, so it must stay a physical count even on
	// input stores that have seen deletions.
	BaseFacts int
}

// Run chases the database under the program. The input DB is not mutated.
// A program with negation is chased under stratified semantics: rules are
// grouped by the minimum level of their head predicates and each group is
// chased to completion before the next starts, so a rule's negated
// predicates — which sit at strictly lower levels by stratifiedness — are
// closed when the rule fires. All groups run on one copy of the input, so
// provenance rows refer to TGD indices of the program and BaseFacts is the
// size of the input database.
func Run(prog *logic.Program, db *storage.DB, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	groups := plan.AllRules(len(prog.TGDs))
	if prog.HasNegation() {
		strata, err := analysis.Analyze(prog).NegationStrata()
		if err != nil {
			return nil, fmt.Errorf("chase: %w", err)
		}
		groups = plan.GroupByLevel(strata)
	}
	return chaseGroups(prog, db, opt, groups)
}

// chaseGroups chases one clone of db through the rule groups in order:
// each group runs to its fixpoint (or to MaxRounds) on the round driver
// before the next starts. The chase is the driver's per-match function —
// trigger dedup, guide-structure memo, restricted-chase head check, null
// depth, provenance — layered on top of the enumeration instead of
// interleaved with it. The memo, the trigger dedup and the null depths
// span all groups: a null invented in one stratum keeps its depth in the
// next.
func chaseGroups(prog *logic.Program, db *storage.DB, opt Options, groups []plan.Group) (*Result, error) {
	if err := opt.Budget.Check(); err != nil {
		return nil, err
	}
	work := db.Clone()
	res := &Result{DB: work, BaseFacts: work.PhysicalLen()}
	if opt.Provenance {
		res.Prov = make(map[int]Derivation)
	}
	memo := guide.NewTriggerMemo()
	// Trigger-level dedup for existential TGDs (semi-oblivious firing):
	// re-firing a full TGD is harmless (insert dedups), but re-firing an
	// existential TGD would invent spurious fresh nulls.
	fired := make(map[string]bool)
	nullDepth := make(map[uint32]int)

	// Compile each TGD once per run: join orders, index access paths, and
	// head/body templates are rule properties, not round properties.
	// NeedBodyImage keeps every body variable live: the chase reads full
	// frames for trigger keys, memoization, and null-depth tracking, so
	// nothing may be projected away.
	plans := plan.Compile(prog, plan.Options{DeltaFirst: true, NeedBodyImage: true})
	var nulls []term.Term // scratch for fresh existential witnesses
	var nullErr error

	// match returns the trigger step of rule ti.
	// Negation-as-failure needs no guard here: the driver skips blocked
	// matches, which is sound because Run groups rules so that their
	// negated predicates are closed.
	match := func(ti int, ex *plan.Exec) func() bool {
		r := ex.Rule
		hasExist := len(r.ExistSlots) > 0
		// Full TGDs with no provenance insert through the scratch-buffer
		// path: the head never needs to exist as an atom before the store
		// copies it.
		fastInsert := !hasExist && res.Prov == nil
		return func() bool {
			// The trigger image is only materialized when a control or
			// provenance actually consumes it; full TGDs without provenance
			// never leave the slot frame.
			var img []atom.Atom
			if hasExist || res.Prov != nil {
				img = ex.BodyImage()
			}
			// Trigger-level dedup and pattern control only matter for TGDs
			// that invent nulls: re-firing a full TGD is absorbed by fact
			// dedup, and keying every full-TGD trigger would dominate large
			// Datalog fixpoints.
			if hasExist {
				key := triggerKey(ti, img)
				if fired[key] {
					return true
				}
				fired[key] = true
				if opt.TriggerMemo && !memo.Admit(ti, img) {
					res.SuppressedByMemo++
					return true
				}
			}
			if opt.Restricted && ex.HeadSatisfied(work) {
				res.SuppressedRestricted++
				return true
			}
			depth := frameDepth(ex.Frame(), nullDepth)
			if opt.MaxDepth > 0 && hasExist && depth+1 > opt.MaxDepth {
				res.SuppressedDepth++
				return true
			}
			// Apply the step: fill the existential slots with fresh nulls,
			// instantiate the head templates, then release the slots again.
			if hasExist {
				nulls = nulls[:0]
				for range r.ExistSlots {
					var n term.Term
					if n, nullErr = prog.Store.FreshNull(); nullErr != nil {
						return false
					}
					nulls = append(nulls, n)
					nullDepth[n.ID()] = depth + 1
					if depth+1 > res.MaxNullDepth {
						res.MaxNullDepth = depth + 1
					}
				}
				ex.SetExistentials(nulls)
			}
			for hi := range r.Head {
				if fastInsert {
					if work.InsertArgs(ex.HeadArgs(hi)) && opt.Budget.AddDerived(1) != nil {
						return false
					}
					continue
				}
				f := ex.Head(hi)
				// Provenance keys on the global insertion index, so the
				// physical length (tombstoned rows included — a caller may
				// hand the chase a store that has seen deletions), not the
				// live count.
				rowIdx := work.PhysicalLen()
				if work.Insert(f) {
					if res.Prov != nil {
						res.Prov[rowIdx] = Derivation{TGD: ti, Trigger: img}
					}
					if opt.Budget.AddDerived(1) != nil {
						return false
					}
				}
			}
			if hasExist {
				ex.ClearExistentials()
			}
			res.Applications++
			if opt.MaxFacts > 0 && work.Len() > opt.MaxFacts {
				res.Truncated = true
				return false
			}
			return true
		}
	}
	fx := plan.Fixpoint{DB: work, Plans: plans, Budget: opt.Budget, MaxRounds: opt.MaxRounds, Match: match}
	fx.Run(groups, 0)
	if nullErr != nil {
		return nil, fmt.Errorf("chase: %w", nullErr)
	}
	if err := opt.Budget.Err(); err != nil {
		return nil, err
	}
	res.Rounds = fx.Stats.Rounds
	res.Truncated = res.Truncated || fx.Capped
	res.MemoPatterns = memo.Size()
	return res, nil
}

// frameDepth is the maximum birth depth among nulls bound in the frame —
// the depth of the trigger image, read off the slots instead of the
// materialized atoms.
func frameDepth(frame []term.Term, nullDepth map[uint32]int) int {
	d := 0
	for _, t := range frame {
		if t.IsNull() {
			if nd := nullDepth[t.ID()]; nd > d {
				d = nd
			}
		}
	}
	return d
}

// triggerKey renders a trigger identity (TGD + exact body image).
func triggerKey(tgd int, img []atom.Atom) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%d;", tgd))
	for _, a := range img {
		b.WriteString(fmt.Sprintf("%d(", a.Pred))
		for _, t := range a.Args {
			b.WriteString(fmt.Sprintf("%d:%d,", t.Kind(), t.ID()))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// CertainAnswers chases the database and evaluates the CQ over the result,
// returning the certain answers (Proposition 2.1). If the chase truncated,
// the answers are a sound under-approximation and Truncated is reported.
// Programs with negation are chased stratum by stratum (see Run).
func CertainAnswers(prog *logic.Program, db *storage.DB, q *logic.CQ, opt Options) ([][]term.Term, *Result, error) {
	res, err := Run(prog, db, opt)
	if err != nil {
		return nil, nil, err
	}
	return plan.EvalCQ(res.DB, q), res, nil
}
