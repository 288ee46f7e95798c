package plan

import (
	"sync"

	"repro/internal/logic"
	"repro/internal/storage"
	"repro/internal/term"
)

// Compiled conjunctive queries.
//
// The evaluation of a CQ q(x̄) over an instance I is the set of tuples h(x̄)
// of CONSTANTS with h a homomorphism from atoms(q) to I (paper §2). Nulls
// may be used by h internally but never appear in answer tuples. A CQPlan
// runs the query through the machinery the fixpoint engines use: variables
// live in a flat
// slot frame, the body joins through a greedy-ordered ScanPlan chain with
// per-position argument modes (constants as ArgConst index keys, dead
// variables projected to ArgSkip, fully bound atoms resolved through the
// relation dedup table in O(1)), and answers deduplicate on term identity
// through a storage.TupleSet. Results stream through a yield callback, so
// a limit stops the join early instead of truncating a materialized set.
// The dedup sets are recycled across runs and plans (dedupSets): a bulk
// answer reuses the table an earlier one grew instead of regrowing its own.
//
// A CQPlan is compiled from the query and the schema only — never the data
// — so one plan serves any instance (the reasoning service caches plans
// per (generation, CQ shape) and runs them against whichever epoch
// snapshot or view overlay a query pins).

// CQPlan is one compiled conjunctive query. Plans are immutable and safe
// for concurrent runs (each run owns its frame and, for the run's
// duration, its dedup set).
type CQPlan struct {
	// Arity is the answer tuple width (len of the query's output row).
	Arity int
	// NumSlots is the frame size: one slot per distinct query variable.
	NumSlots int
	// Out instantiates the answer tuple from the frame: one TemplateArg per
	// output position (constant output positions carry the constant).
	Out []TemplateArg
	// Scans is the compiled join: one access path per body atom, in greedy
	// join order.
	Scans []*storage.ScanPlan
	// Order is the greedy join order behind Scans: Order[k] is the index
	// of the body atom Scans[k] was compiled from. Exposed for explain
	// traces; read-only.
	Order []int

	// unsat marks a query with an output variable occurring in no body
	// atom: no homomorphism can instantiate it to a constant, so the query
	// has no answers over any instance and Run yields nothing.
	unsat bool
}

// cqCancelStride is how many row matches pass between budget checks on
// the enumeration hot path.
const cqCancelStride = 1024

// dedupSets recycles the answer sets of finished runs. A set is emptied
// when it is taken (TupleSet.Reset costs what its last answer held, not
// its table), and one that held more than maxPooledAnswers is dropped
// rather than kept, so the pool never pins a rare huge answer's table.
var dedupSets = sync.Pool{New: func() any { return storage.NewTupleSet(0) }}

const maxPooledAnswers = 1 << 16

// CompileCQ compiles the query: slot assignment in order of first
// occurrence, greedy bound-connectivity join order (constants count as
// bound, so the most selective atom leads), per-position argument modes
// against the statically known bound-slot set, and projection of every
// variable no later scan or output position reads.
func CompileCQ(q *logic.CQ) *CQPlan {
	p := &CQPlan{Arity: len(q.Output)}
	slotOf := make(map[term.Term]int)
	var slots []term.Term
	intern := func(v term.Term) int {
		if s, ok := slotOf[v]; ok {
			return s
		}
		s := len(slots)
		slotOf[v] = s
		slots = append(slots, v)
		return s
	}
	for _, a := range q.Atoms {
		for _, x := range a.Args {
			if x.IsVar() {
				intern(x)
			}
		}
	}
	p.NumSlots = len(slots)
	p.Out = make([]TemplateArg, len(q.Output))
	live := make([]bool, p.NumSlots)
	for i, t := range q.Output {
		if !t.IsVar() {
			p.Out[i] = TemplateArg{Slot: -1, Const: t}
			continue
		}
		s, ok := slotOf[t]
		if !ok {
			// An output variable bound by no body atom stays a variable
			// under every homomorphism — never a constant answer.
			p.unsat = true
			return p
		}
		p.Out[i] = TemplateArg{Slot: s}
		live[s] = true
	}
	ord := greedyOrderBound(q.Atoms, slotOf, make([]bool, p.NumSlots))
	p.Scans = compileJoin(q.Atoms, ord, -1, slotOf, live, nil).Scans
	p.Order = ord
	return p
}

// Run enumerates the distinct answer tuples of the plan over the instance:
// tuples of constants only (rows binding an output slot to a null are
// skipped), deduplicated on term identity, in the plan's deterministic
// enumeration order. yield's tuple argument is reused between calls —
// callers retaining it must copy. yield returning false stops the
// enumeration immediately (the limit pushdown path); a boolean (arity 0)
// query stops at its first body match either way. Run reports whether the
// enumeration ran to completion.
func (p *CQPlan) Run(db *storage.DB, yield func(tup []term.Term) bool) bool {
	done, _, _ := p.run(nil, db, yield)
	return done
}

// RunBudgetTraced is Run charged against a budget and recorded into tr:
// every cqCancelStride row matches flush into the budget's probe counter
// and poll its limits and deadline — a cross-product query burns gas even
// when the limit pushdown never fires — and tr gets the compiled join
// order and the row-match count. A nil bud or tr behaves like Run. The
// completion flag reports false when yield stopped the run early or the
// budget tripped.
func (p *CQPlan) RunBudgetTraced(bud *Budget, tr *Tracer, db *storage.DB, yield func(tup []term.Term) bool) (bool, error) {
	done, matches, err := p.run(bud, db, yield)
	tr.CQ(p.Order, matches)
	return done, err
}

func (p *CQPlan) run(bud *Budget, db *storage.DB, yield func(tup []term.Term) bool) (bool, int, error) {
	if p.unsat {
		return true, 0, nil
	}
	if err := bud.Check(); err != nil {
		return false, 0, err
	}
	frame := storage.NewFrame(p.NumSlots)
	out := make([]term.Term, p.Arity)
	seen := dedupSets.Get().(*storage.TupleSet)
	seen.Reset(p.Arity)
	var budErr error
	completed := true
	matches := 0
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(p.Scans) {
			for i := range p.Out {
				a := &p.Out[i]
				if a.Slot < 0 {
					out[i] = a.Const
					continue
				}
				v := frame[a.Slot]
				if !v.IsConst() {
					return true // answers are constant tuples; nulls match but never answer
				}
				out[i] = v
			}
			if !seen.Add(out) {
				return true
			}
			if !yield(out) {
				completed = false
				return false
			}
			if p.Arity == 0 {
				// A boolean query has exactly one possible answer; the
				// first witness ends the enumeration.
				return false
			}
			return true
		}
		return db.ProbeWithRow(p.Scans[k], frame, 0, 0, 1, func(int32) bool {
			matches++
			if matches%cqCancelStride == 0 {
				if err := bud.AddProbes(cqCancelStride); err != nil {
					budErr = err
					completed = false
					return false
				}
			}
			return rec(k + 1)
		})
	}
	rec(0)
	if seen.Len() <= maxPooledAnswers {
		dedupSets.Put(seen)
	}
	return completed, matches, budErr
}

// EvalCQ evaluates q over db through a freshly compiled CQPlan, returning
// the full answer set — constant tuples, deduplicated — in
// storage.SortTuples order (per-position (Kind, ID) comparison). Output
// positions holding constants act as selections.
func EvalCQ(db *storage.DB, q *logic.CQ) [][]term.Term {
	p := CompileCQ(q)
	var answers [][]term.Term
	p.Run(db, func(tup []term.Term) bool {
		answers = append(answers, append([]term.Term(nil), tup...))
		return true
	})
	storage.SortTuples(answers)
	return answers
}
