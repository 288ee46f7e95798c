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
	// Witness is the first join step from which on no scan binds an
	// output slot: the steps from Witness on only need one complete match
	// per binding of the earlier ones (every further match repeats the
	// same answer), so a run stops them at the first.
	Witness int
	// Params places a run's parameter values (see CompileCQParams):
	// value i fills frame slot Params[i].Slot before the join, or, with
	// Slot < 0, must equal Params[i].Const. Two parameters sharing a slot
	// must carry one value.
	Params []TemplateArg

	// semi[k] marks a join step that binds no slot: every match of it
	// leaves the frame as the first did, so a run stops it at the first.
	semi []bool
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
func CompileCQ(q *logic.CQ) *CQPlan { return CompileCQParams(q, nil) }

// CompileCQParams compiles the query with run-time parameters: params[i]
// is the variable of q that a run's value i binds before the join, or a
// constant that value must equal. Parameter slots are bound from the
// start, so the greedy order and the argument modes treat a parameter
// exactly as the constant it stands for, and one plan serves every value.
func CompileCQParams(q *logic.CQ, params []term.Term) *CQPlan {
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
	if len(params) > 0 {
		p.Params = make([]TemplateArg, len(params))
		for i, x := range params {
			if x.IsVar() {
				p.Params[i] = TemplateArg{Slot: intern(x)}
			} else {
				p.Params[i] = TemplateArg{Slot: -1, Const: x}
			}
		}
	}
	p.NumSlots = len(slots)
	bound := make([]bool, p.NumSlots)
	for _, a := range p.Params {
		if a.Slot >= 0 {
			bound[a.Slot] = true
		}
	}
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
	ord := greedyOrderBound(q.Atoms, slotOf, bound)
	p.Scans = compileJoin(q.Atoms, ord, -1, slotOf, live, bound).Scans
	p.Order = ord
	p.Witness = len(p.Scans)
	for p.Witness > 0 && !binds(p.Scans[p.Witness-1], live) {
		p.Witness--
	}
	p.semi = make([]bool, len(p.Scans))
	for k, sp := range p.Scans {
		p.semi[k] = !binds(sp, nil)
	}
	return p
}

// binds reports whether the scan binds a slot marked in the mask; a nil
// mask marks every slot.
func binds(sp *storage.ScanPlan, mask []bool) bool {
	for _, a := range sp.Args {
		if a.Mode == storage.ArgBind && (mask == nil || mask[a.Slot]) {
			return true
		}
	}
	return false
}

// Redundant reports whether a run repeats work that a materialized
// intermediate result would project away: some join step binds a slot
// no output position reads, and a later step that binds slots of its own
// reads none of the slots that step binds, directly or through the steps
// between. The later step then enumerates again, unchanged, for each of
// that step's bindings (a later step binding nothing stops at its first
// match, so it costs one probe per binding) —
// the disconnected second atom of "?(X,Z) :- v(X), w(Z,c)" once per
// binding of w's existential variable, the whole of "? :- v(X), v(c)"
// once per binding of v(X) when v(c) fails. A connected join whose
// existential variables the later steps read, like the path of
// "?(Z) :- e(c,Y), e(Y,Z)", is not redundant.
func (p *CQPlan) Redundant() bool {
	live := make([]bool, p.NumSlots)
	for _, a := range p.Out {
		if a.Slot >= 0 {
			live[a.Slot] = true
		}
	}
	dep := make([]bool, p.NumSlots)
	for k, sp := range p.Scans {
		free := false
		clear(dep)
		for _, a := range sp.Args {
			if a.Mode == storage.ArgBind {
				dep[a.Slot] = true
				free = free || !live[a.Slot]
			}
		}
		if !free {
			continue
		}
		for _, later := range p.Scans[k+1:] {
			reads := false
			for _, a := range later.Args {
				reads = reads || a.Mode == storage.ArgBound && dep[a.Slot]
			}
			if !reads && binds(later, nil) {
				return true
			}
			for _, a := range later.Args {
				if a.Mode == storage.ArgBind {
					dep[a.Slot] = true
				}
			}
		}
	}
	return false
}

// Run enumerates the distinct answer tuples of the plan over the instance:
// tuples of constants only (rows binding an output slot to a null are
// skipped), deduplicated on term identity, in the plan's deterministic
// enumeration order. yield's tuple argument is reused between calls —
// callers retaining it must copy. yield returning false stops the
// enumeration immediately (the limit pushdown path); a boolean (arity 0)
// query stops at its first body match either way. Run reports whether the
// enumeration ran to completion. A plan with parameters runs through
// UCQPlan.RunBudgetTraced.
func (p *CQPlan) Run(db *storage.DB, yield func(tup []term.Term) bool) bool {
	done, _ := UCQPlan{p}.RunBudgetTraced(nil, nil, db, nil, yield)
	return done
}

// UCQPlan is a union of compiled conjunctive queries of one arity over
// one parameter list — the compiled form of a UCQ rewriting; a single
// CQPlan runs as the union of itself. Its answers are its members'
// answers, each tuple once, in member order.
type UCQPlan []*CQPlan

// RunBudgetTraced enumerates the union's distinct answers, as Run does,
// under the parameter values args (one per Params entry of each member),
// charged against a budget and recorded into tr. The members share one
// answer set and one match count: every cqCancelStride row matches flush
// into the budget's probe counter and poll its limits and deadline — a
// cross-product query burns gas even when the limit pushdown never
// fires — and a boolean union stops at its first witness. tr gets the
// last member's join order and the matches of all. A nil bud or tr
// behaves like Run. The completion flag reports false when yield stopped
// the run early or the budget tripped.
func (u UCQPlan) RunBudgetTraced(bud *Budget, tr *Tracer, db *storage.DB, args []term.Term, yield func(tup []term.Term) bool) (bool, error) {
	if err := bud.Check(); err != nil {
		return false, err
	}
	r := cqRun{bud: bud, db: db, yield: yield, done: true}
	r.seen = dedupSets.Get().(*storage.TupleSet)
	if len(u) > 0 {
		r.seen.Reset(u[0].Arity)
	}
	var order []int
	for _, p := range u {
		r.run(p, args)
		order = p.Order
		if !r.done || p.Arity == 0 && r.seen.Len() > 0 {
			break
		}
	}
	tr.CQ(order, r.matches)
	if r.seen.Len() <= maxPooledAnswers {
		dedupSets.Put(r.seen)
	}
	return r.done, r.err
}

// cqRun is one enumeration's state, shared by the members of a union:
// the answer set, the match count the budget is charged by, and the
// verdict.
type cqRun struct {
	bud     *Budget
	db      *storage.DB
	yield   func(tup []term.Term) bool
	seen    *storage.TupleSet
	out     []term.Term
	matches int
	done    bool // false once yield stopped the run or the budget tripped
	witness bool // the steps from the plan's Witness on matched
	err     error
}

// run enumerates one plan's answers under the parameter values.
func (r *cqRun) run(p *CQPlan, args []term.Term) {
	if p.unsat {
		return
	}
	frame := storage.NewFrame(p.NumSlots)
	for i, a := range p.Params {
		v := args[i]
		switch {
		case a.Slot < 0:
			if v != a.Const {
				return
			}
		case frame[a.Slot] != storage.Unbound && frame[a.Slot] != v:
			return
		default:
			frame[a.Slot] = v
		}
	}
	if cap(r.out) < p.Arity {
		r.out = make([]term.Term, p.Arity)
	}
	out := r.out[:p.Arity]
	// rec runs join step k on; false stops the run.
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(p.Scans) {
			r.witness = true
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
			if !r.seen.Add(out) {
				return true
			}
			if !r.yield(out) {
				r.done = false
				return false
			}
			// A boolean query binds no output slot (Witness is 0), so its
			// first witness ends the enumeration.
			return true
		}
		if k == p.Witness {
			r.witness = false
		}
		r.db.ProbeWithRow(p.Scans[k], frame, 0, 0, 1, func(int32) bool {
			r.matches++
			if r.matches%cqCancelStride == 0 {
				if err := r.bud.AddProbes(cqCancelStride); err != nil {
					r.err = err
					r.done = false
					return false
				}
			}
			return rec(k+1) && !(k >= p.Witness && r.witness) && !p.semi[k]
		})
		return r.done
	}
	rec(0)
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
