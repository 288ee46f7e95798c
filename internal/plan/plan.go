// Package plan compiles rules into executable plans — the shared,
// space-efficient execution pipeline behind the Datalog fixpoint engines
// and the chase.
//
// The paper's space-efficiency argument (The Space-Efficient Core of
// Vadalog, PODS 2019, §7) rests on the engine doing bounded, reusable work
// per rule: the join strategy of a rule is a property of the rule and the
// schema, not of the fixpoint round. Following the Vadalog pipeline
// architecture (Bellomarini et al., VLDB 2018), each TGD is compiled ONCE
// into a RulePlan holding, per delta-atom position:
//
//   - exactly one join order, fixed at compile time: under
//     Options.DeltaFirst the delta atom first and the rest by a greedy
//     bound-variable heuristic (the §7(2) bias), the written order
//     otherwise;
//   - one storage.ScanPlan per body atom with pre-resolved index
//     selections and per-position argument modes;
//   - slot assignments for every rule variable, so bindings live in a
//     flat, reusable frame instead of a per-binding map substitution;
//   - instantiation templates for head, negated-body, and body atoms.
//
// Semi-naive Datalog evaluation (internal/datalog), incremental insertion,
// deletion and rederivation (internal/incremental), and the chase
// (internal/chase) all run their rounds on one driver (Fixpoint) that
// executes RulePlans through Exec; the only per-binding allocation left on
// the hot path is the derived fact itself.
package plan

import (
	"sync"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/term"
)

// Options configures compilation.
type Options struct {
	// DeltaFirst places the delta atom first in every variant's join order
	// and orders the remaining atoms greedily by bound-position count (the
	// §7(2) bias towards the recursive atom). When false, each variant
	// keeps the written body order and applies the delta restriction in
	// place — the unbiased baseline of experiment E8.
	DeltaFirst bool
	// NeedBodyImage keeps every body variable live so Exec.BodyImage and
	// Exec.Frame expose the full trigger image (the chase needs this for
	// trigger keys, memoization, provenance, and null-depth tracking).
	// When false, body variables read by no later scan and no head or
	// negated-body template are projected away: their scan positions
	// compile to storage.ArgSkip and the probe never writes the slot.
	// Consumers that leave this false must not call Exec.BodyImage.
	NeedBodyImage bool
}

// Program is a compiled program: one RulePlan per TGD, sharing the source
// program's naming context.
type Program struct {
	Source *logic.Program
	Rules  []*RulePlan

	analyze  sync.Once
	analysis *analysis.Analysis
}

// Analysis returns the syntactic analysis of the compiled rules, computed
// on first use: like the plans it is a function of the rule set alone, so
// a program its owner keeps and re-evaluates is analyzed once, not once
// per evaluation. It reads the rules the plans were compiled from, not
// Source.TGDs, which the owner may have grown since.
func (p *Program) Analysis() *analysis.Analysis {
	p.analyze.Do(func() {
		src := &logic.Program{Store: p.Source.Store, Reg: p.Source.Reg}
		for _, r := range p.Rules {
			src.Add(r.TGD)
		}
		p.analysis = analysis.Analyze(src)
	})
	return p.analysis
}

// Compile compiles every TGD of the program. Compilation touches only the
// rules and the schema — never the data — so a compiled program is valid
// for any instance and any number of fixpoint rounds.
func Compile(prog *logic.Program, opt Options) *Program {
	out := &Program{Source: prog, Rules: make([]*RulePlan, len(prog.TGDs))}
	for i, t := range prog.TGDs {
		out.Rules[i] = compileRule(i, t, opt)
	}
	return out
}

// RulePlan is one compiled TGD.
type RulePlan struct {
	TGDIndex int
	TGD      *logic.TGD

	// NumSlots is the frame size: one slot per distinct rule variable.
	// Slots [0, BodySlots) are body variables in order of first occurrence;
	// slots [BodySlots, NumSlots) are existential head variables.
	NumSlots  int
	BodySlots int
	// Slots maps slot index -> variable (diagnostics and tests).
	Slots []term.Term
	// ExistSlots are the slots of existential head variables, filled by the
	// chase with fresh nulls just before head instantiation.
	ExistSlots []int
	// Frontier lists the frontier variables (body vars occurring in the
	// head) with their slots — the slots HeadCheck compares against.
	Frontier []SlotVar

	// Body, Neg, Head instantiate the trigger image, the negated body
	// atoms, and the head atoms from a frame.
	Body []Template
	Neg  []Template
	Head []Template

	// Variants[di] is the join plan that treats body atom di as the
	// semi-naive delta position. Every variant is compiled up front;
	// selecting a delta position per round is an index, not a computation.
	// The same variants run the row-list rounds of DRed's overestimate
	// (Fixpoint.RunRows), which pin the delta scan to one stored row
	// instead of a delta window.
	Variants []*Variant

	// Rederive is the head-bound join behind DRed's support search and
	// rederivation (Exec.Supports): the whole body ordered greedily under
	// the head-bound slot set, every slot the head binds compiled as a
	// comparison (storage.ArgBound) and every body variable unread past
	// the join projected away. Compiled only for full single-head rules
	// (one head atom, no existential variables); nil otherwise.
	Rederive *JoinPlan

	// Union, for a union rule — one positive body atom over distinct
	// variables, one head atom over another predicate holding exactly
	// those — is the body column each head position reads; nil otherwise.
	Union []int

	// HeadCheck is the restricted chase's test that a trigger's head
	// already holds (Exec.HeadSatisfied): the head atoms ordered greedily
	// under the frontier slots, every frontier slot compiled as a
	// comparison and every existential variable unread past the join
	// projected away. A full single-head rule compiles to one ground
	// existence check.
	HeadCheck *JoinPlan
}

// SlotVar pairs a rule variable with its frame slot.
type SlotVar struct {
	Var  term.Term
	Slot int
}

// Variant is the compiled join for one delta-atom position: exactly one
// join order, fixed at compile time.
type Variant struct {
	// DeltaPos is the body atom index carrying the delta restriction.
	DeltaPos int
	// JoinPlan is the join order: delta atom first plus greedy
	// bound-variable connectivity under Options.DeltaFirst, the written
	// order otherwise.
	JoinPlan
}

// JoinPlan is one fixed join order for a delta position: the atom order
// and one ScanPlan per step.
type JoinPlan struct {
	// DeltaStep is the delta atom's position in Order (0 when the delta
	// atom leads).
	DeltaStep int
	// Order holds body atom indexes in join order.
	Order []int
	// Scans[k] is the access path for body atom Order[k].
	Scans []*storage.ScanPlan
}

// Template instantiates one rule atom from a frame.
type Template struct {
	Pred schema.PredID
	Args []TemplateArg
}

// TemplateArg is one template position: a frame slot, or a constant when
// Slot < 0.
type TemplateArg struct {
	Slot  int
	Const term.Term
}

// Instantiate builds the atom under the frame. All referenced slots must be
// bound; the returned atom owns a fresh argument slice (it may be stored).
func (t *Template) Instantiate(frame []term.Term) atom.Atom {
	return atom.Atom{Pred: t.Pred, Args: t.AppendArgs(make([]term.Term, 0, len(t.Args)), frame)}
}

// AppendArgs appends the template's argument tuple under the frame to dst
// and returns it — the scratch-buffer instantiation path of Exec.HeadArgs
// and Exec.Blocked.
func (t *Template) AppendArgs(dst, frame []term.Term) []term.Term {
	for _, a := range t.Args {
		if a.Slot < 0 {
			dst = append(dst, a.Const)
		} else {
			dst = append(dst, frame[a.Slot])
		}
	}
	return dst
}

func compileRule(idx int, t *logic.TGD, opt Options) *RulePlan {
	r := &RulePlan{TGDIndex: idx, TGD: t}
	slotOf := make(map[term.Term]int)
	intern := func(v term.Term) int {
		if s, ok := slotOf[v]; ok {
			return s
		}
		s := len(r.Slots)
		slotOf[v] = s
		r.Slots = append(r.Slots, v)
		return s
	}
	for _, a := range t.Body {
		for _, x := range a.Args {
			if x.IsVar() {
				intern(x)
			}
		}
	}
	r.BodySlots = len(r.Slots)
	for _, a := range t.Head {
		for _, x := range a.Args {
			if x.IsVar() {
				before := len(r.Slots)
				s := intern(x)
				if len(r.Slots) > before {
					// Newly interned here, i.e. not a body variable:
					// existential. Repeated occurrences hit the intern
					// cache and are not appended again.
					r.ExistSlots = append(r.ExistSlots, s)
				}
			}
		}
	}
	r.NumSlots = len(r.Slots)
	for s := 0; s < r.BodySlots; s++ {
		v := r.Slots[s]
		if inHead(t.Head, v) {
			r.Frontier = append(r.Frontier, SlotVar{Var: v, Slot: s})
		}
	}
	r.Body = compileTemplates(t.Body, slotOf)
	r.Neg = compileTemplates(t.NegBody, slotOf)
	r.Head = compileTemplates(t.Head, slotOf)
	if len(t.Body) == 1 && len(t.NegBody) == 0 && len(t.Head) == 1 && t.Head[0].Pred != t.Body[0].Pred &&
		r.BodySlots == len(t.Body[0].Args) && len(r.Frontier) == r.BodySlots && len(t.Head[0].Args) == r.BodySlots {
		// A union rule: the body's distinct variables hold slots 0, 1, …
		// in position order, and each fills one head position.
		for _, a := range r.Head[0].Args {
			r.Union = append(r.Union, a.Slot)
		}
	}
	// Template liveness: slots read after the join finishes. Frontier slots
	// are a subset of head-template slots, so they need no separate marking.
	live := make([]bool, r.NumSlots)
	markTemplateSlots(live, r.Head)
	markTemplateSlots(live, r.Neg)
	if opt.NeedBodyImage {
		markTemplateSlots(live, r.Body)
	}
	frontier := make([]bool, r.NumSlots)
	for _, f := range r.Frontier {
		frontier[f.Slot] = true
	}
	r.HeadCheck = compileJoin(t.Head, greedyOrderBound(t.Head, slotOf, frontier), -1, slotOf, make([]bool, r.NumSlots), frontier)
	r.Variants = make([]*Variant, len(t.Body))
	for di := range t.Body {
		r.Variants[di] = compileVariant(t.Body, di, slotOf, live, opt)
	}
	if len(t.Head) == 1 && len(r.ExistSlots) == 0 && len(t.Body) > 0 {
		headBound := make([]bool, r.NumSlots)
		for _, a := range r.Head[0].Args {
			if a.Slot >= 0 {
				headBound[a.Slot] = true
			}
		}
		ord := greedyOrderBound(t.Body, slotOf, headBound)
		// Liveness is empty: a rederive run instantiates no template, so
		// any slot the join itself does not compare is projected away.
		r.Rederive = compileJoin(t.Body, ord, -1, slotOf, make([]bool, r.NumSlots), headBound)
	}
	return r
}

// markTemplateSlots marks every frame slot a template reads.
func markTemplateSlots(live []bool, ts []Template) {
	for _, t := range ts {
		for _, a := range t.Args {
			if a.Slot >= 0 {
				live[a.Slot] = true
			}
		}
	}
}

func inHead(head []atom.Atom, v term.Term) bool {
	for _, a := range head {
		for _, x := range a.Args {
			if x == v {
				return true
			}
		}
	}
	return false
}

func compileTemplates(atoms []atom.Atom, slotOf map[term.Term]int) []Template {
	out := make([]Template, len(atoms))
	for i, a := range atoms {
		args := make([]TemplateArg, len(a.Args))
		for j, x := range a.Args {
			if x.IsVar() {
				s, ok := slotOf[x]
				if !ok {
					// Every head variable is interned before templates are
					// built, so only an unsafe negated-body variable (one
					// occurring solely under "not") can be missing. That is
					// invalid input — Program.Validate rejects it — and
					// silently mapping it to slot 0 would corrupt results,
					// so compiling it is a programming error.
					panic("plan: variable without a slot (unsafe negation?)")
				}
				args[j] = TemplateArg{Slot: s}
			} else {
				args[j] = TemplateArg{Slot: -1, Const: x}
			}
		}
		out[i] = Template{Pred: a.Pred, Args: args}
	}
	return out
}

// compileVariant compiles the join order for one delta position: the
// delta-first greedy order under DeltaFirst, the written order otherwise.
func compileVariant(body []atom.Atom, di int, slotOf map[term.Term]int, live []bool, opt Options) *Variant {
	var ord []int
	if opt.DeltaFirst {
		ord = greedyOrder(body, di, slotOf)
	} else {
		ord = make([]int, len(body))
		for i := range ord {
			ord[i] = i
		}
	}
	return &Variant{DeltaPos: di, JoinPlan: *compileJoin(body, ord, di, slotOf, live, nil)}
}

// compileJoin fixes one join order for one delta position, assigns
// per-position argument modes against the statically known bound-slot set,
// projects away dead bindings, and compiles each step's scan. bound0,
// when non-nil, seeds the bound-slot set (the head-bound slots of a
// rederive plan, whose positions then compile to comparisons); di < 0
// compiles a plan with no delta position.
func compileJoin(body []atom.Atom, order []int, di int, slotOf map[term.Term]int, live []bool, bound0 []bool) *JoinPlan {
	j := &JoinPlan{Order: order}
	for k, bi := range order {
		if bi == di {
			j.DeltaStep = k
		}
	}
	bound := make([]bool, len(live))
	if bound0 != nil {
		copy(bound, bound0)
	}
	argss := make([][]storage.ScanArg, len(order))
	for k, bi := range order {
		args := make([]storage.ScanArg, len(body[bi].Args))
		for jj, x := range body[bi].Args {
			if !x.IsVar() {
				args[jj] = storage.ScanArg{Mode: storage.ArgConst, Const: x}
				continue
			}
			s := slotOf[x]
			if bound[s] {
				args[jj] = storage.ScanArg{Mode: storage.ArgBound, Slot: s}
			} else {
				args[jj] = storage.ScanArg{Mode: storage.ArgBind, Slot: s}
				bound[s] = true
			}
		}
		argss[k] = args
	}
	// Projection mask: a slot is read by the join itself when some position
	// (in this order) compares against it. Together with the template
	// liveness this is the full read set; an ArgBind whose slot nobody
	// reads is projected to ArgSkip, so the probe skips the write.
	read := append([]bool(nil), live...)
	for _, args := range argss {
		for _, a := range args {
			if a.Mode == storage.ArgBound {
				read[a.Slot] = true
			}
		}
	}
	j.Scans = make([]*storage.ScanPlan, len(order))
	for k, bi := range order {
		for jj, a := range argss[k] {
			if a.Mode == storage.ArgBind && !read[a.Slot] {
				argss[k][jj] = storage.ScanArg{Mode: storage.ArgSkip}
			}
		}
		j.Scans[k] = storage.CompileScan(body[bi].Pred, argss[k])
	}
	return j
}

// greedyOrder starts at the delta atom and repeatedly appends the unused
// atom with the most bound argument positions (constants count as bound);
// ties break towards the lowest body index, making the order deterministic.
// Note this is a connected ordering, not the delta-first + written order
// the pre-plan Datalog engine used: for rules with three or more body
// atoms the biased join order (and hence Stats.Probes) can differ from
// pre-refactor runs, by design — the connected order prunes earlier.
// greedyOrderBound orders the whole body greedily under an initial set of
// bound slots — the rederive-plan analogue of greedyOrder, with the
// head-bound slots playing the role of the already-matched delta atom.
func greedyOrderBound(body []atom.Atom, slotOf map[term.Term]int, bound0 []bool) []int {
	bound := make(map[int]bool)
	for s, b := range bound0 {
		if b {
			bound[s] = true
		}
	}
	return greedyExtend(body, slotOf, make([]bool, len(body)), bound, make([]int, 0, len(body)))
}

func greedyOrder(body []atom.Atom, di int, slotOf map[term.Term]int) []int {
	n := len(body)
	used := make([]bool, n)
	bound := make(map[int]bool)
	used[di] = true
	for _, x := range body[di].Args {
		if x.IsVar() {
			bound[slotOf[x]] = true
		}
	}
	return greedyExtend(body, slotOf, used, bound, append(make([]int, 0, n), di))
}

// greedyExtend appends the remaining atoms to order greedily: most bound
// argument positions first (constants count as bound), ties to the lowest
// body index — the shared selection loop of the delta and rederive orders.
func greedyExtend(body []atom.Atom, slotOf map[term.Term]int, used []bool, bound map[int]bool, order []int) []int {
	n := len(body)
	for len(order) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, x := range body[i].Args {
				if !x.IsVar() || bound[slotOf[x]] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		order = append(order, best)
		for _, x := range body[best].Args {
			if x.IsVar() {
				bound[slotOf[x]] = true
			}
		}
	}
	return order
}
