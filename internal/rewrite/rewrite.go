// Package rewrite implements the expressiveness translation of Theorem 6.3
// / Lemma 6.4: every query (Σ, q) with Σ ∈ WARD ∩ PWL is rewritten into an
// equivalent piece-wise linear Datalog query (Σ', q').
//
// The construction follows the paper: each node of a (potential) linear
// proof tree — a CQ p of node-width ≤ f_WARD∩PWL(q, Σ), considered up to
// canonical renaming — becomes a fresh predicate C[p] whose arguments are
// the output variables of p; each proof-tree edge becomes a full TGD
//
//	C[p1](x̄1), ..., C[pk](x̄k) → C[p0](x̄0),
//
// and each CQ over EDB predicates only becomes a base rule R1,...,Rn →
// C[p]. Because proof trees are linear, at most one body C-predicate is
// recursive, so Σ' is piece-wise linear.
//
// Implementation device: output ("frozen") variables are represented as
// reserved skolem constants. Constants are exactly what the chunk-unifier
// conditions must treat as rigid, so the resolution machinery applies
// unchanged; at rule-emission time the skolems turn back into variables.
// Instead of enumerating all CQs of bounded width (the paper's finite but
// astronomically large space), the translator explores only the states
// reachable from q via resolution, decomposition, and disconnecting
// promotions — the states that can actually occur in a proof tree of q.
package rewrite

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/prooftree"
	"repro/internal/resolution"
	"repro/internal/schema"
	"repro/internal/term"
)

// Options configures the translation.
type Options struct {
	// Bound overrides the node-width bound (0 = f_WARD∩PWL(q, Σ)).
	Bound int
	// MaxClasses bounds the number of CQ classes explored (0 = 50000).
	MaxClasses int
}

// Result carries the translated query.
type Result struct {
	// Program is the piece-wise linear Datalog program Σ'.
	Program *logic.Program
	// Query is the atomic query over the answer predicate.
	Query *logic.CQ
	// Classes is the number of CQ classes materialized.
	Classes int
	// Bound is the node-width bound used.
	Bound int
}

const skolemPrefix = "\x00sk"

// Translate rewrites (Σ, q) into an equivalent Datalog query. The input
// program should be warded and piece-wise linear for the paper's guarantees
// to apply (the translation itself only requires TGDs).
func Translate(prog *logic.Program, q *logic.CQ, opt Options) (*Result, error) {
	if prog.HasNegation() {
		return nil, fmt.Errorf("rewrite: negated body atoms are not supported by the Theorem 6.3 translation")
	}
	for _, o := range q.Output {
		if !o.IsVar() {
			return nil, fmt.Errorf("rewrite: constant output terms are not supported; use a fresh variable joined to an auxiliary fact")
		}
	}
	sh := analysis.SingleHead(prog)
	an := analysis.Analyze(sh)
	bound := opt.Bound
	if bound == 0 {
		bound = prooftree.FWardPWL(q, an)
	}
	maxClasses := opt.MaxClasses
	if maxClasses == 0 {
		maxClasses = 50000
	}
	// The skolem pool: reserved constants representing frozen outputs.
	// 2*bound*maxArity is a safe ceiling on distinct skolems per state.
	maxSk := 2 * bound * maxArity(sh)
	if n := len(q.Output); n > maxSk {
		maxSk = n
	}
	tr := newTranslator(sh, prog, bound, maxClasses, maxSk)

	// Answer predicate and root states, one per partition of the output
	// positions (the partition π of Definition 4.6).
	k := len(q.Output)
	ansPred := prog.Reg.Intern(fmt.Sprintf("ans_%d", tr.nonce), k)
	for _, part := range partitions(k) {
		// Build the root: output position i gets skolem part[i].
		sub := atom.NewSubst()
		conflict := false
		for i, o := range q.Output {
			sk := tr.skolems[part[i]]
			if cur, ok := sub[o]; ok && cur != sk {
				conflict = true // same output var in two blocks: skip
				break
			}
			sub[o] = sk
		}
		if conflict {
			continue
		}
		root := resolution.NewState(sub.ApplyAtoms(q.Atoms))
		cls, rootArgs, err := tr.classOf(root)
		if err != nil {
			return nil, err
		}
		// ans(x̄) :- C[root](...): output position i uses the variable of
		// skolem part[i].
		blockVar := make(map[int]term.Term)
		headArgs := make([]term.Term, k)
		for i := 0; i < k; i++ {
			v, ok := blockVar[part[i]]
			if !ok {
				if v, err = prog.Store.FreshVar("o"); err != nil {
					return nil, err
				}
				blockVar[part[i]] = v
			}
			headArgs[i] = v
		}
		// The class's argument j is the root's j-th skolem in canonical
		// order; map each back to its partition block to pick the right
		// rule variable.
		bodyArgs := make([]term.Term, len(rootArgs))
		for j, sk := range rootArgs {
			bodyArgs[j] = blockVar[tr.skolemIDs[sk]]
		}
		tr.out.Add(&logic.TGD{
			Body:  []atom.Atom{atom.New(cls.pred, bodyArgs...)},
			Head:  []atom.Atom{atom.New(ansPred, headArgs...)},
			Label: "ans",
		})
	}
	if err := tr.explore(); err != nil {
		return nil, err
	}
	// Final query: ans(o0,...,ok-1).
	outs := make([]term.Term, k)
	for i := range outs {
		var err error
		if outs[i], err = prog.Store.FreshVar("qo"); err != nil {
			return nil, err
		}
	}
	query := &logic.CQ{Output: outs, Atoms: []atom.Atom{atom.New(ansPred, outs...)}}
	return &Result{Program: tr.out, Query: query, Classes: len(tr.classes), Bound: bound}, nil
}

func maxArity(p *logic.Program) int {
	m := 1
	for _, t := range p.TGDs {
		for _, a := range append(append([]atom.Atom(nil), t.Body...), t.Head...) {
			if len(a.Args) > m {
				m = len(a.Args)
			}
		}
	}
	return m
}

// cqClass is one canonical CQ node label C[p].
type cqClass struct {
	id   int
	pred schema.PredID
	// state is the canonical representative (skolems renumbered §0.. in
	// first-occurrence order).
	state resolution.State
	// skolems lists the state's skolem constants in canonical order; the
	// C-predicate's argument i corresponds to skolems[i].
	skolems []term.Term
	done    bool
}

type translator struct {
	prog       *logic.Program
	edb        map[schema.PredID]bool
	bound      int
	maxClasses int
	out        *logic.Program
	classes    map[string]*cqClass
	order      []*cqClass
	skolems    []term.Term
	skolemIDs  map[term.Term]int
	// canon renames variables and skolems (separate rank spaces) over a
	// greedy atom order that never depends on concrete skolem identities,
	// so two instances of one class order corresponding atoms alike.
	canon   *atom.Canonicalizer
	renames int
	nonce   int
}

// newTranslator returns a translator of the single-head program sh whose
// output program shares prog's naming context, with a pool of nSkolems
// skolem constants.
func newTranslator(sh, prog *logic.Program, bound, maxClasses, nSkolems int) *translator {
	tr := &translator{
		prog:       sh,
		edb:        sh.EDB(),
		bound:      bound,
		maxClasses: maxClasses,
		out:        &logic.Program{Store: prog.Store, Reg: prog.Reg},
		classes:    make(map[string]*cqClass),
		skolemIDs:  make(map[term.Term]int),
		// nonce makes generated predicate names unique across multiple
		// translations over one shared naming context.
		nonce: prog.Reg.Len(),
	}
	for i := 0; i < nSkolems; i++ {
		s := prog.Store.Const(skolemPrefix + strconv.Itoa(i))
		tr.skolems = append(tr.skolems, s)
		tr.skolemIDs[s] = i
	}
	tr.canon = atom.NewCanonicalizer(prog.Store, tr.skolems)
	return tr
}

// classOf canonicalizes a state and returns (creating if needed) its
// class, with the state's concrete skolems in canonical order: the
// class's argument tuple for this instance, position by position.
func (tr *translator) classOf(st resolution.State) (*cqClass, []term.Term, error) {
	canon, key := resolution.Canonical(st, tr.canon)
	args := append([]term.Term(nil), tr.canon.Skolems()...)
	if c, ok := tr.classes[key]; ok {
		return c, args, nil
	}
	if len(tr.classes) >= tr.maxClasses {
		return nil, nil, fmt.Errorf("rewrite: class budget %d exhausted (bound %d)", tr.maxClasses, tr.bound)
	}
	id := len(tr.classes)
	pred := tr.prog.Reg.Intern(fmt.Sprintf("cq_%d_%d", tr.nonce, id), len(args))
	c := &cqClass{id: id, pred: pred, state: canon, skolems: tr.skolems[:len(args):len(args)]}
	tr.classes[key] = c
	tr.order = append(tr.order, c)
	return c, args, nil
}

// explore processes classes until closure, emitting rules.
func (tr *translator) explore() error {
	for i := 0; i < len(tr.order); i++ {
		if err := tr.expand(tr.order[i]); err != nil {
			return err
		}
	}
	return nil
}

// expand emits all rules with head C[p] for one class, under the
// normalization discipline that keeps the class space small:
//
//  1. Every class gets a leaf rule evaluating its atoms directly over D
//     (in the translated program the input predicates never occur in rule
//     heads, so they are extensional there; this also covers databases
//     with facts over the input's intensional predicates).
//  2. A decomposable class emits ONLY its decomposition — operations then
//     happen inside the (smaller) component classes. Chunk unifiers that
//     would span two components are sacrificed, mirroring the eager-split
//     normalization of linear proof trees.
//  3. A connected class emits disconnecting single-variable promotions and
//     all resolutions.
func (tr *translator) expand(c *cqClass) error {
	if c.done {
		return nil
	}
	c.done = true
	st := c.state

	// (1) Leaf rule.
	if len(st.Atoms) > 0 {
		tr.emit(c, st.Atoms)
	}

	// (2) Decomposition into variable-connected components.
	comps := resolution.Decompose(st)
	if len(comps) > 1 {
		body := make([]atom.Atom, len(comps))
		for i, comp := range comps {
			cc, args, err := tr.classOf(comp)
			if err != nil {
				return err
			}
			body[i] = atom.New(cc.pred, args...)
		}
		tr.emit(c, body)
		return nil
	}

	// (3a) Disconnecting promotions: freeze one variable as a fresh
	// skolem if that splits the state; the promoted class decomposes when
	// expanded.
	vars := make([]term.Term, 0)
	for v := range atom.VarSet(st.Atoms) {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Key() < vars[j].Key() })
	for _, v := range vars {
		fresh := tr.freshSkolem(st)
		if fresh == 0 {
			continue
		}
		promoted := resolution.State{Atoms: resolution.ApplyFlat(map[term.Term]term.Term{v: fresh}, st.Atoms)}
		if len(resolution.Decompose(promoted)) <= 1 {
			continue
		}
		pc, args, err := tr.classOf(promoted)
		if err != nil {
			return err
		}
		tr.emit(c, []atom.Atom{atom.New(pc.pred, args...)})
	}

	// (3b) Resolution with every TGD (same chunk policy as the proof
	// search: size-1 chunks for full TGDs, unlimited for existential
	// heads).
	for _, t := range tr.prog.TGDs {
		tr.renames++
		rt := t.Rename(tr.prog.Store, "w"+strconv.Itoa(tr.renames))
		maxChunk := 1
		if len(rt.Existentials()) > 0 {
			maxChunk = 0
		}
		for _, ch := range resolution.MGCUs(st, rt, maxChunk) {
			child := resolution.Resolve(st, rt, ch)
			if child.Size() > tr.bound {
				continue
			}
			cc, args, err := tr.classOf(child)
			if err != nil {
				return err
			}
			tr.emit(c, []atom.Atom{atom.New(cc.pred, args...)})
		}
	}
	return nil
}

// freshSkolem returns a pool skolem not used in the state, or the zero term
// if the pool is exhausted.
func (tr *translator) freshSkolem(st resolution.State) term.Term {
	used := make(map[term.Term]bool)
	for _, a := range st.Atoms {
		for _, t := range a.Args {
			if _, ok := tr.skolemIDs[t]; ok {
				used[t] = true
			}
		}
	}
	for _, s := range tr.skolems {
		if !used[s] {
			return s
		}
	}
	return 0
}

// emit adds a rule body → C[parent](parent skolems), turning skolem
// constants into rule variables.
func (tr *translator) emit(parent *cqClass, body []atom.Atom) {
	sub := make(map[term.Term]term.Term)
	mapTerm := func(t term.Term) term.Term {
		id, ok := tr.skolemIDs[t]
		if !ok {
			return t
		}
		if v, done := sub[t]; done {
			return v
		}
		v := tr.prog.Store.Var("sk" + strconv.Itoa(id) + "_r" + strconv.Itoa(len(tr.out.TGDs)))
		sub[t] = v
		return v
	}
	conv := func(as []atom.Atom) []atom.Atom {
		out := make([]atom.Atom, len(as))
		for i, a := range as {
			args := make([]term.Term, len(a.Args))
			for j, t := range a.Args {
				args[j] = mapTerm(t)
			}
			out[i] = atom.New(a.Pred, args...)
		}
		return out
	}
	rule := &logic.TGD{
		Body:  conv(body),
		Head:  conv([]atom.Atom{atom.New(parent.pred, parent.skolems...)}),
		Label: "tr" + strconv.Itoa(len(tr.out.TGDs)),
	}
	tr.out.Add(rule)
}

// partitions enumerates the set partitions of {0..k-1}, each returned as a
// block-index array (position i belongs to block part[i]; blocks are
// numbered by first occurrence). k = 0 yields one empty partition.
func partitions(k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	part := make([]int, k)
	var rec func(i, blocks int)
	rec = func(i, blocks int) {
		if i == k {
			out = append(out, append([]int(nil), part...))
			return
		}
		for b := 0; b <= blocks; b++ {
			part[i] = b
			nb := blocks
			if b == blocks {
				nb++
			}
			rec(i+1, nb)
		}
	}
	rec(0, 0)
	sort.SliceStable(out, func(i, j int) bool {
		for p := range out[i] {
			if out[i][p] != out[j][p] {
				return out[i][p] < out[j][p]
			}
		}
		return false
	})
	return out
}
