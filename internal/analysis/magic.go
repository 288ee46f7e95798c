package analysis

import (
	"bytes"
	"slices"
	"strconv"
	"strings"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/term"
)

// Magic is a magic-set rewriting of (view rules, goal): a program whose
// fixpoint over an instance holding one seed fact derives only the view
// facts the goal can reach, and the goal restated over that program. The
// goal's constants are abstracted into the seed, so one Magic serves every
// constant combination of a (rules, goal shape) pair: whoever caches it
// (the reasoning service, per generation) compiles its rules and goal
// once and reuses them for every constant.
type Magic struct {
	// Prog holds the rewritten rules: per reachable (view predicate,
	// adornment) the adorned copies of its rules — each guarded by its
	// magic atom as body atom 0, so the round-1 join drives from it — a
	// bridge rule admitting stored facts of the predicate, and the magic
	// rules passing bindings sideways.
	Prog *logic.Program
	// Query is the goal over the adorned predicates, constants replaced by
	// parameter variables; Atoms[0] is the seed atom binding them.
	Query *logic.CQ
	// Seed is the seed predicate: evaluation starts from the single fact
	// Seed(c̄), c̄ the goal's constant occurrences in body order (atom by
	// atom, argument by argument).
	Seed schema.PredID
	// MagicPreds are the magic predicates (the seed excluded).
	MagicPreds []schema.PredID
	// Adornment names the goal's adorned view atoms, e.g. "back#bf".
	Adornment string
}

// MagicSets rewrites positive full single-head view rules for demand-
// driven evaluation of the goal (magic sets: the binding propagation of
// the §4 goal-directed search, run bottom-up). View predicates are adorned
// b/f per argument from the goal's constants; bindings pass sideways only
// through atoms that themselves received one (see adornBody). On a
// piece-wise linear program whose non-recursive body atoms are stored
// predicates the magic rules follow the single recursive atom, so the
// result is piece-wise linear too; in general it is plain Datalog, which
// datalog.Eval runs just the same.
//
// Generated names contain '#', which the surface syntax reserves for
// comments, so they cannot collide with parsed predicates or variables.
//
// It returns nil when demand evaluation does not apply: a rule is not
// positive full single-head, or no view atom of the goal receives a
// binding (the goal then needs the whole view).
func MagicSets(view *logic.Program, q *logic.CQ) *Magic {
	m := &magicRewriter{
		st: view.Store, reg: view.Reg,
		rules:   make(map[schema.PredID][]*logic.TGD),
		adorned: make(map[adornedKey][2]schema.PredID),
		out:     &logic.Program{Store: view.Store, Reg: view.Reg},
	}
	for _, t := range view.TGDs {
		if len(t.Head) != 1 || t.HasNegation() || !t.IsFull() {
			return nil
		}
		m.rules[t.Head[0].Pred] = append(m.rules[t.Head[0].Pred], t)
	}
	// Abstract the goal: constant occurrence i becomes parameter C#i.
	var params []term.Term
	goal := make([]atom.Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		goal[i] = a.Clone()
		for j, x := range a.Args {
			if !x.IsVar() {
				goal[i].Args[j] = m.st.Var("C#" + strconv.Itoa(len(params)))
				params = append(params, goal[i].Args[j])
			}
		}
	}
	if len(params) == 0 {
		return nil
	}
	seed := m.reg.Intern("goal#"+strconv.Itoa(len(params)), len(params))
	body, demand := m.adornBody([]atom.Atom{atom.New(seed, params...)}, goal)
	if !demand {
		return nil
	}
	var names []string
	for i, a := range goal {
		if m.rules[a.Pred] != nil {
			names = append(names, m.reg.Name(body[i+1].Pred))
		}
	}
	for ; len(m.queue) > 0; m.queue = m.queue[1:] {
		m.adornRules(m.queue[0])
	}
	return &Magic{
		Prog:       m.out,
		Query:      &logic.CQ{Output: q.Output, Atoms: body},
		Seed:       seed,
		MagicPreds: m.magic,
		Adornment:  strings.Join(names, ","),
	}
}

// adornedKey is one (view predicate, adornment) pair; the adornment has
// one 'b' or 'f' per argument.
type adornedKey struct {
	pred schema.PredID
	ad   string
}

type magicRewriter struct {
	st    *term.Store
	reg   *schema.Registry
	rules map[schema.PredID][]*logic.TGD
	// adorned maps a pair to its adorned and magic predicates (the magic
	// one is unused when nothing is bound); queue holds the pairs whose
	// rules are still to be written.
	adorned map[adornedKey][2]schema.PredID
	queue   []adornedKey
	magic   []schema.PredID
	out     *logic.Program
}

// adorn returns the adorned and the magic predicate of the pair, queueing
// the pair's rules on first sight.
func (m *magicRewriter) adorn(k adornedKey) (adorned, magic schema.PredID) {
	if ps, ok := m.adorned[k]; ok {
		return ps[0], ps[1]
	}
	name := m.reg.Name(k.pred) + "#" + k.ad
	adorned = m.reg.Intern(name, len(k.ad))
	if nb := strings.Count(k.ad, "b"); nb > 0 {
		magic = m.reg.Intern("m#"+name, nb)
		m.magic = append(m.magic, magic)
	}
	m.adorned[k] = [2]schema.PredID{adorned, magic}
	m.queue = append(m.queue, k)
	return adorned, magic
}

// boundArgs selects the arguments at the adornment's bound positions.
func boundArgs(args []term.Term, ad string) []term.Term {
	var out []term.Term
	for i, x := range args {
		if ad[i] == 'b' {
			out = append(out, x)
		}
	}
	return out
}

// adornment marks each argument of the atom bound ('b': a constant or a
// variable in bound) or free ('f'), and reports whether any is bound.
func adornment(a atom.Atom, bound map[term.Term]bool) (ad string, restricted bool) {
	b := bytes.Repeat([]byte{'f'}, len(a.Args))
	for i, x := range a.Args {
		if !x.IsVar() || bound[x] {
			b[i], restricted = 'b', true
		}
	}
	return string(b), restricted
}

// adornBody rewrites one body (a rule's or the goal's) behind its guard:
// the goal's seed atom, a rule's magic atom, or nothing under an all-free
// head. The guard's variables start out bound. Atoms are visited
// restricted ones first (written order breaks ties), each binding its
// variables for the rest; an atom nothing restricts is a full scan, so it
// comes last and passes nothing on — its variables would demand the view
// for every value of a stored column. View atoms become adorned atoms,
// and each one that receives a binding gets its magic rule: the guard
// plus the restricted atoms visited before it imply the magic atom over
// its bound arguments. The result is the guard followed by the rewritten
// atoms in written order; demand reports whether some view atom received
// a binding.
func (m *magicRewriter) adornBody(guard, body []atom.Atom) (out []atom.Atom, demand bool) {
	out = append(slices.Clone(guard), body...)
	prefix, bound := slices.Clone(guard), atom.VarSet(guard)
	visited := make([]bool, len(body))
	for range body {
		next, ad, restricted := -1, "", false
		for i, a := range body {
			if d, r := adornment(a, bound); !visited[i] && (r || next < 0) {
				if next, ad, restricted = i, d, r; r {
					break
				}
			}
		}
		visited[next] = true
		a := body[next]
		if m.rules[a.Pred] != nil {
			if len(prefix) == 0 {
				// Only a rule constant restricts the atom and nothing
				// precedes it: a magic rule would have an empty body, so the
				// predicate is evaluated whole and the constant filters.
				ad = strings.Repeat("f", len(ad))
			}
			adorned, magic := m.adorn(adornedKey{a.Pred, ad})
			// m(x̄) :- m(x̄) — the recursive atom re-asking the head's own
			// question — says nothing and is left out.
			if head := atom.New(magic, boundArgs(a.Args, ad)...); len(head.Args) > 0 {
				demand = true
				if len(prefix) > 1 || !prefix[0].Equal(head) {
					m.out.Add(&logic.TGD{Head: []atom.Atom{head}, Body: slices.Clone(prefix)})
				}
			}
			a = atom.New(adorned, a.Args...)
			out[len(guard)+next] = a
		}
		if restricted {
			prefix = append(prefix, a)
			for _, x := range a.Args {
				if x.IsVar() {
					bound[x] = true
				}
			}
		}
	}
	return out, demand
}

// adornRules writes the rules of one adorned predicate: every rule of the
// view predicate with its body adorned behind the head's magic atom, plus
// the bridge rule copying the predicate's stored facts (a view rule's head
// may be a stored predicate; whether it holds facts varies by epoch, so
// the bridge is unconditional — over a relation nobody stored it is one
// empty probe).
func (m *magicRewriter) adornRules(k adornedKey) {
	adorned, magic := m.adorn(k)
	guard := func(args []term.Term) []atom.Atom {
		if bs := boundArgs(args, k.ad); len(bs) > 0 {
			return []atom.Atom{atom.New(magic, bs...)}
		}
		return nil
	}
	xs := make([]term.Term, len(k.ad))
	for i := range xs {
		xs[i] = m.st.Var("X#" + strconv.Itoa(i))
	}
	m.out.Add(&logic.TGD{Head: []atom.Atom{atom.New(adorned, xs...)}, Body: append(guard(xs), atom.New(k.pred, xs...))})
	for _, t := range m.rules[k.pred] {
		body, _ := m.adornBody(guard(t.Head[0].Args), t.Body)
		m.out.Add(&logic.TGD{Head: []atom.Atom{atom.New(adorned, t.Head[0].Args...)}, Body: body})
	}
}
