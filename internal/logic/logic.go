// Package logic defines the rule-level objects of the paper: tuple-
// generating dependencies (TGDs), conjunctive queries (CQs), and programs
// (finite sets of TGDs over a shared naming context).
//
// A TGD is a sentence ∀x̄∀ȳ(φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)) written body → head;
// variables in the head that do not occur in the body are existentially
// quantified (paper §2).
package logic

import (
	"fmt"
	"strings"

	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

// TGD is a single tuple-generating dependency. Body and Head are non-empty
// conjunctions of atoms over variables (no constants or nulls, per the
// paper's definition; the parser enforces the no-null part and permits
// constants only in facts and queries).
//
// NegBody holds negated body atoms — the "very mild and easy to handle
// negation" the paper invokes for SPARQL under the OWL 2 QL entailment
// regime (§1.1, key property 2). Negation is safe (every variable of a
// negated atom also occurs in the positive body) and evaluated under
// stratified semantics: the analysis package rejects programs where a
// predicate is negated within its own recursive component.
type TGD struct {
	Body []atom.Atom
	// NegBody are the negated body atoms ("not R(x̄)"). May be empty.
	NegBody []atom.Atom
	Head    []atom.Atom
	// Label is an optional human-readable identifier (e.g. source line).
	Label string
}

// Frontier returns front(σ): variables occurring in both body and head.
func (t *TGD) Frontier() map[term.Term]bool {
	bv := atom.VarSet(t.Body)
	out := make(map[term.Term]bool)
	for _, a := range t.Head {
		for _, x := range a.Args {
			if x.IsVar() && bv[x] {
				out[x] = true
			}
		}
	}
	return out
}

// Existentials returns var∃(σ): head variables not occurring in the body.
func (t *TGD) Existentials() map[term.Term]bool {
	bv := atom.VarSet(t.Body)
	out := make(map[term.Term]bool)
	for _, a := range t.Head {
		for _, x := range a.Args {
			if x.IsVar() && !bv[x] {
				out[x] = true
			}
		}
	}
	return out
}

// BodyVars returns the set of body variables.
func (t *TGD) BodyVars() map[term.Term]bool { return atom.VarSet(t.Body) }

// IsFull reports whether the TGD has no existentially quantified variables
// (a "full TGD"; Datalog rules are full TGDs with single-atom heads, §6.1).
func (t *TGD) IsFull() bool { return len(t.Existentials()) == 0 }

// HasNegation reports whether the TGD carries negated body atoms.
func (t *TGD) HasNegation() bool { return len(t.NegBody) > 0 }

// Clone deep-copies the TGD.
func (t *TGD) Clone() *TGD {
	out := &TGD{Label: t.Label}
	for _, a := range t.Body {
		out.Body = append(out.Body, a.Clone())
	}
	for _, a := range t.NegBody {
		out.NegBody = append(out.NegBody, a.Clone())
	}
	for _, a := range t.Head {
		out.Head = append(out.Head, a.Clone())
	}
	return out
}

// Rename returns a variant of the TGD with every variable x renamed to a
// fresh variable (the paper's σ_o renaming, §4.1), using the store to mint
// names "<origName>#<tag>".
func (t *TGD) Rename(st *term.Store, tag string) *TGD {
	m := make(atom.Subst)
	ren := func(as []atom.Atom) []atom.Atom {
		out := make([]atom.Atom, len(as))
		for i, a := range as {
			args := make([]term.Term, len(a.Args))
			for j, x := range a.Args {
				if x.IsVar() {
					nx, ok := m[x]
					if !ok {
						nx = st.Var(st.Name(x) + "#" + tag)
						m[x] = nx
					}
					args[j] = nx
				} else {
					args[j] = x
				}
			}
			out[i] = atom.Atom{Pred: a.Pred, Args: args}
		}
		return out
	}
	return &TGD{Body: ren(t.Body), NegBody: ren(t.NegBody), Head: ren(t.Head), Label: t.Label}
}

// String renders the TGD as "head :- body." in the surface syntax; negated
// atoms render as "not R(x̄)" after the positive atoms.
func (t *TGD) String(st *term.Store, reg *schema.Registry) string {
	hs := make([]string, len(t.Head))
	for i, a := range t.Head {
		hs[i] = a.String(st, reg)
	}
	bs := make([]string, 0, len(t.Body)+len(t.NegBody))
	for _, a := range t.Body {
		bs = append(bs, a.String(st, reg))
	}
	for _, a := range t.NegBody {
		bs = append(bs, "not "+a.String(st, reg))
	}
	return strings.Join(hs, ", ") + " :- " + strings.Join(bs, ", ") + "."
}

// CQ is a conjunctive query q(x̄) ← R1(z̄1),...,Rn(z̄n). Output holds the
// output (distinguished) variables x̄ in order; Atoms the body.
// Output terms may also be constants after instantiation (the algorithm of
// §4.3 instantiates output variables with the candidate tuple c̄).
type CQ struct {
	Output []term.Term
	Atoms  []atom.Atom
}

// Clone deep-copies the CQ.
func (q *CQ) Clone() *CQ {
	out := &CQ{Output: append([]term.Term(nil), q.Output...)}
	for _, a := range q.Atoms {
		out.Atoms = append(out.Atoms, a.Clone())
	}
	return out
}

// Vars returns the set of variables of the query (body plus output).
func (q *CQ) Vars() map[term.Term]bool {
	vs := atom.VarSet(q.Atoms)
	for _, t := range q.Output {
		if t.IsVar() {
			vs[t] = true
		}
	}
	return vs
}

// IsBoolean reports whether the query has no output variables.
func (q *CQ) IsBoolean() bool { return len(q.Output) == 0 }

// String renders the CQ in rule syntax "?(x̄) :- atoms."
func (q *CQ) String(st *term.Store, reg *schema.Registry) string {
	outs := make([]string, len(q.Output))
	for i, t := range q.Output {
		outs[i] = st.Name(t)
	}
	bs := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		bs[i] = a.String(st, reg)
	}
	return "?(" + strings.Join(outs, ",") + ") :- " + strings.Join(bs, ", ") + "."
}

// Program is a finite set of TGDs over a shared naming context, together
// with that context. It is the unit the analyses and engines operate on.
type Program struct {
	TGDs  []*TGD
	Store *term.Store
	Reg   *schema.Registry
}

// NewProgram returns an empty program with fresh naming contexts.
func NewProgram() *Program {
	return &Program{Store: term.NewStore(), Reg: schema.NewRegistry()}
}

// Add appends a TGD.
func (p *Program) Add(t *TGD) { p.TGDs = append(p.TGDs, t) }

// Schema returns sch(Σ): the set of predicates occurring in the program,
// including predicates that occur only under negation.
func (p *Program) Schema() map[schema.PredID]bool {
	out := make(map[schema.PredID]bool)
	for _, t := range p.TGDs {
		for _, a := range t.Body {
			out[a.Pred] = true
		}
		for _, a := range t.NegBody {
			out[a.Pred] = true
		}
		for _, a := range t.Head {
			out[a.Pred] = true
		}
	}
	return out
}

// HasNegation reports whether any TGD of the program carries negation.
func (p *Program) HasNegation() bool {
	for _, t := range p.TGDs {
		if t.HasNegation() {
			return true
		}
	}
	return false
}

// HeadPreds returns the intensional predicates: those occurring in some head.
func (p *Program) HeadPreds() map[schema.PredID]bool {
	out := make(map[schema.PredID]bool)
	for _, t := range p.TGDs {
		for _, a := range t.Head {
			out[a.Pred] = true
		}
	}
	return out
}

// EDB returns edb(Σ): predicates of the schema that never occur in a head
// (paper §6: the extensional schema).
func (p *Program) EDB() map[schema.PredID]bool {
	heads := p.HeadPreds()
	out := make(map[schema.PredID]bool)
	for pr := range p.Schema() {
		if !heads[pr] {
			out[pr] = true
		}
	}
	return out
}

// MaxBodySize returns max_{σ∈Σ} |body(σ)|, a factor of both node-width
// polynomials (§4.2). Zero for an empty program.
func (p *Program) MaxBodySize() int {
	m := 0
	for _, t := range p.TGDs {
		if len(t.Body) > m {
			m = len(t.Body)
		}
	}
	return m
}

// String renders the whole program, one TGD per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, t := range p.TGDs {
		b.WriteString(t.String(p.Store, p.Reg))
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate performs structural sanity checks: non-empty bodies and heads,
// no nulls in rules, consistent arities (already enforced by the registry),
// and safe negation — every variable of a negated atom must also occur in
// the positive body, so that negated atoms are ground whenever the positive
// body is matched. It returns the first problem found.
func (p *Program) Validate() error {
	for i, t := range p.TGDs {
		if len(t.Body) == 0 {
			return fmt.Errorf("tgd %d (%s): empty body", i, t.Label)
		}
		if len(t.Head) == 0 {
			return fmt.Errorf("tgd %d (%s): empty head", i, t.Label)
		}
		all := make([]atom.Atom, 0, len(t.Body)+len(t.NegBody)+len(t.Head))
		all = append(all, t.Body...)
		all = append(all, t.NegBody...)
		all = append(all, t.Head...)
		for _, a := range all {
			for _, x := range a.Args {
				if x.IsNull() {
					return fmt.Errorf("tgd %d (%s): null in rule", i, t.Label)
				}
			}
		}
		if t.HasNegation() {
			pos := atom.VarSet(t.Body)
			for _, a := range t.NegBody {
				for _, x := range a.Args {
					if x.IsVar() && !pos[x] {
						return fmt.Errorf("tgd %d (%s): unsafe negation: variable %s occurs only under 'not'",
							i, t.Label, p.Store.Name(x))
					}
				}
			}
		}
	}
	return nil
}
