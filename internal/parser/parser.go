package parser

import (
	"fmt"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/term"
)

// Result is the outcome of parsing a source text: a program (the TGDs), the
// facts (the database part embedded in the source, if any), and the queries.
type Result struct {
	Program *logic.Program
	Facts   []atom.Atom
	Queries []*logic.CQ
}

// Parse parses source text into a fresh naming context.
func Parse(src string) (*Result, error) {
	return ParseInto(logic.NewProgram(), src)
}

// ParseInto parses source text into an existing program's naming context,
// appending parsed TGDs to it. This allows a database file and a rule file
// to share constants and predicates.
func ParseInto(prog *logic.Program, src string) (*Result, error) {
	p := &parser{
		lex:  newLexer(src),
		prog: prog,
		res:  &Result{Program: prog},
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.res, nil
}

// MustParse is Parse that panics on error; for tests and examples with
// constant sources.
func MustParse(src string) *Result {
	r, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return r
}

type parser struct {
	lex      *lexer
	tok      token
	prog     *logic.Program
	res      *Result
	ruleIdx  int
	freshIdx int
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errorf("expected %v, found %v %q", k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) run() error {
	if err := p.advance(); err != nil {
		return err
	}
	for p.tok.kind != tokEOF {
		if err := p.statement(); err != nil {
			return err
		}
	}
	return p.prog.Validate()
}

// statement parses one rule, fact, or query, ending with '.'.
func (p *parser) statement() error {
	if p.tok.kind == tokQuery {
		return p.query()
	}
	line := p.tok.line
	// Parse the first atom list (could be a head or a fact).
	vars := newVarScope(p)
	first, err := p.atomList(vars)
	if err != nil {
		return err
	}
	switch p.tok.kind {
	case tokDot:
		// Facts: each atom must be ground over constants.
		for _, a := range first {
			for _, t := range a.Args {
				if !t.IsConst() {
					return p.errorf("fact contains a variable (line %d)", line)
				}
			}
			p.res.Facts = append(p.res.Facts, a)
		}
		return p.advance()
	case tokImplies:
		if err := p.advance(); err != nil {
			return err
		}
		body, neg, err := p.bodyList(vars)
		if err != nil {
			return err
		}
		if len(body) == 0 {
			return p.errorf("rule body must contain at least one positive atom (line %d)", line)
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		all := append(append([]atom.Atom(nil), first...), body...)
		all = append(all, neg...)
		for _, a := range all {
			for _, t := range a.Args {
				if t.IsConst() {
					return p.errorf("constants are not allowed in TGDs (line %d); use an auxiliary fact", line)
				}
			}
		}
		p.ruleIdx++
		p.prog.Add(&logic.TGD{
			Body:    body,
			NegBody: neg,
			Head:    first,
			Label:   fmt.Sprintf("r%d@%d", p.ruleIdx, line),
		})
		return nil
	default:
		return p.errorf("expected '.' or ':-' after atom(s)")
	}
}

// query parses "?(X,Y) :- body." or "? :- body." (Boolean).
func (p *parser) query() error {
	if err := p.advance(); err != nil { // consume '?'
		return err
	}
	vars := newVarScope(p)
	var outs []term.Term
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return err
		}
		for p.tok.kind != tokRParen {
			t, err := p.term(vars)
			if err != nil {
				return err
			}
			outs = append(outs, t)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return err
				}
			}
		}
		if err := p.advance(); err != nil { // consume ')'
			return err
		}
	}
	if _, err := p.expect(tokImplies); err != nil {
		return err
	}
	body, neg, err := p.bodyList(vars)
	if err != nil {
		return err
	}
	if len(neg) > 0 {
		return p.errorf("negation is not supported in queries; move the negated atom into a rule")
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	for _, o := range outs {
		if o.IsVar() && !atom.VarSet(body)[o] {
			return p.errorf("output variable %s does not occur in the query body",
				p.prog.Store.Name(o))
		}
	}
	p.res.Queries = append(p.res.Queries, &logic.CQ{Output: outs, Atoms: body})
	return nil
}

func (p *parser) atomList(vars *varScope) ([]atom.Atom, error) {
	var out []atom.Atom
	for {
		a, err := p.atom(vars)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if p.tok.kind != tokComma {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// bodyList parses a rule body: a comma-separated list of literals, where a
// literal is an atom optionally negated by the reserved word "not" or "!".
func (p *parser) bodyList(vars *varScope) (pos, neg []atom.Atom, err error) {
	for {
		negated := false
		if p.tok.kind == tokBang {
			negated = true
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
		} else if p.tok.kind == tokIdent && p.tok.text == "not" {
			// "not" is a keyword only when it does not open an atom itself:
			// "not(" would be the predicate named not.
			save := p.tok
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			if p.tok.kind == tokIdent {
				negated = true
			} else if p.tok.kind == tokLParen {
				return nil, nil, p.errorf("'not' is a reserved word in rule bodies and cannot name a predicate (line %d)", save.line)
			} else {
				return nil, nil, p.errorf("expected an atom after 'not'")
			}
		}
		a, err := p.atom(vars)
		if err != nil {
			return nil, nil, err
		}
		if negated {
			neg = append(neg, a)
		} else {
			pos = append(pos, a)
		}
		if p.tok.kind != tokComma {
			return pos, neg, nil
		}
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
	}
}

func (p *parser) atom(vars *varScope) (atom.Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return atom.Atom{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return atom.Atom{}, err
	}
	var args []term.Term
	for p.tok.kind != tokRParen {
		t, err := p.term(vars)
		if err != nil {
			return atom.Atom{}, err
		}
		args = append(args, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return atom.Atom{}, err
			}
		} else if p.tok.kind != tokRParen {
			return atom.Atom{}, p.errorf("expected ',' or ')' in argument list")
		}
	}
	if err := p.advance(); err != nil { // consume ')'
		return atom.Atom{}, err
	}
	if !p.prog.Reg.CheckArity(name.text, len(args)) {
		return atom.Atom{}, fmt.Errorf("%d:%d: predicate %s used with conflicting arity %d",
			name.line, name.col, name.text, len(args))
	}
	pred := p.prog.Reg.Intern(name.text, len(args))
	return atom.New(pred, args...), nil
}

func (p *parser) term(vars *varScope) (term.Term, error) {
	var t term.Term
	var err error
	switch p.tok.kind {
	case tokVariable:
		t, err = vars.get(p.tok.text)
	case tokUnderscore:
		t, err = p.prog.Store.FreshVar(fmt.Sprintf("_dc%d_", vars.scope))
	case tokIdent, tokString, tokInt:
		t, err = p.prog.Store.InternConst(p.tok.text)
	default:
		return 0, p.errorf("expected a term, found %v %q", p.tok.kind, p.tok.text)
	}
	if err != nil {
		return 0, fmt.Errorf("%d:%d: %w", p.tok.line, p.tok.col, err)
	}
	return t, p.advance()
}

// varScope scopes variable names to a single statement: the same surface
// name in two different rules denotes two different logical variables. This
// guarantees that parsed TGDs are pairwise variable-disjoint, which the
// resolution machinery assumes.
type varScope struct {
	p     *parser
	scope int
	names map[string]term.Term
}

func newVarScope(p *parser) *varScope {
	p.freshIdx++
	return &varScope{p: p, scope: p.freshIdx, names: make(map[string]term.Term)}
}

func (v *varScope) get(name string) (term.Term, error) {
	if t, ok := v.names[name]; ok {
		return t, nil
	}
	t, err := v.p.prog.Store.InternVar(fmt.Sprintf("%s@%d", name, v.scope))
	if err == nil {
		v.names[name] = t
	}
	return t, err
}
