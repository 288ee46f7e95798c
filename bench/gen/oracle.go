package gen

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/term"
)

// Oracle computes expected answers in the driver process, independently
// of the service code path: the program is materialized with
// datalog.Eval, queries are answered with plan.EvalCQ, rule-defined
// views by a second datalog.Eval over the materialization.
type Oracle struct {
	prog *logic.Program
	db   *storage.DB
	// views caches view materializations by rules text: a fixed-shape
	// view is evaluated once however many constants are asked of it.
	views map[string]*storage.DB
}

// EvalOpts are the options the service materializes programs and views
// with; the oracle and the ladder's datalog rung use the same.
var EvalOpts = datalog.Options{Stratify: true, BiasRecursiveAtom: true}

// NewOracle materializes rules over the given binary facts
// (pred → rows of constant names).
func NewOracle(rules string, facts map[string][][2]string) (*Oracle, error) {
	res, err := parser.Parse(rules)
	if err != nil {
		return nil, fmt.Errorf("oracle: rules: %w", err)
	}
	prog := res.Program
	base := storage.NewDB()
	base.InsertAll(res.Facts)
	for pred, rows := range facts {
		pid := prog.Reg.Intern(pred, 2)
		for _, r := range rows {
			base.InsertArgs(pid, []term.Term{prog.Store.Const(r[0]), prog.Store.Const(r[1])})
		}
	}
	db, _, err := datalog.Eval(prog, base, EvalOpts)
	if err != nil {
		return nil, fmt.Errorf("oracle: eval: %w", err)
	}
	return &Oracle{prog: prog, db: db, views: map[string]*storage.DB{}}, nil
}

// Facts is the size of the materialized instance.
func (o *Oracle) Facts() int { return o.db.Len() }

// Answers evaluates query text ("view rules + one query", the /query
// "query" form) and returns the answer tuples as constant names.
func (o *Oracle) Answers(src string) ([][]string, error) {
	tmp := &logic.Program{Store: o.prog.Store, Reg: o.prog.Reg}
	res, err := parser.ParseInto(tmp, src)
	if err != nil {
		return nil, fmt.Errorf("oracle: query: %w", err)
	}
	if len(res.Queries) != 1 {
		return nil, fmt.Errorf("oracle: want one query, got %d", len(res.Queries))
	}
	db := o.db
	if len(tmp.TGDs) > 0 {
		key := tmp.String()
		if db = o.views[key]; db == nil {
			if db, _, err = datalog.Eval(tmp, o.db, EvalOpts); err != nil {
				return nil, fmt.Errorf("oracle: view: %w", err)
			}
			o.views[key] = db
		}
	}
	tuples := plan.EvalCQ(db, res.Queries[0])
	out := make([][]string, len(tuples))
	for i, t := range tuples {
		out[i] = o.prog.Store.Names(t)
	}
	return out, nil
}

// Pattern answers a pattern read ("_" is a free position) by turning it
// into the equivalent conjunctive query.
func (o *Oracle) Pattern(pred string, args []string) ([][]string, error) {
	return o.Answers(patternQuery(pred, args))
}

// patternQuery renders pred(args) with "_" positions as output
// variables; bound positions are repeated in the output so the answer
// has the pattern's full arity, as the service's pattern path returns.
func patternQuery(pred string, args []string) string {
	terms := make([]string, len(args))
	for i, a := range args {
		if a == "_" || a == "" {
			terms[i] = fmt.Sprintf("V%d", i)
		} else {
			terms[i] = a
		}
	}
	list := ""
	for i, t := range terms {
		if i > 0 {
			list += ","
		}
		list += t
	}
	return fmt.Sprintf("?(%s) :- %s(%s).", list, pred, list)
}

// want fills a read op's expectation from the oracle. Complete answers
// are pinned by count and hash; answers the limit cuts short by count
// and membership.
func (o *Oracle) want(op *Op) error {
	var (
		ans [][]string
		err error
	)
	if op.Query != "" {
		ans, err = o.Answers(op.Query)
	} else {
		ans, err = o.Pattern(op.Pred, op.Args)
	}
	if err != nil {
		return err
	}
	if op.Limit > 0 && len(ans) > op.Limit {
		within := make(map[uint64]struct{}, len(ans))
		for _, t := range ans {
			within[TupleHash(t)] = struct{}{}
		}
		op.Want = Want{Rows: op.Limit, Truncated: true, Within: within}
		return nil
	}
	op.Want = Want{Rows: len(ans), Hash: AnswerHash(ans)}
	return nil
}
