// Package ucq implements UCQ rewriting by exhaustive chunk-based
// resolution: given a CQ q and a set Σ of TGDs, it materializes the union
// of conjunctive queries q_Σ of Theorem 4.7 ("by exhaustively applying
// chunk-based resolution, we can construct a (possibly infinite) union of
// CQs q_Σ such that, for every database D, cert(q,D,Σ) = q_Σ(D)"; implicit
// in [16, 22] — Gottlob/Orsi/Pieris query rewriting and the König et al.
// piece-unifier rewriting).
//
// The rewriting set is infinite for recursive programs (already for linear
// transitive closure), so the closure carries a state budget: Result.
// Complete reports whether the closure saturated. A partial rewriting is
// still sound — every answer of every member CQ is a certain answer — and
// for non-recursive programs the closure always saturates, making the
// engine a complete certain-answer procedure that never looks at the data
// until evaluation time. This is the classical alternative to the chase
// that the paper's proof-tree machinery refines, and it serves here as an
// independent oracle for cross-checking the other engines.
package ucq

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/resolution"
	"repro/internal/storage"
	"repro/internal/term"
)

// frozenPrefix names the reserved constants that stand for the output
// variables during resolution ("output variables correspond to fixed
// constant values of C, and thus their name is freezed", §4.1). The NUL
// byte keeps them out of the surface-syntax namespace.
const frozenPrefix = "\x00frz"

// Options bounds the closure.
type Options struct {
	// MaxStates caps the number of distinct canonical CQ states explored;
	// 0 means 10_000. When the cap is hit the rewriting is partial and
	// Result.Complete is false.
	MaxStates int
	// MaxChunk caps the chunk size passed to resolution.MGCUs; 0 means
	// unlimited (full completeness, exponential in same-predicate atoms).
	MaxChunk int
	// MaxAtoms discards resolvents wider than this many atoms; 0 means
	// unlimited. Discarding makes the rewriting partial (Complete=false)
	// but keeps the closure finite on programs whose rewritings grow.
	MaxAtoms int
}

// Result is a materialized (possibly partial) UCQ rewriting.
type Result struct {
	// CQs are the member queries, output variables restored. CQs[0] is the
	// original query.
	CQs []*logic.CQ
	// Complete reports that the closure saturated: the UCQ is equivalent
	// to cert(q, ·, Σ) on every database.
	Complete bool
	// States is the number of distinct canonical states explored.
	States int
	// Resolutions counts the resolution steps applied.
	Resolutions int
}

// Rewrite computes the UCQ rewriting of q under prog. The program must be
// negation-free (resolution does not support negated atoms). Multi-head
// TGDs are single-head normalized first, which preserves certain answers.
func Rewrite(prog *logic.Program, q *logic.CQ, opt Options) (*Result, error) {
	if prog.HasNegation() {
		return nil, fmt.Errorf("ucq: negated body atoms are not supported by resolution")
	}
	for _, o := range q.Output {
		if !o.IsVar() {
			return nil, fmt.Errorf("ucq: constant output terms are not supported; bind them in the query body")
		}
	}
	sh := analysis.SingleHead(prog)
	st := prog.Store

	maxStates := opt.MaxStates
	if maxStates == 0 {
		maxStates = 10_000
	}

	// Freeze the output variables as reserved constants.
	freeze := atom.NewSubst()
	thaw := make(map[term.Term]term.Term, len(q.Output))
	for i, v := range q.Output {
		c := st.Const(fmt.Sprintf("%s%d", frozenPrefix, i))
		freeze[v] = c
		thaw[c] = v
	}
	init := resolution.NewState(freeze.ApplyAtoms(q.Atoms))

	res := &Result{Complete: true}
	cz := atom.NewCanonicalizer(st, nil)
	canon, key := resolution.Canonical(init, cz)
	seen := map[string]bool{key: true}
	// Breadth-first closure: on recursive programs the rewriting set is
	// infinite, and a depth-first worklist would spend the whole state
	// budget diving down one recursive branch; FIFO order guarantees the
	// partial rewriting contains every member up to some unfolding depth.
	queue := []resolution.State{canon}
	var states []resolution.State
	nonce := 0

	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		states = append(states, cur)
		for _, tgd := range sh.TGDs {
			nonce++
			rt := tgd.Rename(st, fmt.Sprintf("u%d", nonce))
			for _, ch := range resolution.MGCUs(cur, rt, opt.MaxChunk) {
				res.Resolutions++
				ns := resolution.Resolve(cur, rt, ch)
				if opt.MaxAtoms > 0 && ns.Size() > opt.MaxAtoms {
					res.Complete = false
					continue
				}
				nc, nk := resolution.Canonical(ns, cz)
				if seen[nk] {
					continue
				}
				if len(seen) >= maxStates {
					res.Complete = false
					continue
				}
				seen[nk] = true
				queue = append(queue, nc)
			}
		}
	}
	res.States = len(states)

	// Thaw: restore output variables and rebuild CQs. The original query
	// comes first (it is the first explored state).
	for _, s := range states {
		atoms := make([]atom.Atom, len(s.Atoms))
		for i, a := range s.Atoms {
			args := make([]term.Term, len(a.Args))
			for j, t := range a.Args {
				if v, ok := thaw[t]; ok {
					args[j] = v
				} else {
					args[j] = t
				}
			}
			atoms[i] = atom.New(a.Pred, args...)
		}
		res.CQs = append(res.CQs, &logic.CQ{
			Output: append([]term.Term(nil), q.Output...),
			Atoms:  atoms,
		})
	}
	return res, nil
}

// Eval evaluates the UCQ over a database: the deduplicated union of the
// member CQs' answers, in storage.SortTuples order — the order
// plan.EvalCQ, and so chase.CertainAnswers, returns.
func (r *Result) Eval(db *storage.DB) [][]term.Term {
	if len(r.CQs) == 0 {
		return nil
	}
	seen := storage.NewTupleSet(len(r.CQs[0].Output))
	var out [][]term.Term
	for _, q := range r.CQs {
		for _, tup := range plan.EvalCQ(db, q) {
			if seen.Add(tup) {
				out = append(out, tup)
			}
		}
	}
	storage.SortTuples(out)
	return out
}

// Answers rewrites and evaluates in one call. The boolean result of a
// Boolean query is len(answers) > 0 as usual (the empty tuple is returned
// once when some member CQ matches).
func Answers(prog *logic.Program, db *storage.DB, q *logic.CQ, opt Options) ([][]term.Term, *Result, error) {
	r, err := Rewrite(prog, q, opt)
	if err != nil {
		return nil, nil, err
	}
	return r.Eval(db), r, nil
}
