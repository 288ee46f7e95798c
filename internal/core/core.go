// Package core is the public facade of the reproduction: a Reasoner that
// classifies a TGD program (warded? piece-wise linear?) and answers
// conjunctive queries with the engine the classification licenses —
// the space-efficient linear proof-tree search for WARD ∩ PWL (Theorem
// 4.2), the alternating proof-tree search or the guide-structure chase for
// WARD (Proposition 3.2), and a budgeted chase fallback otherwise
// (CQAns(PWL) alone is undecidable, Theorem 5.1, so the fallback is
// necessarily incomplete).
package core

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/prooftree"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/ucq"
)

// Strategy selects the answering engine.
type Strategy int

const (
	// Auto picks the best engine the program's class allows.
	Auto Strategy = iota
	// ProofTreeLinear forces the linear proof-tree search (WARD ∩ PWL).
	ProofTreeLinear
	// ProofTreeAlternating forces the alternating proof-tree search (WARD).
	ProofTreeAlternating
	// ChaseEngine forces the guide-structure chase.
	ChaseEngine
	// Translated rewrites the query to piece-wise linear Datalog (Theorem
	// 6.3) and evaluates it bottom-up.
	Translated
	// UCQRewrite materializes the (possibly partial) UCQ rewriting q_Σ of
	// Theorem 4.7 by exhaustive chunk-based resolution and evaluates it
	// over the database. Complete for non-recursive programs; reports
	// Incomplete when the closure hits its budget.
	UCQRewrite
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case ProofTreeLinear:
		return "prooftree-linear"
	case ProofTreeAlternating:
		return "prooftree-alternating"
	case ChaseEngine:
		return "chase"
	case Translated:
		return "translated-datalog"
	case UCQRewrite:
		return "ucq-rewriting"
	default:
		return fmt.Sprintf("strategy(%d)", s)
	}
}

// Info reports which engine answered and its effort.
type Info struct {
	Strategy Strategy
	// Class is the program classification that guided Auto.
	Class analysis.Class
	// ProofStats is set for the proof-tree strategies.
	ProofStats *prooftree.Stats
	// ChaseStats is set for the chase strategy.
	ChaseStats *chase.Result
	// UCQStats is set for the UCQRewrite strategy.
	UCQStats *ucq.Result
	// Incomplete reports that the engine could not guarantee completeness
	// (budgeted chase on a non-warded program, or a truncated chase).
	Incomplete bool
}

// Reasoner answers conjunctive queries under a fixed TGD program.
type Reasoner struct {
	prog  *logic.Program
	class analysis.Class
	// ChaseOptions configures the chase strategy; defaults to
	// chase.Default().
	ChaseOptions chase.Options
	// ProofOptions configures the proof-tree strategies (Mode is set per
	// strategy).
	ProofOptions prooftree.Options
	// UCQOptions configures the UCQRewrite strategy.
	UCQOptions ucq.Options
	// HybridOracle runs one termination-controlled chase per query and
	// hands it to the proof-tree search as a pruning oracle. This trades
	// the pure log-space-per-state profile for dramatically faster
	// decisions on dense instances (the practical hybrid; see
	// prooftree.Options.Oracle).
	HybridOracle bool
}

// New builds a reasoner for the program.
func New(prog *logic.Program) *Reasoner {
	return &Reasoner{
		prog:         prog,
		class:        analysis.Classify(prog),
		ChaseOptions: chase.Default(),
		ProofOptions: prooftree.Options{MaxVisited: 5_000_000},
		// The UCQ closure is infinite on recursive programs and its state
		// widths grow without a bound, so the facade defaults are tight;
		// raise them for deep non-recursive unfoldings.
		UCQOptions: ucq.Options{MaxStates: 2000, MaxAtoms: 16, MaxChunk: 3},
	}
}

// FromSource parses a self-contained source text (rules, facts, queries)
// and returns the reasoner, the database, and the parsed queries.
func FromSource(src string) (*Reasoner, *storage.DB, []*logic.CQ, error) {
	res, err := parser.Parse(src)
	if err != nil {
		return nil, nil, nil, err
	}
	db := storage.NewDB()
	db.InsertAll(res.Facts)
	return New(res.Program), db, res.Queries, nil
}

// Program exposes the underlying program (shared naming context).
func (r *Reasoner) Program() *logic.Program { return r.prog }

// Class returns the program classification (wardedness, piece-wise
// linearity, levels, ...).
func (r *Reasoner) Class() analysis.Class { return r.class }

// pick resolves Auto to a concrete strategy.
func (r *Reasoner) pick(s Strategy) Strategy {
	if s != Auto {
		return s
	}
	switch {
	case r.class.HasNegation:
		// The proof-tree machinery is resolution over positive TGDs; mild
		// stratified negation is answered by the stratified chase.
		return ChaseEngine
	case r.class.Warded && r.class.PWL:
		return ProofTreeLinear
	case r.class.Warded:
		return ChaseEngine
	default:
		return ChaseEngine // best effort; may be incomplete
	}
}

// checkStrategy rejects strategy/program combinations that are unsound:
// the resolution-based engines do not support negated body atoms.
func (r *Reasoner) checkStrategy(s Strategy) error {
	if r.class.HasNegation && s != ChaseEngine {
		return fmt.Errorf("core: strategy %v does not support negation; use the chase", s)
	}
	return nil
}

// IsCertain decides whether the tuple is a certain answer of the query
// (the decision problem CQAns of §2). The proof-tree strategies decide
// the tuple alone; the others compute CertainAnswers and look it up.
func (r *Reasoner) IsCertain(db *storage.DB, q *logic.CQ, tuple []term.Term, s Strategy) (bool, *Info, error) {
	strat := r.pick(s)
	if strat != ProofTreeLinear && strat != ProofTreeAlternating {
		ans, info, err := r.CertainAnswers(db, q, strat)
		if err != nil {
			return false, info, err
		}
		return slices.ContainsFunc(ans, func(a []term.Term) bool { return slices.Equal(a, tuple) }), info, nil
	}
	info := &Info{Strategy: strat, Class: r.class}
	if err := r.checkStrategy(strat); err != nil {
		return false, info, err
	}
	opt, err := r.proofOpts(strat, db)
	if err != nil {
		return false, info, err
	}
	ok, st, err := prooftree.Decide(r.prog, db, q, tuple, opt)
	info.ProofStats = st
	return ok, info, err
}

// CertainAnswers computes all certain answers of the query.
func (r *Reasoner) CertainAnswers(db *storage.DB, q *logic.CQ, s Strategy) ([][]term.Term, *Info, error) {
	strat := r.pick(s)
	info := &Info{Strategy: strat, Class: r.class}
	if err := r.checkStrategy(strat); err != nil {
		return nil, info, err
	}
	switch strat {
	case ProofTreeLinear, ProofTreeAlternating:
		opt, err := r.proofOpts(strat, db)
		if err != nil {
			return nil, info, err
		}
		ans, st, err := prooftree.Answers(r.prog, db, q, opt)
		info.ProofStats = st
		return ans, info, err
	case Translated:
		ans, inc, err := r.translatedAnswers(db, q)
		info.Incomplete = inc
		return ans, info, err
	case UCQRewrite:
		ans, ures, err := ucq.Answers(r.prog, db, q, r.UCQOptions)
		if err != nil {
			return nil, info, err
		}
		info.UCQStats = ures
		info.Incomplete = !ures.Complete
		return ans, info, nil
	default:
		ans, res, err := chase.CertainAnswers(r.prog, db, q, r.ChaseOptions)
		if err != nil {
			return nil, info, err
		}
		info.ChaseStats = res
		info.Incomplete = res.Truncated || !r.class.Warded
		return ans, info, nil
	}
}

// proofOpts assembles the proof-tree options for a strategy, building the
// hybrid oracle when configured.
func (r *Reasoner) proofOpts(strat Strategy, db *storage.DB) (prooftree.Options, error) {
	opt := r.ProofOptions
	if strat == ProofTreeLinear {
		opt.Mode = prooftree.Linear
	} else {
		opt.Mode = prooftree.Alternating
	}
	if r.HybridOracle && opt.Oracle == nil {
		cres, err := chase.Run(r.prog, db, r.ChaseOptions)
		if err != nil {
			return opt, err
		}
		opt.Oracle = cres.DB
	}
	return opt, nil
}

// translatedAnswers runs the Theorem 6.3 pipeline: rewrite to piece-wise
// linear Datalog, evaluate bottom-up with the stratified engine.
func (r *Reasoner) translatedAnswers(db *storage.DB, q *logic.CQ) ([][]term.Term, bool, error) {
	tr, err := rewrite.Translate(r.prog, q, rewrite.Options{})
	if err != nil {
		return nil, false, err
	}
	ans, _, err := datalogAnswers(tr, db)
	return ans, false, err
}
