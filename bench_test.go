// Package repro holds the experiment harness: one benchmark per experiment
// of DESIGN.md §4, regenerating the measurable content of the paper's
// claims (the paper is a theory paper — its "tables" are complexity and
// expressiveness statements plus the §1.2 benchmark statistics; see
// EXPERIMENTS.md for the mapping and the recorded outcomes).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/prooftree"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/tiling"
	"repro/internal/workload"
)

// tcLinear is the linear transitive-closure program (paper §1.2).
const tcLinear = `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
`

// tcAssoc is the associative (non-PWL, warded) variant.
const tcAssoc = `
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
`

func mustParse(b *testing.B, src string) *parser.Result {
	b.Helper()
	r, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func reachQuery(b *testing.B, prog *logic.Program) *logic.CQ {
	b.Helper()
	r, err := parser.ParseInto(prog, `?(A,B) :- t(A,B).`)
	if err != nil {
		b.Fatal(err)
	}
	return r.Queries[0]
}

// --------------------------------------------------------------------
// E1 — Theorem 4.2 (NLogSpace data complexity for WARD ∩ PWL): the
// per-state footprint of the linear proof-tree search stays logarithmic
// in the database size (bytes/state ~ constant atoms × log-sized constant
// names), while the number of DB facts grows linearly. Metrics: states
// visited, max bytes per state.
// --------------------------------------------------------------------

func BenchmarkE1_PWLProofSearchChain(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			res := mustParse(b, tcLinear)
			prog := res.Program
			db := workload.Chain(n).DB(prog, "e", "n")
			q := reachQuery(b, prog)
			tuple := []term.Term{prog.Store.Const("n0"), prog.Store.Const(fmt.Sprintf("n%d", n-1))}
			var last *prooftree.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, st, err := prooftree.Decide(prog, db, q, tuple, prooftree.Options{Mode: prooftree.Linear})
				if err != nil || !ok {
					b.Fatalf("decide: %v ok=%v", err, ok)
				}
				last = st
			}
			b.ReportMetric(float64(last.Visited), "states")
			b.ReportMetric(float64(last.MaxStateBytes), "bytes/state")
			b.ReportMetric(float64(last.MaxStateAtoms), "atoms/state")
		})
	}
}

func BenchmarkE1_PWLProofSearchOWL(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			// A pure subclass-chain ontology: discharge choices stay
			// forced, so the search is the OWL analogue of the chain
			// walk and the SPACE metrics isolate the Theorem 4.2 claim.
			// (Denser ontologies make the determinized search enumerate a
			// polynomially dense state space — poly TIME is exactly what
			// NL-determinization costs; see the Oracle option for the
			// hybrid that practical deployments would use.)
			o, err := workload.GenOWL(workload.OWLParams{
				Classes: n, Chains: 1, Restrictions: 0, Individuals: 1,
				NoInverses: true, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			qres, err := parser.ParseInto(o.Program, `?(X) :- type(ind_0, X).`)
			if err != nil {
				b.Fatal(err)
			}
			q := qres.Queries[0]
			// ind_0 sits at the bottom of chain 0; the chain's top class
			// is a certain answer reached through n-1 subclass steps.
			tuple := []term.Term{o.Program.Store.Const("cls_0_" + fmt.Sprint(n-1))}
			var last *prooftree.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, st, err := prooftree.Decide(o.Program, o.DB, q, tuple, prooftree.Options{Mode: prooftree.Linear})
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal("expected positive answer")
				}
				last = st
			}
			b.ReportMetric(float64(last.Visited), "states")
			b.ReportMetric(float64(last.MaxStateBytes), "bytes/state")
		})
	}
}

// --------------------------------------------------------------------
// E2 — Proposition 3.2 (PTime data complexity for WARD): the chase
// materializes the polynomial closure; facts grow quadratically on
// chains, the contrast to E1's per-state bytes.
// --------------------------------------------------------------------

func BenchmarkE2_WardedChaseChain(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Same linear TC program as E1: the contrast is pure engine —
			// per-state bytes (E1) vs materialized facts (E2).
			res := mustParse(b, tcLinear)
			prog := res.Program
			db := workload.Chain(n).DB(prog, "e", "n")
			var facts int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cres, err := chase.Run(prog, db, chase.Default())
				if err != nil || cres.Truncated {
					b.Fatalf("chase: %v truncated=%v", err, cres.Truncated)
				}
				facts = cres.DB.Len()
			}
			b.ReportMetric(float64(facts), "facts")
		})
	}
}

// --------------------------------------------------------------------
// E3 — §1.2 statistics: ~55% of scenarios use piece-wise linear recursion
// directly, ~15% more become PWL after eliminating unnecessary non-linear
// recursion (~70% total). The bench classifies a 200-scenario iWarded
// suite and reports the measured fractions.
// --------------------------------------------------------------------

func BenchmarkE3_Classification(b *testing.B) {
	suite, err := workload.GenSuite(workload.DefaultSuiteParams(200, 42))
	if err != nil {
		b.Fatal(err)
	}
	var pwl, lineariz, warded int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pwl, lineariz, warded = 0, 0, 0
		for _, sc := range suite {
			c := analysis.Classify(sc.Program)
			if c.Warded {
				warded++
			}
			if c.PWL {
				pwl++
			} else if c.Linearizable {
				lineariz++
			}
		}
	}
	b.ReportMetric(float64(pwl)/float64(len(suite))*100, "%direct-pwl")
	b.ReportMetric(float64(lineariz)/float64(len(suite))*100, "%linearizable")
	b.ReportMetric(float64(pwl+lineariz)/float64(len(suite))*100, "%pwl-total")
	b.ReportMetric(float64(warded)/float64(len(suite))*100, "%warded")
}

// --------------------------------------------------------------------
// E4 — Theorem 5.1: the tiling reduction. Faithfulness is asserted in
// internal/tiling's tests; the bench measures the bounded chase of the
// fixed PWL (non-warded) program on a solvable instance.
// --------------------------------------------------------------------

func BenchmarkE4_TilingReduction(b *testing.B) {
	sys := &tiling.System{
		Tiles: []string{"w", "k", "wr", "kr"},
		Left:  map[string]bool{"w": true, "k": true},
		Right: map[string]bool{"wr": true, "kr": true},
		Horiz: map[[2]string]bool{{"w", "wr"}: true, {"k", "kr"}: true},
		Vert: map[[2]string]bool{
			{"w", "k"}: true, {"k", "w"}: true,
			{"wr", "kr"}: true, {"kr", "wr"}: true,
		},
		Start: "w", Finish: "k",
	}
	red, err := tiling.Reduce(sys)
	if err != nil {
		b.Fatal(err)
	}
	opt := chase.Options{Restricted: true, MaxDepth: 8, MaxRounds: 200, MaxFacts: 200000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, _, err := chase.CertainAnswers(red.Program, red.DB, red.Query, opt)
		if err != nil || len(ans) != 1 {
			b.Fatalf("reduction failed: %v ans=%d", err, len(ans))
		}
	}
}

// --------------------------------------------------------------------
// E5 — Theorem 6.3: translation to piece-wise linear Datalog. The bench
// translates the TC query and evaluates the translated program, asserting
// agreement with direct evaluation.
// --------------------------------------------------------------------

func BenchmarkE5_Translation(b *testing.B) {
	src := tcLinear + `?(X,Y) :- t(X,Y).`
	res := mustParse(b, src)
	tr, err := rewrite.Translate(res.Program, res.Queries[0], rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	db := workload.Chain(24).DB(res.Program, "e", "n")
	want, _, err := datalog.Answers(res.Program, db, res.Queries[0], datalog.Options{Stratify: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(tr.Classes), "classes")
	b.ReportMetric(float64(len(tr.Program.TGDs)), "rules")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := datalog.Answers(tr.Program, db, tr.Query, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(want) {
			b.Fatalf("translation disagrees: %d vs %d", len(got), len(want))
		}
	}
}

// --------------------------------------------------------------------
// E7 — §7(1): guide-structure termination control. On an existential
// recursion the chase without the trigger memo diverges (hits the fact
// budget); with the memo it terminates with a small instance. Metrics:
// facts materialized, suppressed triggers.
// --------------------------------------------------------------------

func BenchmarkE7_TerminationControl(b *testing.B) {
	src := `
r(X,W) :- p(X).
p(Y) :- r(X,Y).
`
	for _, memo := range []bool{true, false} {
		b.Run(fmt.Sprintf("memo=%v", memo), func(b *testing.B) {
			res := mustParse(b, src)
			prog := res.Program
			db := storage.NewDB()
			p := prog.Reg.Intern("p", 1)
			for i := 0; i < 50; i++ {
				db.Insert(atom.New(p, prog.Store.Const(fmt.Sprintf("c%d", i))))
			}
			opt := chase.Options{Restricted: true, TriggerMemo: memo,
				MaxRounds: 10000, MaxFacts: 20000}
			var facts, suppressed int
			var truncated bool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cres, err := chase.Run(prog, db, opt)
				if err != nil {
					b.Fatal(err)
				}
				facts, suppressed, truncated = cres.DB.Len(), cres.SuppressedByMemo, cres.Truncated
			}
			b.ReportMetric(float64(facts), "facts")
			b.ReportMetric(float64(suppressed), "suppressed")
			b.ReportMetric(boolMetric(truncated), "truncated")
		})
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// --------------------------------------------------------------------
// E8 — §7(2): join ordering biased towards the recursive atom. Metric:
// index probes per evaluation.
// --------------------------------------------------------------------

func BenchmarkE8_JoinOrdering(b *testing.B) {
	for _, biased := range []bool{true, false} {
		b.Run(fmt.Sprintf("biased=%v", biased), func(b *testing.B) {
			res := mustParse(b, tcLinear)
			prog := res.Program
			db := workload.Chain(512).DB(prog, "e", "n")
			opt := datalog.Options{Stratify: true, BiasRecursiveAtom: biased}
			var probes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := datalog.Eval(prog, db, opt)
				if err != nil {
					b.Fatal(err)
				}
				probes = stats.Probes
			}
			b.ReportMetric(float64(probes), "probes")
		})
	}
}

// --------------------------------------------------------------------
// E9 — §7(3): materialization at stratum boundaries (stratified
// evaluation) vs one global fixpoint. Metrics: rounds and peak delta.
// --------------------------------------------------------------------

func BenchmarkE9_Materialization(b *testing.B) {
	src := tcLinear + `
reach(X) :- t(X,Y), goal(Y).
meet(X,Y) :- reach(X), reach(Y).
`
	for _, strat := range []bool{true, false} {
		b.Run(fmt.Sprintf("stratified=%v", strat), func(b *testing.B) {
			res := mustParse(b, src)
			prog := res.Program
			db := workload.Chain(256).DB(prog, "e", "n")
			goal := prog.Reg.Intern("goal", 1)
			db.Insert(atom.New(goal, prog.Store.Const("n255")))
			opt := datalog.Options{Stratify: strat, BiasRecursiveAtom: true}
			var rounds, peak int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := datalog.Eval(prog, db, opt)
				if err != nil {
					b.Fatal(err)
				}
				rounds, peak = stats.Rounds, stats.PeakDelta
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(peak), "peak-delta")
		})
	}
}

// --------------------------------------------------------------------
// E10 — §1.2 linearization: the associative TC program evaluates
// identically to its linearized form; the linear form needs fewer probes.
// --------------------------------------------------------------------

func BenchmarkE10_Linearization(b *testing.B) {
	for _, lin := range []bool{false, true} {
		b.Run(fmt.Sprintf("linearized=%v", lin), func(b *testing.B) {
			res := mustParse(b, tcAssoc)
			prog := res.Program
			if lin {
				out, changed := analysis.EliminateNonLinearRecursion(prog)
				if !changed {
					b.Fatal("linearization did not fire")
				}
				prog = out
			}
			db := workload.Chain(128).DB(prog, "e", "n")
			var derived int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := datalog.Eval(prog, db, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
				if err != nil {
					b.Fatal(err)
				}
				derived = stats.Derived
			}
			b.ReportMetric(float64(derived), "derived")
		})
	}
}

// --------------------------------------------------------------------
// P1 — the compiled-plan pipeline (internal/plan): multi-round fixpoint
// cost of the shared RulePlan execution under Eval and the chase. The TC
// chain forces one semi-naive round per path length, so per-round overhead
// (join-order recomputation, per-binding map allocation — both eliminated
// by the plan refactor) dominates. ns/op and allocs/op here are the
// before/after metric recorded in CHANGES.md.
// --------------------------------------------------------------------

func BenchmarkP1_PlanFixpointSeq(b *testing.B) {
	res := mustParse(b, tcLinear)
	prog := res.Program
	db := workload.Chain(256).DB(prog, "e", "n")
	opt := datalog.Options{Stratify: true, BiasRecursiveAtom: true}
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := datalog.Eval(prog, db, opt)
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkP1_PlanFixpointSeqBudget is BenchmarkP1_PlanFixpointSeq with a
// generous (never-tripping) budget attached: the delta against the
// unbudgeted run above is the hot-loop cost of the robustness machinery —
// one local counter decrement per probe, one shared atomic flush per
// BudgetStride. Acceptance: ≤2% overhead.
func BenchmarkP1_PlanFixpointSeqBudget(b *testing.B) {
	res := mustParse(b, tcLinear)
	prog := res.Program
	db := workload.Chain(256).DB(prog, "e", "n")
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := datalog.Options{
			Stratify: true, BiasRecursiveAtom: true,
			Budget: plan.NewBudget(nil, 0, 1<<60),
		}
		_, stats, err := datalog.Eval(prog, db, opt)
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkP1_PlanFixpointDense: a dense non-linear closure — few rounds,
// each with a wide delta — beside the deep one-fact rounds of the TC-256
// chain above.
func BenchmarkP1_PlanFixpointDense(b *testing.B) {
	const n = 128
	res := mustParse(b, tcAssoc)
	prog := res.Program
	db := workload.Chain(n).DB(prog, "e", "n")
	e := prog.Reg.Intern("e", 2)
	for i := 0; i < n; i += 3 {
		db.Insert(atom.New(e,
			prog.Store.Const(fmt.Sprintf("n%d", i)),
			prog.Store.Const(fmt.Sprintf("n%d", (i+37)%n))))
	}
	opt := datalog.Options{Stratify: true, BiasRecursiveAtom: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := datalog.Eval(prog, db, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkP1_PlanChaseTC(b *testing.B) {
	res := mustParse(b, tcLinear)
	prog := res.Program
	db := workload.Chain(256).DB(prog, "e", "n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cres, err := chase.Run(prog, db, chase.Default())
		if err != nil || cres.Truncated {
			b.Fatalf("chase: %v truncated=%v", err, cres.Truncated)
		}
	}
}

// --------------------------------------------------------------------
// E11 — PSpace combined complexity: proof-search effort grows with the
// PROGRAM (number of stacked PWL modules) at fixed data.
// --------------------------------------------------------------------

func BenchmarkE11_CombinedComplexity(b *testing.B) {
	for _, modules := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("modules=%d", modules), func(b *testing.B) {
			params := workload.DefaultSuiteParams(1, 7)
			params.ModulesPer = modules
			params.DataSize = 32
			sc, err := workload.GenScenario(workload.ShapePWL, 7, params)
			if err != nil {
				b.Fatal(err)
			}
			var last *prooftree.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := prooftree.Answers(sc.Program, sc.DB, sc.Query,
					prooftree.Options{Mode: prooftree.Linear, MaxVisited: 5_000_000})
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(float64(last.Bound), "bound")
			b.ReportMetric(float64(last.Visited), "states")
		})
	}
}
