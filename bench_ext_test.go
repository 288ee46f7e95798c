package repro

import (
	"fmt"
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/incremental"
	"repro/internal/prooftree"
	"repro/internal/storage"
	"repro/internal/workload"
)

// --------------------------------------------------------------------
// E15 — engine ablation: the four complete answering strategies on a
// non-recursive existential ontology (the regime where they all apply):
// linear proof-tree search (Theorem 4.2's algorithm), guide-structure
// chase (Proposition 2.1), materialized UCQ rewriting (Theorem 4.7's
// q_Σ, per [16,22]), and the Theorem 6.3 Datalog translation. Metric:
// time per full certain-answer computation at growing data size. The
// expected shape: the chase scales with data (it materializes), the UCQ
// rewriting is data-independent to build and cheap to evaluate, the
// proof-tree search sits between, and the translation pays a large
// one-off rewriting cost.
// --------------------------------------------------------------------

const ontologySrc = `
staff(X) :- professor(X).
person(X) :- staff(X).
employed(X,E) :- staff(X).
hasEmployer(X) :- employed(X,E).
`

func BenchmarkE15_EngineAblation(b *testing.B) {
	for _, size := range []int{50, 200, 800} {
		var data string
		for i := 0; i < size; i++ {
			data += fmt.Sprintf("professor(p%d).\n", i)
		}
		src := ontologySrc + data + `?(X) :- person(X).`
		for _, engine := range []struct {
			name  string
			strat core.Strategy
		}{
			{"prooftree", core.ProofTreeLinear},
			{"chase", core.ChaseEngine},
			{"ucq", core.UCQRewrite},
			{"translate", core.Translated},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", size, engine.name), func(b *testing.B) {
				r, db, qs, err := core.FromSource(src)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var answers int
				for i := 0; i < b.N; i++ {
					ans, info, err := r.CertainAnswers(db, qs[0], engine.strat)
					if err != nil {
						b.Fatal(err)
					}
					if info.Incomplete {
						b.Fatal("engine reported incomplete on a complete regime")
					}
					answers = len(ans)
				}
				if answers != size+0 { // professors only; staff/person close over them
					b.Fatalf("answers = %d, want %d", answers, size)
				}
				b.ReportMetric(float64(answers), "answers")
			})
		}
	}
}

// --------------------------------------------------------------------
// E17 — the chase oracle, the search accelerator that is an option (one
// materialization pruning states that embed in no chase extension),
// against the search with the atom-wise refutation cache alone. Metric:
// visited states and wall time for a full certain-answer enumeration with
// a negative-heavy candidate space.
// --------------------------------------------------------------------

func BenchmarkE17_PruningAblation(b *testing.B) {
	res := mustParse(b, tcLinear+`?(X,Y) :- t(X,Y).`)
	prog := res.Program
	g := workload.RandomDigraph(18, 26, 3) // sparse: most pairs unreachable
	db := g.DB(prog, "e", "n")
	q := res.Queries[0]
	configs := []struct {
		name string
		opt  prooftree.Options
	}{
		{"full", prooftree.Options{Mode: prooftree.Linear}},
		{"oracle", prooftree.Options{Mode: prooftree.Linear}}, // Oracle filled below
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			opt := cfg.opt
			if cfg.name == "oracle" {
				cres, err := chase.Run(prog, db, chase.Default())
				if err != nil {
					b.Fatal(err)
				}
				opt.Oracle = cres.DB
			}
			b.ResetTimer()
			var visited, answers int
			for i := 0; i < b.N; i++ {
				ans, st, err := prooftree.Answers(prog, db, q, opt)
				if err != nil {
					b.Fatal(err)
				}
				visited = st.Visited
				answers = len(ans)
			}
			b.ReportMetric(float64(visited), "visited")
			b.ReportMetric(float64(answers), "answers")
		})
	}
}

// --------------------------------------------------------------------
// E16 — §7 future work (3) taken past reachability: DRed incremental
// maintenance of a full Datalog materialization vs from-scratch
// recomputation, over a mixed insert/delete stream.
// --------------------------------------------------------------------

// The workload is a sparse tree-like DAG: each deletion invalidates one
// small cone of the closure, which is the regime incremental maintenance
// targets. (On a dense strongly connected graph DRed degenerates — one
// deleted edge overdeletes most of the closure and rederives it — and
// recomputation wins; EXPERIMENTS.md records both.)
func BenchmarkE16_IncrementalMaintenance(b *testing.B) {
	res := mustParse(b, tcLinear)
	prog := res.Program
	g := workload.BinaryTree(7) // 255 nodes, 254 edges, closure depth 7
	e := prog.Reg.Intern("e", 2)
	mkEdge := func(x, y int) atom.Atom {
		return atom.New(e,
			prog.Store.Const(fmt.Sprintf("n%d", x)),
			prog.Store.Const(fmt.Sprintf("n%d", y)))
	}
	base := storage.NewDB()
	for _, ed := range g.Edges {
		base.Insert(mkEdge(ed[0], ed[1]))
	}
	// The update stream: delete then re-insert ~30 edges spread over all
	// tree depths (every 8th edge), mixing cheap leaf updates with
	// expensive near-root ones.
	var stream [][2]int
	for i := 0; i < len(g.Edges); i += 8 {
		stream = append(stream, g.Edges[i])
	}

	b.Run("dred", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := incremental.New(prog, base)
			if err != nil {
				b.Fatal(err)
			}
			for _, ed := range stream {
				if err := eng.Delete(mkEdge(ed[0], ed[1])); err != nil {
					b.Fatal(err)
				}
				if err := eng.Insert(mkEdge(ed[0], ed[1])); err != nil {
					b.Fatal(err)
				}
			}
			st := eng.Stats()
			b.ReportMetric(float64(st.Rederived), "rederived")
			b.ReportMetric(float64(eng.DB().Len()), "facts")
		}
	})
	b.Run("recompute-each", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			work := base.Clone()
			var facts int
			for range stream {
				// Each update triggers a full re-materialization.
				out, _, err := datalog.Eval(prog, work, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
				if err != nil {
					b.Fatal(err)
				}
				facts = out.Len()
			}
			b.ReportMetric(float64(facts), "facts")
		}
	})
}
