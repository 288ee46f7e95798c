package datalog

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/term"
	"repro/internal/workload"
)

// TestFixpointConsumesEachRowOnce: in a piece-wise linear stratum whose
// copy rule runs ahead of its recursive rule, the round driver joins each
// (p-row, e-row) pair of the recursive rule exactly once. A row copied in
// one round is not joined again in the next against the closed e, so the
// recursive rule's match count is Σ over the final p-rows of the
// out-degree of their second argument in e.
func TestFixpointConsumesEachRowOnce(t *testing.T) {
	r, _ := load(t, "p(X,Y) :- e(X,Y).\np(X,Z) :- p(X,Y), e(Y,Z).\n")
	prog := r.Program
	eP, pP := prog.Reg.Intern("e", 2), prog.Reg.Intern("p", 2)
	plans := plan.Compile(prog, plan.Options{DeltaFirst: true})
	an := plans.Analysis()
	level := make([]int, len(prog.TGDs))
	for i, tgd := range prog.TGDs {
		level[i] = an.Level(tgd.Head[0].Pred)
	}

	rng := rand.New(rand.NewSource(5))
	dag := &workload.Graph{N: 40}
	seen := make(map[[2]int]bool)
	for len(dag.Edges) < 90 {
		e := [2]int{rng.Intn(40), rng.Intn(40)}
		if e[0] < e[1] && !seen[e] {
			seen[e] = true
			dag.Edges = append(dag.Edges, e)
		}
	}

	for _, in := range []struct {
		name string
		g    *workload.Graph
	}{{"chain", workload.Chain(40)}, {"dag", dag}} {
		db := in.g.DB(prog, "e", "n")
		ref, err := Naive(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		work := db.Clone()
		matches := make([]int, len(prog.TGDs))
		fx := plan.Fixpoint{DB: work, Plans: plans, Stratified: true,
			Match: func(ri int, ex *plan.Exec) func() bool {
				return func() bool {
					matches[ri]++
					work.InsertArgs(ex.HeadArgs(0))
					return true
				}
			}}
		fx.Run(plan.GroupByLevel(level), 0)
		sameInstance(t, in.name, work, ref)

		outDeg := make(map[term.Term]int)
		for _, f := range work.Facts(eP) {
			outDeg[f.Args[0]]++
		}
		want := 0
		for _, f := range work.Facts(pP) {
			want += outDeg[f.Args[1]]
		}
		if matches[1] != want {
			t.Fatalf("%s: recursive rule matched %d times, want %d (one per p-row, e-row pair)", in.name, matches[1], want)
		}
	}
}
