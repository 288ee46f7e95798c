package workload

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/logic"
)

func TestGraphShapes(t *testing.T) {
	if g := Chain(5); len(g.Edges) != 4 || g.N != 5 {
		t.Errorf("Chain(5): %d edges", len(g.Edges))
	}
	if g := Cycle(5); len(g.Edges) != 5 {
		t.Errorf("Cycle(5): %d edges", len(g.Edges))
	}
	if g := Grid(3, 2); len(g.Edges) != 7 { // 2 rows: 2*2 right + 3 down
		t.Errorf("Grid(3,2): %d edges", len(g.Edges))
	}
	if g := BinaryTree(2); g.N != 7 || len(g.Edges) != 6 {
		t.Errorf("BinaryTree(2): n=%d edges=%d", g.N, len(g.Edges))
	}
	g := RandomDigraph(10, 20, 1)
	if len(g.Edges) != 20 {
		t.Errorf("RandomDigraph: %d edges", len(g.Edges))
	}
	seen := map[[2]int]bool{}
	for _, e := range g.Edges {
		if e[0] == e[1] {
			t.Errorf("self loop generated")
		}
		if seen[e] {
			t.Errorf("duplicate edge %v", e)
		}
		seen[e] = true
	}
	// Determinism.
	g2 := RandomDigraph(10, 20, 1)
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatalf("RandomDigraph not deterministic")
		}
	}
}

func TestGraphFactsAndDB(t *testing.T) {
	prog := logic.NewProgram()
	g := Chain(4)
	db := g.DB(prog, "e", "n")
	if db.Len() != 3 {
		t.Fatalf("db len = %d", db.Len())
	}
	// Chain TC has n*(n-1)/2 pairs.
	if _, err := prog.Reg.Lookup("e"); false {
		_ = err
	}
}

func TestChainClosureCount(t *testing.T) {
	// End-to-end sanity: |TC(chain n)| = n(n-1)/2.
	res, err := GenOWL(OWLParams{Classes: 1, Chains: 1, Restrictions: 0, Individuals: 0})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	prog := logic.NewProgram()
	g := Chain(6)
	db := g.DB(prog, "e", "n")
	srcProg, err := parseTC(prog)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := datalog.Eval(srcProg, db, datalog.Options{Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := prog.Reg.Lookup("t")
	if got := out.CountPred(tt); got != 15 {
		t.Fatalf("|TC(chain 6)| = %d, want 15", got)
	}
}

// parseTC adds linear TC rules into an existing naming context.
func parseTC(prog *logic.Program) (*logic.Program, error) {
	x, y, z := prog.Store.Var("Xtc"), prog.Store.Var("Ytc"), prog.Store.Var("Ztc")
	e := prog.Reg.Intern("e", 2)
	tt := prog.Reg.Intern("t", 2)
	prog.Add(&logic.TGD{
		Body: []atom.Atom{atom.New(e, x, y)},
		Head: []atom.Atom{atom.New(tt, x, y)},
	})
	prog.Add(&logic.TGD{
		Body: []atom.Atom{atom.New(e, x, y), atom.New(tt, y, z)},
		Head: []atom.Atom{atom.New(tt, x, z)},
	})
	return prog, nil
}

func TestGenOWLSizes(t *testing.T) {
	o, err := GenOWL(OWLParams{Classes: 5, Chains: 2, Restrictions: 3, Individuals: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 2 chains × 4 subclass edges + 3 restrictions + 3 inverses + 10 types.
	if o.DB.Len() != 2*4+3+3+10 {
		t.Fatalf("OWL db size = %d", o.DB.Len())
	}
	a := analysis.Analyze(o.Program)
	if ok, _ := a.IsWarded(); !ok {
		t.Fatalf("OWL program must be warded")
	}
	if ok, _ := a.IsPWL(); !ok {
		t.Fatalf("OWL program must be PWL")
	}
	// The chase with termination control terminates and derives types.
	res, err := chase.Run(o.Program, o.DB, chase.Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("OWL chase truncated")
	}
	typ, _ := o.Program.Reg.Lookup("type")
	if res.DB.CountPred(typ) <= 10 {
		t.Fatalf("subclass closure should add type facts: %d", res.DB.CountPred(typ))
	}
}

func TestGenScenarioShapes(t *testing.T) {
	p := DefaultSuiteParams(1, 3)
	for _, shape := range []Shape{ShapePWL, ShapeLinearizable, ShapeNonPWL} {
		sc, err := GenScenario(shape, 42, p)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		c := analysis.Classify(sc.Program)
		if !c.Warded {
			t.Errorf("shape %v: scenario must be warded\n%s", shape, sc.Program.String())
		}
		switch shape {
		case ShapePWL:
			if !c.PWL {
				t.Errorf("PWL scenario is not PWL:\n%s", sc.Program.String())
			}
		case ShapeLinearizable:
			if c.PWL {
				t.Errorf("linearizable scenario must not be directly PWL")
			}
			if !c.Linearizable {
				t.Errorf("linearizable scenario failed to linearize:\n%s", sc.Program.String())
			}
		case ShapeNonPWL:
			if c.PWL || c.Linearizable {
				t.Errorf("non-PWL scenario classified %+v:\n%s", c, sc.Program.String())
			}
		}
		if sc.DB.Len() == 0 {
			t.Errorf("shape %v: no data generated", shape)
		}
		if sc.Query == nil || len(sc.Query.Atoms) != 1 {
			t.Errorf("shape %v: query missing", shape)
		}
	}
}

// TestGenScenarioIsAFunctionOfItsSeed: the instance used to be drawn while
// ranging over the EDB map with one shared rng, so one seed gave a
// different instance per call.
func TestGenScenarioIsAFunctionOfItsSeed(t *testing.T) {
	p := DefaultSuiteParams(1, 3)
	p.DataSize = 400
	render := func() string {
		sc, err := GenScenario(ShapePWL, 7, p)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, a := range sc.DB.All() {
			b.WriteString(a.String(sc.Program.Store, sc.Program.Reg))
			b.WriteByte('\n')
		}
		return b.String()
	}
	want := render()
	for i := 0; i < 20; i++ {
		if got := render(); got != want {
			t.Fatalf("call %d with the same seed drew a different instance", i+2)
		}
	}
}

func TestGenSuiteMix(t *testing.T) {
	suite, err := GenSuite(DefaultSuiteParams(60, 99))
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 60 {
		t.Fatalf("suite size = %d", len(suite))
	}
	counts := map[Shape]int{}
	for _, sc := range suite {
		counts[sc.Shape]++
		if sc.Name == "" {
			t.Errorf("scenario unnamed")
		}
	}
	// With 60 samples the 55/15/30 mix should be roughly visible.
	if counts[ShapePWL] < 20 {
		t.Errorf("too few PWL scenarios: %v", counts)
	}
	if counts[ShapeNonPWL] < 8 {
		t.Errorf("too few non-PWL scenarios: %v", counts)
	}
	// Determinism.
	suite2, err := GenSuite(DefaultSuiteParams(60, 99))
	if err != nil {
		t.Fatal(err)
	}
	for i := range suite {
		if suite[i].Shape != suite2[i].Shape {
			t.Fatalf("suite generation not deterministic")
		}
	}
}

func TestScenarioChaseTerminates(t *testing.T) {
	p := DefaultSuiteParams(1, 5)
	p.DataSize = 24
	for _, shape := range []Shape{ShapePWL, ShapeLinearizable, ShapeNonPWL} {
		sc, err := GenScenario(shape, 11, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chase.Run(sc.Program, sc.DB, chase.Default())
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if res.Truncated {
			t.Fatalf("shape %v: chase truncated (%d facts)", shape, res.DB.Len())
		}
	}
}
