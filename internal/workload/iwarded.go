package workload

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

// Shape labels the recursion shape of a generated scenario, matching the
// Section 1.2 taxonomy.
type Shape int

const (
	// ShapePWL: recursion is directly piece-wise linear (~55% of the
	// paper's benchmark suites).
	ShapePWL Shape = iota
	// ShapeLinearizable: non-PWL, but the unnecessary non-linear recursion
	// can be eliminated (~15%).
	ShapeLinearizable
	// ShapeNonPWL: inherently non-piece-wise-linear recursion (~30%).
	ShapeNonPWL
)

func (s Shape) String() string {
	switch s {
	case ShapePWL:
		return "pwl"
	case ShapeLinearizable:
		return "linearizable"
	default:
		return "non-pwl"
	}
}

// Scenario is one generated warded TGD set with data and a query.
type Scenario struct {
	Name    string
	Shape   Shape
	Program *logic.Program
	DB      *storage.DB
	Query   *logic.CQ
}

// SuiteParams configures GenSuite. Fractions follow the paper's observed
// mix by default (55/15/30).
type SuiteParams struct {
	N            int
	FracPWL      float64
	FracLineariz float64
	Seed         int64
	DataSize     int // EDB facts per scenario
	ModulesPer   int // rule modules per scenario
}

// DefaultSuiteParams returns the paper's §1.2 mix.
func DefaultSuiteParams(n int, seed int64) SuiteParams {
	return SuiteParams{N: n, FracPWL: 0.55, FracLineariz: 0.15, Seed: seed,
		DataSize: 60, ModulesPer: 3}
}

// GenSuite generates an iWarded-style suite of warded scenarios with the
// configured recursion-shape mix.
func GenSuite(p SuiteParams) ([]*Scenario, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	var out []*Scenario
	for i := 0; i < p.N; i++ {
		var shape Shape
		switch f := rng.Float64(); {
		case f < p.FracPWL:
			shape = ShapePWL
		case f < p.FracPWL+p.FracLineariz:
			shape = ShapeLinearizable
		default:
			shape = ShapeNonPWL
		}
		sc, err := GenScenario(shape, rng.Int63(), p)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		sc.Name = fmt.Sprintf("iwarded_%03d_%s", i, shape)
		out = append(out, sc)
	}
	return out, nil
}

// GenScenario generates a single warded scenario of the given shape: a few
// rule modules over a shared EDB, random data, and a reachability-style
// query over the last module's predicate.
func GenScenario(shape Shape, seed int64, p SuiteParams) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	modules := maxi(1, p.ModulesPer)
	prev := ""
	for m := 0; m < modules; m++ {
		// The FIRST module carries the scenario's recursion shape; later
		// modules are PWL layers that add size and predicate levels.
		ms := ShapePWL
		if m == 0 {
			ms = shape
		}
		prev = writeModule(&b, m, ms, prev, rng)
	}
	src := b.String()
	res, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("generated source failed to parse: %w\n%s", err, src)
	}
	prog := res.Program
	// Random data over every EDB predicate, in predicate order: the draws
	// share one rng, so ranging over the map itself would make the
	// instance depend on the iteration order, not just the seed.
	db := storage.NewDB()
	edb := slices.Sorted(maps.Keys(prog.EDB()))
	n := maxi(4, p.DataSize/8)
	for _, pred := range edb {
		ar := prog.Reg.Arity(pred)
		per := maxi(1, p.DataSize/maxi(1, len(edb)))
		for i := 0; i < per; i++ {
			args := make([]term.Term, ar)
			for j := range args {
				args[j] = prog.Store.Const(fmt.Sprintf("d%d", rng.Intn(n)))
			}
			db.Insert(atom.New(pred, args...))
		}
	}
	q, err := queryFor(prog, prev)
	if err != nil {
		return nil, err
	}
	return &Scenario{Shape: shape, Program: prog, DB: db, Query: q}, nil
}

// writeModule appends one rule module to the source and returns the name
// of its principal head predicate. prev, when non-empty, is bridged in so
// that modules stack into multiple predicate levels.
func writeModule(b *strings.Builder, m int, shape Shape, prev string, rng *rand.Rand) string {
	src := fmt.Sprintf("src%d", m)
	pn := fmt.Sprintf("p%d", m)
	if prev != "" {
		// Bridge from the previous module (keeps PWL: prev is not
		// mutually recursive with this module's predicates).
		fmt.Fprintf(b, "%s(X,Y) :- %s(X,Y).\n", pn, prev)
	}
	switch shape {
	case ShapePWL:
		switch rng.Intn(3) {
		case 0: // linear transitive closure
			fmt.Fprintf(b, "%s(X,Y) :- %s(X,Y).\n", pn, src)
			fmt.Fprintf(b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", pn, src, pn)
		case 1: // existential ping-pong (warded, PWL, infinite chase)
			q := fmt.Sprintf("q%d", m)
			fmt.Fprintf(b, "%s(X,Y) :- %s(X,Y).\n", pn, src)
			fmt.Fprintf(b, "%s(X,W) :- %s(X,Y).\n", q, pn)
			fmt.Fprintf(b, "%s(Y,Z) :- %s(Y,Z).\n", pn, q)
		default: // recursion through a harmless join
			h := fmt.Sprintf("hlp%d", m)
			fmt.Fprintf(b, "%s(X,Y) :- %s(X,Y).\n", pn, src)
			fmt.Fprintf(b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", pn, pn, h)
		}
	case ShapeLinearizable: // associative transitive closure
		fmt.Fprintf(b, "%s(X,Y) :- %s(X,Y).\n", pn, src)
		fmt.Fprintf(b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", pn, pn, pn)
	case ShapeNonPWL: // two mutually recursive predicates, joined
		s := fmt.Sprintf("s%d", m)
		src2 := fmt.Sprintf("src%db", m)
		fmt.Fprintf(b, "%s(X,Y) :- %s(X,Y).\n", pn, src)
		fmt.Fprintf(b, "%s(X,Y) :- %s(X,Y).\n", s, src2)
		fmt.Fprintf(b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", s, pn, s)
		fmt.Fprintf(b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", pn, s, pn)
	}
	return pn
}

// queryFor builds ?(X,Y) :- pred(X,Y) (or the unary analogue) over the
// program's naming context.
func queryFor(prog *logic.Program, predName string) (*logic.CQ, error) {
	id, ok := prog.Reg.Lookup(predName)
	if !ok {
		return nil, fmt.Errorf("workload: predicate %s missing", predName)
	}
	ar := prog.Reg.Arity(id)
	outs := make([]term.Term, ar)
	for i := range outs {
		var err error
		if outs[i], err = prog.Store.FreshVar(fmt.Sprintf("qv%d_", i)); err != nil {
			return nil, err
		}
	}
	return &logic.CQ{Output: outs, Atoms: []atom.Atom{atom.New(id, outs...)}}, nil
}
