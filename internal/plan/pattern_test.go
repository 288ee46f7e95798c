package plan

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

// TestPatternsMatchNaive: over random instances and conjunctions, one
// Patterns cache — so shapes compiled for earlier rounds' constants serve
// later rounds — enumerates exactly the homomorphisms the naive reference
// finds, each once, and Exists agrees with it.
func TestPatternsMatchNaive(t *testing.T) {
	var ps Patterns
	rng := rand.New(rand.NewSource(0x9a77))
	for i := 0; i < 300; i++ {
		src := randCQSource(rng)
		r, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("generated source failed to parse: %v\n%s", err, src)
		}
		db := storage.NewDB()
		db.InsertAll(r.Facts)
		atoms := r.Queries[0].Atoms
		var vars []term.Term // the variables, once some match reports them
		var got [][]term.Term
		ps.Each(db, atoms, func(vs, vals []term.Term) bool {
			vars = vs
			got = append(got, append([]term.Term(nil), vals...))
			return true
		})
		storage.SortTuples(got)
		want := naiveCQ(db, &logic.CQ{Output: vars, Atoms: atoms})
		if !sameAnswers(got, want) {
			t.Fatalf("round %d: patterns %v, naive %v\n%s", i, got, want, src)
		}
		if ps.Exists(db, atoms) != (len(want) > 0) {
			t.Fatalf("round %d: Exists = %v with %d naive matches\n%s", i, !(len(want) > 0), len(want), src)
		}
	}
	if len(ps.byShape) >= 300 {
		t.Errorf("%d shapes compiled for 300 conjunctions: no plan was shared", len(ps.byShape))
	}
}
