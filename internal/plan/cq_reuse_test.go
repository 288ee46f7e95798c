package plan

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

// raceEnabled reports a -race build (race_test.go sets it): allocation
// bounds that rely on sync.Pool keeping what it is given are skipped.
var raceEnabled bool

// TestCQPlanDedupReuse: runs recycle their dedup sets (dedupSets), so a
// set that held a 30 000-answer join serves a 3-answer query next and the
// join again after it, and 8 goroutines running mixed shapes on shared
// plans trade sets among themselves. Every answer list must equal the
// reference evaluator's — which dedups through a set of its own — and
// repeat its plan's enumeration order; and a steady-state 25 000-answer
// Run allocates a small constant, not a set regrown by doubling.
func TestCQPlanDedupReuse(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 300; i++ { // a_i reaches m_(i%10) and m_(i+1%10)
		fmt.Fprintf(&src, "e(a%d,m%d). e(a%d,m%d). ", i, i%10, i, (i+1)%10)
		if i < 250 {
			fmt.Fprintf(&src, "p(a%d). ", i)
		}
	}
	for j := 0; j < 10; j++ { // every m_j reaches all 100 b_k
		for k := 0; k < 100; k++ {
			fmt.Fprintf(&src, "f(m%d,b%d). ", j, k)
		}
	}
	src.WriteString("q(b0). q(b1). q(b2). q(c).\n")
	queries := []string{
		"?(X,Z) :- e(X,Y), f(Y,Z).",       // 30 000 answers from 60 000 matches
		"?(Z) :- f(m0,Z), q(Z).",          // 3 answers
		"?(X,Z) :- e(X,Y), f(Y,Z), p(X).", // 25 000 answers
		"?(Y) :- e(X,Y).",                 // 10 answers from 600 matches
		"? :- e(a0,m1).",                  // boolean
	}
	db, r := parseCQ(t, src.String()+queries[0])
	plans := make([]*CQPlan, len(queries))
	want := make([][][]term.Term, len(queries))
	order := make([][][]term.Term, len(queries))
	for i, qs := range queries {
		res, err := parser.ParseInto(r.Program, qs)
		if err != nil {
			t.Fatal(err)
		}
		q := res.Queries[0]
		plans[i] = CompileCQ(q)
		want[i] = naiveCQ(db, q)
	}
	if len(want[0]) != 30000 || len(want[1]) != 3 || len(want[2]) != 25000 {
		t.Fatalf("fixture answers: %d, %d, %d", len(want[0]), len(want[1]), len(want[2]))
	}
	check := func(i int) bool {
		got := collect(plans[i], db)
		if order[i] != nil && !sameAnswers(got, order[i]) {
			t.Errorf("%s: enumeration order changed across runs", queries[i])
			return false
		}
		sorted := append([][]term.Term(nil), got...)
		storage.SortTuples(sorted)
		if !sameAnswers(sorted, want[i]) {
			t.Errorf("%s: %d answers, reference has %d", queries[i], len(got), len(want[i]))
			return false
		}
		order[i] = got
		return true
	}
	for _, i := range []int{0, 1, 0, 2, 3, 4} {
		check(i)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (g + k) % len(queries)
				got := collect(plans[i], db)
				if !sameAnswers(got, order[i]) {
					t.Errorf("goroutine %d: %s: %d answers, want %d in the plan's order", g, queries[i], len(got), len(order[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()

	n := 0
	allocs := testing.AllocsPerRun(5, func() {
		plans[2].Run(db, func([]term.Term) bool { n++; return true })
	})
	// The race detector makes sync.Pool drop a random share of Puts.
	if allocs > 4 && !raceEnabled {
		t.Errorf("a steady-state 25 000-answer Run allocates %v times, want <= 4", allocs)
	}
}
