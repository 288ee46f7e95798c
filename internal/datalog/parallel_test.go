package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

func TestParallelMatchesSequentialTC(t *testing.T) {
	var b strings.Builder
	b.WriteString(tcLinear)
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, (i+1)%30)
	}
	r, db := load(t, b.String())
	want, _, err := Eval(r.Program, db, Options{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, stats, err := EvalParallel(r.Program, db, Options{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d facts, want %d", workers, got.Len(), want.Len())
		}
		for _, f := range want.All() {
			if !got.Contains(f) {
				t.Fatalf("workers=%d: missing fact", workers)
			}
		}
		if stats.Derived != 30*30 { // t over a 30-cycle: every ordered pair
			t.Fatalf("workers=%d: derived = %d, want 900", workers, stats.Derived)
		}
	}
}

func TestParallelRejectsBadInput(t *testing.T) {
	r, db := load(t, tcLinear)
	if _, _, err := EvalParallel(r.Program, db, Options{}, 0); err == nil {
		t.Fatalf("workers=0 accepted")
	}
	r2, db2 := load(t, `r(X,Z) :- p(X).`)
	if _, _, err := EvalParallel(r2.Program, db2, Options{}, 2); err == nil {
		t.Fatalf("existential program accepted")
	}
	r3, db3 := load(t, `win(X) :- move(X,Y), not win(Y).`)
	if _, _, err := EvalParallel(r3.Program, db3, Options{}, 2); err == nil {
		t.Fatalf("unstratified negation accepted")
	}
}

// TestParallelRandomPrograms cross-checks parallel against sequential on
// random multi-rule programs with joins, strata, and negation.
func TestParallelRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		nodes := 4 + rng.Intn(6)
		edges := 2 + rng.Intn(2*nodes)
		var b strings.Builder
		b.WriteString(`
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
both(X,Y) :- t(X,Y), t(Y,X).
tri(X,Z) :- e(X,Y), e(Y,Z).
src(X) :- e(X,Y).
snk(Y) :- e(X,Y).
inner(X) :- src(X), snk(X).
pureSrc(X) :- src(X), not snk(X).
`)
		for i := 0; i < edges; i++ {
			fmt.Fprintf(&b, "e(n%d,n%d).\n", rng.Intn(nodes), rng.Intn(nodes))
		}
		r, db := load(t, b.String())
		want, _, err := Eval(r.Program, db, Options{BiasRecursiveAtom: true})
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		workers := 1 + rng.Intn(7)
		got, _, err := EvalParallel(r.Program, db, Options{BiasRecursiveAtom: true}, workers)
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", trial, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("trial %d (workers=%d): %d facts, want %d", trial, workers, got.Len(), want.Len())
		}
		for _, f := range want.All() {
			if !got.Contains(f) {
				t.Fatalf("trial %d: missing fact", trial)
			}
		}
	}
}

// TestParallelEquivalenceProperty is the parallel/sequential equivalence
// property test: randomized programs (joins, non-linear recursion, strata,
// safe stratified negation) over random edge sets, cross-checked at the
// full worker ladder and under both the static and the adaptive
// join-order policy. Density varies from sparse (every round inline) to
// dense enough that rounds fan out through the buffered merge path.
func TestParallelEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	workerLadder := []int{1, 2, 3, 4, 8}
	for trial := 0; trial < 12; trial++ {
		nodes := 6 + rng.Intn(30)
		edges := nodes + rng.Intn(4*nodes)
		var b strings.Builder
		b.WriteString(`
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
tri(X,Z) :- e(X,Y), e(Y,Z).
src(X) :- e(X,Y).
snk(Y) :- e(X,Y).
mid(X) :- src(X), snk(X).
edge2(X,Z) :- e(X,Y), e(Y,Z), not e(X,Z).
pureSrc(X) :- src(X), not snk(X).
`)
		for i := 0; i < edges; i++ {
			fmt.Fprintf(&b, "e(n%d,n%d).\n", rng.Intn(nodes), rng.Intn(nodes))
		}
		r, db := load(t, b.String())
		want, _, err := Eval(r.Program, db, Options{BiasRecursiveAtom: true})
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		for _, workers := range workerLadder {
			for _, adaptive := range []bool{false, true} {
				opt := Options{BiasRecursiveAtom: true, Adaptive: adaptive}
				got, stats, err := EvalParallel(r.Program, db, opt, workers)
				if err != nil {
					t.Fatalf("trial %d workers=%d adaptive=%v: %v", trial, workers, adaptive, err)
				}
				if got.Len() != want.Len() {
					t.Fatalf("trial %d workers=%d adaptive=%v: %d facts, want %d",
						trial, workers, adaptive, got.Len(), want.Len())
				}
				for _, f := range want.All() {
					if !got.Contains(f) {
						t.Fatalf("trial %d workers=%d adaptive=%v: missing fact",
							trial, workers, adaptive)
					}
				}
				if workers == 1 && stats.FannedRounds != 0 {
					t.Fatalf("trial %d: single worker fanned %d rounds", trial, stats.FannedRounds)
				}
				if stats.InlineRounds+stats.FannedRounds != stats.Rounds {
					t.Fatalf("trial %d workers=%d: rounds %d != inline %d + fanned %d",
						trial, workers, stats.Rounds, stats.InlineRounds, stats.FannedRounds)
				}
			}
		}
	}
}

// TestParallelMatchesEvalOnIWarded runs the paper's workload — piece-wise
// linear iWarded scenarios, full-Datalog ones, at a size whose rounds fan
// out — through the worker ladder. In a PWL stratum the derived relation
// is scanned, never keyed, so its postings stay unbuilt under both
// engines; the parallel coordinator catches up the ones a round's scans
// can key on before the workers share the instance, and both results must
// be the same instance with agreeing structures.
func TestParallelMatchesEvalOnIWarded(t *testing.T) {
	p := workload.DefaultSuiteParams(1, 0)
	p.DataSize = 600
	ran, fanned := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		sc, err := workload.GenScenario(workload.ShapePWL, seed, p)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Stratify: true, BiasRecursiveAtom: true}
		want, _, err := Eval(sc.Program, sc.DB, opt)
		if err != nil {
			continue // existential rules: not Datalog
		}
		ran++
		for _, workers := range []int{1, 2, 4} {
			for _, adaptive := range []bool{false, true} {
				opt.Adaptive = adaptive
				label := fmt.Sprintf("seed %d workers=%d adaptive=%v", seed, workers, adaptive)
				got, stats, err := EvalParallel(sc.Program, sc.DB, opt, workers)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fanned += stats.FannedRounds
				sameInstance(t, label, got, want)
				if err := got.Verify(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
		if err := want.Verify(); err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
	}
	if ran < 3 || fanned == 0 {
		t.Fatalf("%d of 12 scenarios were full Datalog, %d rounds fanned out: the suite no longer reaches the shared-instance path", ran, fanned)
	}
}

// TestParallelFannedRounds forces the buffered path: a dense non-linear TC
// whose deltas exceed the inline threshold must fan at least one round
// across the pool, stage derivations in tuple buffers, bulk-merge them —
// and still land on the sequential fixpoint.
func TestParallelFannedRounds(t *testing.T) {
	var b strings.Builder
	b.WriteString(`
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
`)
	n := 60
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, (i+1)%n)
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, (i+7)%n)
	}
	r, db := load(t, b.String())
	want, _, err := Eval(r.Program, db, Options{BiasRecursiveAtom: true})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{2, 4} {
		got, stats, err := EvalParallel(r.Program, db, Options{BiasRecursiveAtom: true}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.FannedRounds == 0 {
			t.Fatalf("workers=%d: no fanned rounds on a dense delta (inline=%d rounds=%d)",
				workers, stats.InlineRounds, stats.Rounds)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d facts, want %d", workers, got.Len(), want.Len())
		}
		for _, f := range want.All() {
			if !got.Contains(f) {
				t.Fatalf("workers=%d: missing fact", workers)
			}
		}
	}
}

// TestParallelStratifiedNegation: the three-strata scenario must agree
// with Naive under all worker counts.
func TestParallelStratifiedNegation(t *testing.T) {
	src := `
p(X) :- base(X), not skip(X).
q(X) :- base(X), not p(X).
skip(X) :- flagged(X).
base(1). base(2). base(3). base(4). flagged(2). flagged(4).
`
	r, db := load(t, src)
	want, err := Naive(r.Program, db)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	for workers := 1; workers <= 6; workers++ {
		got, stats, err := EvalParallel(r.Program, db, Options{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d facts, want %d", workers, got.Len(), want.Len())
		}
		if stats.Strata < 2 {
			t.Fatalf("workers=%d: strata = %d", workers, stats.Strata)
		}
	}
}

// TestParallelInPlaceTraced: EvalParallel is Eval's entry point, so it
// honours InPlace — the derived facts land in the caller's db, not a
// clone — and reports the plan-cache hit to the tracer.
func TestParallelInPlaceTraced(t *testing.T) {
	r, db := load(t, tcLinear+chainFacts(40))
	if _, _, err := EvalParallel(r.Program, db, Options{}, 2); err != nil {
		t.Fatal(err)
	}
	tp, _ := r.Program.Reg.Lookup("t")
	if n := db.CountPred(tp); n != 0 {
		t.Fatalf("evaluation without InPlace wrote %d facts into its input", n)
	}
	tr := &plan.Tracer{}
	out, _, err := EvalParallel(r.Program, db, Options{InPlace: true, Tracer: tr}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out != db {
		t.Fatal("InPlace evaluation returned a copy")
	}
	if n := db.CountPred(tp); n != 40*39/2 {
		t.Fatalf("db holds %d t-facts, want %d", n, 40*39/2)
	}
	if !tr.PlanCached {
		t.Fatal("trace did not record the plan-cache hit")
	}
}
