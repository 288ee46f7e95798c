package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/storage"
	"repro/internal/workload"
)

// crossPrograms is the battery for the engine cross-check: full Datalog
// programs exercising linear and non-linear recursion, multi-atom joins,
// strata, and safe stratified negation.
var crossPrograms = []string{
	`
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
`,
	`
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
`,
	`
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
both(X,Y) :- t(X,Y), t(Y,X).
tri(X,Z) :- e(X,Y), e(Y,Z).
inner(X) :- src(X), snk(X).
src(X) :- e(X,Y).
snk(Y) :- e(X,Y).
pureSrc(X) :- src(X), not snk(X).
`,
	`
path3(X,W) :- e(X,Y), e(Y,Z), e(Z,W).
joined(X,Y,Z) :- e(X,Y), e(Y,Z), e(X,Z).
`,
}

func sameInstance(t *testing.T, label string, got, want *storage.DB) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d facts, want %d", label, got.Len(), want.Len())
	}
	for _, f := range want.All() {
		if !got.Contains(f) {
			t.Fatalf("%s: missing fact", label)
		}
	}
}

// TestEnginesProduceIdenticalInstances cross-checks every execution path
// of the shared plan pipeline — Eval (both join-order options, stratified
// or not), the chase, and the Naive reference — on the cross battery over
// random edge sets. All must materialize the identical instance.
func TestEnginesProduceIdenticalInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for pi, src := range crossPrograms {
		for trial := 0; trial < 5; trial++ {
			nodes := 3 + rng.Intn(5)
			edges := 2 + rng.Intn(2*nodes)
			var b strings.Builder
			b.WriteString(src)
			for i := 0; i < edges; i++ {
				fmt.Fprintf(&b, "e(n%d,n%d).\n", rng.Intn(nodes), rng.Intn(nodes))
			}
			r, db := load(t, b.String())
			want, err := Naive(r.Program, db)
			if err != nil {
				t.Fatalf("program %d trial %d: naive: %v", pi, trial, err)
			}
			for _, bias := range []bool{false, true} {
				got, _, err := Eval(r.Program, db, Options{BiasRecursiveAtom: bias})
				if err != nil {
					t.Fatalf("program %d trial %d: eval: %v", pi, trial, err)
				}
				sameInstance(t, fmt.Sprintf("program %d trial %d eval bias=%v", pi, trial, bias), got, want)

				gotS, _, err := Eval(r.Program, db, Options{Stratify: true, BiasRecursiveAtom: bias})
				if err != nil {
					t.Fatalf("program %d trial %d: eval stratified: %v", pi, trial, err)
				}
				sameInstance(t, fmt.Sprintf("program %d trial %d stratified bias=%v", pi, trial, bias), gotS, want)
			}
			// The chase drives the same RulePlans; on full programs its
			// result is the same least fixpoint.
			cres, err := chase.Run(r.Program, db, chase.Options{Restricted: true, MaxRounds: 10000, MaxFacts: 1000000})
			if err != nil {
				t.Fatalf("program %d trial %d: chase: %v", pi, trial, err)
			}
			if cres.Truncated {
				t.Fatalf("program %d trial %d: chase truncated", pi, trial)
			}
			sameInstance(t, fmt.Sprintf("program %d trial %d chase", pi, trial), cres.DB, want)
		}
	}
}

// TestPlanCompiledOncePerEval asserts the headline property of the
// refactor: a multi-round fixpoint runs many rounds but compiles each
// rule's join orders exactly once per evaluation (plans are built in Eval,
// before the first round; rounds only index into them). The probe counter
// still moves, proving the rounds ran through the compiled plans.
func TestPlanCompiledOncePerEval(t *testing.T) {
	var b strings.Builder
	b.WriteString(tcLinear)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, i+1)
	}
	r, db := load(t, b.String())
	_, stats, err := Eval(r.Program, db, Options{Stratify: true, BiasRecursiveAtom: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds < 40 {
		t.Fatalf("rounds = %d, want a deep fixpoint", stats.Rounds)
	}
	if stats.Probes == 0 {
		t.Fatalf("probes not counted through the plan pipeline")
	}
}

// TestJoinOrderEquivalenceProperty: randomized programs (joins, non-linear
// recursion, strata, safe stratified negation) over random edge sets, from
// sparse to dense, evaluated under the delta-first and the written join
// order. The order moves probe counts, never the fixpoint.
func TestJoinOrderEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
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
		want, _, err := Eval(r.Program, db, Options{})
		if err != nil {
			t.Fatalf("trial %d: written order: %v", trial, err)
		}
		got, _, err := Eval(r.Program, db, Options{BiasRecursiveAtom: true})
		if err != nil {
			t.Fatalf("trial %d: delta-first: %v", trial, err)
		}
		sameInstance(t, fmt.Sprintf("trial %d delta-first", trial), got, want)
	}
}

// TestBiasMatchesWrittenOrderOnIWarded runs the paper's workload — the
// full-Datalog piece-wise linear iWarded scenarios — under the
// delta-first and the written join order: both results must be the same
// instance with agreeing structures.
func TestBiasMatchesWrittenOrderOnIWarded(t *testing.T) {
	p := workload.DefaultSuiteParams(1, 0)
	p.DataSize = 600
	ran := 0
	for seed := int64(1); seed <= 12; seed++ {
		sc, err := workload.GenScenario(workload.ShapePWL, seed, p)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Stratify: true}
		want, _, err := Eval(sc.Program, sc.DB, opt)
		if err != nil {
			continue // existential rules: not Datalog
		}
		ran++
		opt.BiasRecursiveAtom = true
		got, _, err := Eval(sc.Program, sc.DB, opt)
		if err != nil {
			t.Fatalf("seed %d delta-first: %v", seed, err)
		}
		sameInstance(t, fmt.Sprintf("seed %d delta-first", seed), got, want)
		for _, db := range []*storage.DB{want, got} {
			if err := db.Verify(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	if ran < 3 {
		t.Fatalf("%d of 12 scenarios were full Datalog", ran)
	}
}
