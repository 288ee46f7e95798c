package repro

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/prooftree"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/ucq"
	"repro/internal/workload"
)

// TestE3_ShapeStatistics asserts the §1.2 recursion-shape statistics on a
// generated 200-scenario iWarded-style suite: ~55% directly piece-wise
// linear, ~15% more linearizable (~70% total), all warded.
func TestE3_ShapeStatistics(t *testing.T) {
	suite, err := workload.GenSuite(workload.DefaultSuiteParams(200, 42))
	if err != nil {
		t.Fatal(err)
	}
	var pwl, lineariz, warded int
	for _, sc := range suite {
		c := analysis.Classify(sc.Program)
		if !c.Warded {
			t.Fatalf("scenario %s not warded:\n%s", sc.Name, sc.Program.String())
		}
		warded++
		switch {
		case c.PWL:
			pwl++
			if sc.Shape != workload.ShapePWL {
				t.Errorf("%s: generated as %v but classified PWL", sc.Name, sc.Shape)
			}
		case c.Linearizable:
			lineariz++
			if sc.Shape != workload.ShapeLinearizable {
				t.Errorf("%s: generated as %v but classified linearizable", sc.Name, sc.Shape)
			}
		default:
			if sc.Shape != workload.ShapeNonPWL {
				t.Errorf("%s: generated as %v but classified non-PWL", sc.Name, sc.Shape)
			}
		}
	}
	n := float64(len(suite))
	fp, fl := float64(pwl)/n, float64(lineariz)/n
	t.Logf("direct PWL %.1f%%, linearizable %.1f%%, total %.1f%%, warded %d/%d",
		fp*100, fl*100, (fp+fl)*100, warded, len(suite))
	if fp < 0.45 || fp > 0.65 {
		t.Errorf("direct-PWL fraction %.2f outside [0.45, 0.65] (paper: ~0.55)", fp)
	}
	if fl < 0.07 || fl > 0.25 {
		t.Errorf("linearizable fraction %.2f outside [0.07, 0.25] (paper: ~0.15)", fl)
	}
	if tot := fp + fl; tot < 0.6 || tot > 0.8 {
		t.Errorf("total PWL fraction %.2f outside [0.6, 0.8] (paper: ~0.70)", tot)
	}
}

// TestSuiteEnginesAgree cross-validates the engines over a sample of
// generated warded scenarios: on PWL scenarios the chase, the linear
// proof-tree search and the Auto facade must produce identical certain
// answers; on warded non-PWL scenarios the chase and the alternating
// search must agree on spot-check tuples, within spotBudget.
func TestSuiteEnginesAgree(t *testing.T) {
	for _, sc := range engineSuite(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			chaseAns, cres, err := chase.CertainAnswers(sc.Program, sc.DB, sc.Query, chase.Default())
			if err != nil {
				t.Fatal(err)
			}
			if cres.Truncated {
				t.Skipf("chase truncated; scenario too large for cross-check")
			}
			// Whatever an engine wrote (the chase its instance) or built
			// while reading (the proof-tree searches probe the input) must
			// leave the store's structures agreeing.
			defer func() {
				for name, db := range map[string]*storage.DB{"chase instance": cres.DB, "input": sc.DB} {
					if err := db.Verify(); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}()
			cls := analysis.Classify(sc.Program)
			if !cls.PWL {
				// Spot-check a few tuples with the alternating engine.
				checkSpot(t, sc, chaseAns, prooftree.Alternating)
				return
			}
			ptAns, _, err := prooftree.Answers(sc.Program, sc.DB, sc.Query,
				prooftree.Options{Mode: prooftree.Linear, MaxVisited: 3_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if len(ptAns) != len(chaseAns) {
				t.Fatalf("proof tree %d answers, chase %d", len(ptAns), len(chaseAns))
			}
			seen := map[string]bool{}
			for _, a := range chaseAns {
				seen[tupKey(a)] = true
			}
			for _, a := range ptAns {
				if !seen[tupKey(a)] {
					t.Fatalf("proof tree invented %v", a)
				}
			}
		})
	}
}

// engineSuite generates the eight seed-17 scenarios TestSuiteEnginesAgree
// checks and TestWorkloadCounts records.
func engineSuite(t *testing.T) []*workload.Scenario {
	t.Helper()
	params := workload.DefaultSuiteParams(8, 17)
	params.DataSize = 16
	params.ModulesPer = 2
	suite, err := workload.GenSuite(params)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

// spotBudget caps one alternating spot check. The search visits the same
// states whichever answer it is asked about (~17 k and ~113 k on the two
// linearizable scenarios of seed 17, ~637 k — 23 s — on iwarded_004), so
// a scenario past the cap is skipped after one capped attempt (~5 s)
// instead of holding tier-1 for 46 s.
const spotBudget = 150_000

func checkSpot(t *testing.T, sc *workload.Scenario, chaseAns [][]term.Term, mode prooftree.Mode) {
	t.Helper()
	// Positive spot checks: first two chase answers must be certain.
	for i, tup := range chaseAns {
		if i >= 2 {
			break
		}
		ok, _, err := prooftree.Decide(sc.Program, sc.DB, sc.Query, tup,
			prooftree.Options{Mode: mode, MaxVisited: spotBudget})
		if err != nil {
			t.Skipf("alternating budget: %v", err)
		}
		if !ok {
			t.Fatalf("alternating engine rejects chase answer %v", tup)
		}
	}
}

// TestSuiteUCQSoundness: the (possibly partial) UCQ rewriting must never
// invent answers — on every generated scenario, its answer set is a subset
// of the chase's.
func TestSuiteUCQSoundness(t *testing.T) {
	params := workload.DefaultSuiteParams(8, 23)
	params.DataSize = 12
	params.ModulesPer = 2
	suite, err := workload.GenSuite(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range suite {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			chaseAns, cres, err := chase.CertainAnswers(sc.Program, sc.DB, sc.Query, chase.Default())
			if err != nil {
				t.Fatal(err)
			}
			if cres.Truncated {
				t.Skipf("chase truncated")
			}
			ucqAns, _, err := ucq.Answers(sc.Program, sc.DB, sc.Query,
				ucq.Options{MaxStates: 500, MaxAtoms: 12, MaxChunk: 3})
			if err != nil {
				t.Fatal(err)
			}
			certain := map[string]bool{}
			for _, a := range chaseAns {
				certain[tupKey(a)] = true
			}
			for _, a := range ucqAns {
				if !certain[tupKey(a)] {
					t.Fatalf("UCQ rewriting invented %v", a)
				}
			}
		})
	}
}

func tupKey(tup []term.Term) string {
	k := ""
	for _, x := range tup {
		k += fmt.Sprintf("%d:%d|", x.Kind(), x.ID())
	}
	return k
}

// TestE6_ValueInventionWitness is the Lemma 6.7 separation, run through
// the public facade on every engine it exposes.
func TestE6_ValueInventionWitness(t *testing.T) {
	r, db, qs, err := core.FromSource(`
r(X,Y) :- p(X).
p(c).
? :- r(X,Y).
? :- r(X,Y), p(Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Strategy{core.ProofTreeLinear, core.ProofTreeAlternating, core.ChaseEngine, core.Translated, core.UCQRewrite} {
		a1, _, err := r.CertainAnswers(db, qs[0], s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		a2, _, err := r.CertainAnswers(db, qs[1], s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(a1) != 1 {
			t.Errorf("%v: q1 must be certain", s)
		}
		if len(a2) != 0 {
			t.Errorf("%v: q2 must NOT be certain", s)
		}
	}
}
