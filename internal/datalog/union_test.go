package datalog

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestUnionRuleRowPath: where landing a union rule's window in bulk would
// be wrong — the head already holds rows (one of them an image of a
// source row), or a source row is tombstoned — the round driver joins row
// by row, and the instance is the naive evaluation's.
func TestUnionRuleRowPath(t *testing.T) {
	const rules = "q(Y,X) :- p(X,Y).\nr(X,Y) :- q(X,Y).\n"
	for _, tc := range []struct {
		name, facts string
		kill        string // p-fact tombstoned before evaluation
		derived     int
	}{
		{"empty head", "p(a,b). p(b,c). p(c,a).", "", 6},
		{"head holds rows", "p(a,b). p(b,c). p(c,a). q(b,a). q(z,z).", "", 2 + 4},
		{"tombstone in window", "p(a,b). p(b,c). p(c,a).", "p(b,c)", 2 + 2},
	} {
		r, db := load(t, rules+tc.facts)
		if tc.kill != "" {
			k, _ := load(t, rules+tc.kill+".")
			f := k.Facts[0]
			row, ok := db.FindRow(f.Pred, f.Args)
			if !ok || !db.Tombstone(f.Pred, row) {
				t.Fatalf("%s: cannot tombstone %s", tc.name, tc.kill)
			}
		}
		ref, err := Naive(r.Program, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, stratify := range []bool{false, true} {
			out, stats, err := Eval(r.Program, db, Options{Stratify: stratify, BiasRecursiveAtom: true})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s (stratify %v)", tc.name, stratify)
			sameInstance(t, label, out, ref)
			if err := out.Verify(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if stats.Derived != tc.derived {
				t.Fatalf("%s: derived %d, want %d", label, stats.Derived, tc.derived)
			}
		}
	}
}

// TestUnionRuleChargesLikeRows: a union rule's window landed in bulk
// charges the budget exactly as the row-by-row join does — the same
// probes, the same derived facts, and under a probe trap (tripped at the
// first or second stride flush, or not at all) the same abort after the
// same rows. A head row no source row yields holds the second run on the
// row-by-row path.
func TestUnionRuleChargesLikeRows(t *testing.T) {
	var facts strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&facts, "p(n%d,m%d).\n", i, i%17)
	}
	run := func(extra string, trap int64) (int, int64, int64, error) {
		r, db := load(t, "q(Y,X) :- p(X,Y).\n"+extra+facts.String())
		bud := plan.NewBudget(nil, 0, 0)
		if trap > 0 {
			bud.SetProbeTrap(trap, plan.ErrCanceled)
		}
		out, stats, err := Eval(r.Program, db, Options{Budget: bud})
		if out != nil && out.Len() != db.Len()+stats.Derived {
			t.Fatalf("instance holds %d facts, want %d", out.Len(), db.Len()+stats.Derived)
		}
		return stats.Probes, bud.Derived(), bud.Probes(), err
	}
	for _, trap := range []int64{0, 1, plan.BudgetStride - 1, plan.BudgetStride, plan.BudgetStride + 1, 2500, 3000, 3072} {
		p1, d1, b1, err1 := run("", trap)
		p2, d2, b2, err2 := run("q(z,z).\n", trap)
		if p1 != p2 || d1 != d2 || b1 != b2 || errors.Is(err1, plan.ErrCanceled) != errors.Is(err2, plan.ErrCanceled) {
			t.Fatalf("trap %d: bulk probes %d derived %d budget probes %d (%v), row by row %d %d %d (%v)",
				trap, p1, d1, b1, err1, p2, d2, b2, err2)
		}
		if tripped := trap > 0 && trap <= 2*plan.BudgetStride; tripped != (err1 != nil) || !tripped && d1 != 3000 {
			t.Fatalf("trap %d: derived %d, err %v", trap, d1, err1)
		}
	}
}
