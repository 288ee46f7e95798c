package datalog

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/plan"
)

// chain64 is a 64-node linear chain under the TC program: every
// semi-naive round stays far below the parallel engine's fan-out
// threshold, so EvalParallel runs its rounds inline on the coordinator —
// the regime where the two engines must produce IDENTICAL traces.
func chain64() (src string) {
	var b strings.Builder
	b.WriteString(tcLinear)
	for i := 0; i+1 < 64; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, i+1)
	}
	return b.String()
}

// TestTracerCrossEngineDeterminism: the explain trace is a statement
// about the execution; on an inline-regime workload every worker count
// runs the same rounds through the same driver in the same order, so the
// traces must agree join-for-join, probes included.
func TestTracerCrossEngineDeterminism(t *testing.T) {
	src := chain64()
	run := func(par int) *plan.Tracer {
		r, db := load(t, src)
		tr := &plan.Tracer{}
		opt := Options{Stratify: true, BiasRecursiveAtom: true, Tracer: tr}
		var err error
		if par == 0 {
			_, _, err = Eval(r.Program, db, opt)
		} else {
			_, _, err = EvalParallel(r.Program, db, opt, par)
		}
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return tr
	}
	seq := run(0)
	if seq.Rounds == 0 || seq.Derived == 0 || seq.Probes == 0 {
		t.Fatalf("sequential trace empty: %+v", seq)
	}
	if len(seq.Joins) == 0 || len(seq.Strata) == 0 {
		t.Fatalf("sequential trace has no joins/strata: %+v", seq)
	}
	// Repeat runs of the SAME engine must agree exactly (determinism),
	// and the parallel engine must match the sequential one.
	for name, other := range map[string]*plan.Tracer{
		"seq-again": run(0), "par-1": run(1), "par-4": run(4),
	} {
		if other.Rounds != seq.Rounds || other.Derived != seq.Derived || other.Probes != seq.Probes {
			t.Errorf("%s: rounds/derived/probes = %d/%d/%d, want %d/%d/%d",
				name, other.Rounds, other.Derived, other.Probes, seq.Rounds, seq.Derived, seq.Probes)
		}
		if !reflect.DeepEqual(other.Joins, seq.Joins) {
			t.Errorf("%s: join decisions differ\n got %+v\nwant %+v", name, other.Joins, seq.Joins)
		}
		if !reflect.DeepEqual(other.Strata, seq.Strata) {
			t.Errorf("%s: strata differ\n got %+v\nwant %+v", name, other.Strata, seq.Strata)
		}
	}
}

// TestTracerNilSafe: every hook on a nil tracer is a no-op — the
// disabled path of the whole explain machinery.
func TestTracerNilSafe(t *testing.T) {
	var tr *plan.Tracer
	tr.Join(0, 0, 1, 0, false, []int{0})
	tr.Stratum(0, 1, 2, 3)
	tr.Fixpoint(1, 2, 3)
	tr.CQ([]int{0, 1}, 7)
}

// TestTracerJoinDedup: repeated rounds with the SAME chosen alternative
// collapse into one JoinChoice; a change of alternative appends.
func TestTracerJoinDedup(t *testing.T) {
	tr := &plan.Tracer{}
	tr.Join(2, 0, 1, 0, true, []int{0, 1})
	tr.Join(2, 0, 2, 0, true, []int{0, 1}) // same alt: deduped
	tr.Join(2, 0, 3, 1, true, []int{1, 0}) // alt switch: recorded
	tr.Join(3, 0, 3, 0, true, []int{0})    // different rule: recorded
	if len(tr.Joins) != 3 {
		t.Fatalf("joins = %+v, want 3 entries", tr.Joins)
	}
	if tr.Joins[1].Round != 3 || tr.Joins[1].Alt != 1 {
		t.Fatalf("alt switch not recorded: %+v", tr.Joins[1])
	}
}
