package datalog

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/plan"
)

// chain64 is a 64-node linear chain under the TC program: a deep fixpoint
// of one-fact rounds.
func chain64() (src string) {
	var b strings.Builder
	b.WriteString(tcLinear)
	for i := 0; i+1 < 64; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, i+1)
	}
	return b.String()
}

// TestTracerCrossEngineDeterminism: the explain trace is a statement
// about the execution; a repeat run takes the same rounds through the same
// driver in the same order, so the traces must agree join-for-join,
// probes included.
func TestTracerCrossEngineDeterminism(t *testing.T) {
	src := chain64()
	run := func() *plan.Tracer {
		r, db := load(t, src)
		tr := &plan.Tracer{}
		opt := Options{Stratify: true, BiasRecursiveAtom: true, Tracer: tr}
		if _, _, err := Eval(r.Program, db, opt); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	seq := run()
	if seq.Rounds == 0 || seq.Derived == 0 || seq.Probes == 0 {
		t.Fatalf("trace empty: %+v", seq)
	}
	if len(seq.Joins) == 0 || len(seq.Strata) == 0 {
		t.Fatalf("trace has no joins/strata: %+v", seq)
	}
	again := run()
	if again.Rounds != seq.Rounds || again.Derived != seq.Derived || again.Probes != seq.Probes {
		t.Errorf("seq-again: rounds/derived/probes = %d/%d/%d, want %d/%d/%d",
			again.Rounds, again.Derived, again.Probes, seq.Rounds, seq.Derived, seq.Probes)
	}
	if !reflect.DeepEqual(again.Joins, seq.Joins) {
		t.Errorf("seq-again: join decisions differ\n got %+v\nwant %+v", again.Joins, seq.Joins)
	}
	if !reflect.DeepEqual(again.Strata, seq.Strata) {
		t.Errorf("seq-again: strata differ\n got %+v\nwant %+v", again.Strata, seq.Strata)
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
