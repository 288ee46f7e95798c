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
	tr.Join(0, 0, 1, []int{0})
	tr.Stratum(0, 1, 2, 3)
	tr.Fixpoint(1, 2, 3)
	tr.CQ([]int{0, 1}, 7)
}

// TestTracerJoinDedup: each (rule, delta) pair records its join order
// once — later rounds of the same pair drop — while a different rule or
// delta position records.
func TestTracerJoinDedup(t *testing.T) {
	tr := &plan.Tracer{}
	tr.Join(2, 0, 1, []int{0, 1})
	tr.Join(2, 0, 2, []int{0, 1}) // same pair: dropped
	tr.Join(2, 1, 2, []int{1, 0}) // other delta: recorded
	tr.Join(2, 0, 3, []int{0, 1}) // same pair again: dropped
	tr.Join(3, 0, 3, []int{0})    // other rule: recorded
	want := []plan.JoinChoice{
		{Rule: 2, Delta: 0, Round: 1, Order: []int{0, 1}},
		{Rule: 2, Delta: 1, Round: 2, Order: []int{1, 0}},
		{Rule: 3, Delta: 0, Round: 3, Order: []int{0}},
	}
	if !reflect.DeepEqual(tr.Joins, want) {
		t.Fatalf("joins = %+v, want %+v", tr.Joins, want)
	}
}

// TestTracerJoinsOncePerPair: a traced evaluation records each
// (rule, delta) pair once, in the order the compiled variant runs, however
// many rounds the pair ran — under both join-order policies.
func TestTracerJoinsOncePerPair(t *testing.T) {
	src := chain64()
	for _, bias := range []bool{false, true} {
		r, db := load(t, src)
		tr := &plan.Tracer{}
		if _, _, err := Eval(r.Program, db, Options{BiasRecursiveAtom: bias, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		p := plan.Compile(r.Program, plan.Options{DeltaFirst: bias})
		type pair struct{ rule, delta int }
		seen := make(map[pair]bool)
		for _, jc := range tr.Joins {
			k := pair{jc.Rule, jc.Delta}
			if seen[k] {
				t.Fatalf("bias=%v: pair %+v recorded twice: %+v", bias, k, tr.Joins)
			}
			seen[k] = true
			if want := p.Rules[jc.Rule].Variants[jc.Delta].Order; !reflect.DeepEqual(jc.Order, want) {
				t.Fatalf("bias=%v: pair %+v order %v, compiled %v", bias, k, jc.Order, want)
			}
		}
		// The recursive rule's t-delta variant ran in every one of the
		// chain's rounds and recorded once.
		if !seen[pair{1, 1}] || tr.Rounds <= len(tr.Joins) {
			t.Fatalf("bias=%v: %d rounds, joins %+v", bias, tr.Rounds, tr.Joins)
		}
	}
}
