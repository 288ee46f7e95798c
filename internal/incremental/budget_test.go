package incremental

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/parser"
	"repro/internal/plan"
)

// chainSrc emits tcSrc plus the edge list of an n-node path.
func chainSrc(n int) string {
	var b strings.Builder
	b.WriteString(tcSrc)
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, i+1)
	}
	return b.String()
}

// TestInsertBudgetAbortBreaksEngine: a budget tripping mid-propagation
// leaves the engine broken — guard refuses further updates — and Adopt
// of the instance and counters taken before the insert rolls it back to
// exactly the materialization without the aborted insert's base facts.
func TestInsertBudgetAbortBreaksEngine(t *testing.T) {
	// Two 80-node chains; the bridging edge's delta closes ~6400 new
	// t-facts, far more probe work than one budget stride.
	var b strings.Builder
	b.WriteString(tcSrc)
	live := make([]atom.Atom, 0, 160)
	for i := 0; i+1 < 80; i++ {
		b.WriteString(fmt.Sprintf("e(a%d,a%d).\n", i, i+1))
		b.WriteString(fmt.Sprintf("e(b%d,b%d).\n", i, i+1))
	}
	r, db := load(t, b.String())
	for i := 0; i+1 < 80; i++ {
		live = append(live, edge(r, fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)))
		live = append(live, edge(r, fmt.Sprintf("b%d", i), fmt.Sprintf("b%d", i+1)))
	}
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	before, statsBefore := e.DB().Snapshot(), e.Stats()
	defer before.Release()

	bridge := edge(r, "a79", "b0")
	bud := plan.NewBudget(nil, 0, plan.BudgetStride)
	err = e.InsertBudgeted(bud, bridge)
	if !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("insert err = %v, want ErrOverBudget", err)
	}
	if e.Broken() == nil {
		t.Fatal("engine not broken after aborted propagation")
	}

	// guard must refuse everything until the rollback.
	if err := e.Insert(edge(r, "x", "y")); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("broken engine accepted insert: %v", err)
	}
	if err := e.Delete(bridge); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("broken engine accepted delete: %v", err)
	}

	e.Adopt(before.DB().Clone(), statsBefore)
	if e.Broken() != nil {
		t.Fatalf("still broken after Adopt: %v", e.Broken())
	}
	if e.Stats() != statsBefore {
		t.Fatalf("stats after Adopt = %+v, want %+v", e.Stats(), statsBefore)
	}
	assertMatchesRecompute(t, "rolled back", e, live)

	// And the engine is live again: the same insert, unbudgeted, applies.
	if err := e.Insert(bridge); err != nil {
		t.Fatalf("insert after rollback: %v", err)
	}
	assertMatchesRecompute(t, "rolled back, then inserted", e, append(live, bridge))
}

// diamondEdges lists the edges of an n-step chain of diamonds: every step
// n_i→n_{i+1} has a detour n_i→x_i→n_{i+1}, so every fact through a step
// has an alternative proof.
func diamondEdges(n int) [][2]string {
	var out [][2]string
	for i := 0; i < n; i++ {
		a, b, x := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), fmt.Sprintf("x%d", i)
		out = append(out, [2]string{a, b}, [2]string{a, x}, [2]string{x, b})
	}
	return out
}

// TestDeleteBudgetTrapSweep injects aborts at a sweep of probe counts
// across DeleteBudgeted's two phases and checks the trichotomy after
// every injection: the delete either (a) aborts pre-mutation leaving the
// engine healthy and the instance untouched, (b) aborts mid-rederivation
// leaving the engine broken, its guard refusing every further update, or
// (c) completes. In cases (a) and (c) the engine must match a
// from-scratch recomputation over its live base facts. On the chain the
// overestimate deletes the whole cone; on the diamonds every reached fact
// has a detour, so nearly every probe is the support search's and the
// traps land inside it; on the unsure ladder most of what the overestimate
// deletes comes back in phase 2, so traps land there too. The sweep as a
// whole must see all three outcomes.
func TestDeleteBudgetTrapSweep(t *testing.T) {
	const n = 64
	var chain [][2]string
	for i := 0; i+1 < n; i++ {
		chain = append(chain, [2]string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)})
	}
	var outcomes [3]int // (a) phase-1 abort, (b) broken, (c) completed
	for _, tc := range []struct {
		name  string
		edges [][2]string
		del   [][2]string
		kept  bool // the delete keeps every fact it reaches
	}{
		{"chain", chain, [][2]string{chain[n/2]}, false},
		{"diamonds", diamondEdges(n), [][2]string{{"n0", "n1"}}, true},
		{"unsure", unsureLadderEdges(40, 40), [][2]string{{"a", "x"}, {"d", "w"}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var src strings.Builder
			src.WriteString(tcSrc)
			for _, ed := range tc.edges {
				fmt.Fprintf(&src, "e(%s,%s).\n", ed[0], ed[1])
			}
			liveAfter := func(r *parser.Result, deleted bool) []atom.Atom {
				var live []atom.Atom
				for _, ed := range tc.edges {
					if !deleted || !slices.Contains(tc.del, ed) {
						live = append(live, edge(r, ed[0], ed[1]))
					}
				}
				return live
			}
			del := func(r *parser.Result) []atom.Atom {
				var out []atom.Atom
				for _, ed := range tc.del {
					out = append(out, edge(r, ed[0], ed[1]))
				}
				return out
			}

			// Calibrate: run the delete once with an unlimited (but
			// attached) budget to learn the total flushed probe count.
			r0, db0 := load(t, src.String())
			e0, err := New(r0.Program, db0)
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			calib := plan.NewBudget(nil, 0, 0)
			if err := e0.DeleteBudgeted(calib, del(r0)...); err != nil {
				t.Fatalf("calibration delete: %v", err)
			}
			total := calib.Probes()
			if total < 2*plan.BudgetStride {
				t.Fatalf("delete flushed only %d probes; workload too small to sweep", total)
			}
			if st := e0.Stats(); tc.kept != (st.Overdeleted == 0 && st.Kept > 0) {
				t.Fatalf("calibration stats %+v: want kept = %v", st, tc.kept)
			}
			assertMatchesRecompute(t, "calibration", e0, liveAfter(r0, true))

			// Sweep trap points across every stride boundary (sampled down
			// to keep the test fast), plus one past the end (trap never
			// fires).
			var traps []int64
			for p := int64(plan.BudgetStride); p <= total; p += plan.BudgetStride {
				traps = append(traps, p)
			}
			if len(traps) > 12 {
				step := len(traps) / 12
				sampled := traps[:0]
				for i := 0; i < len(traps); i += step {
					sampled = append(sampled, traps[i])
				}
				traps = sampled
			}
			traps = append(traps, total+plan.BudgetStride)

			healthy := 0
			for _, trap := range traps {
				r, db := load(t, src.String())
				e, err := New(r.Program, db)
				if err != nil {
					t.Fatalf("trap %d: new: %v", trap, err)
				}
				bud := plan.NewBudget(nil, 0, 0)
				bud.SetProbeTrap(trap, plan.ErrCanceled)
				err = e.DeleteBudgeted(bud, del(r)...)

				switch {
				case err == nil:
					// (c) completed: trap landed past the delete's work.
					outcomes[2]++
					if e.Broken() != nil {
						t.Fatalf("trap %d: completed delete left engine broken", trap)
					}
					assertMatchesRecompute(t, fmt.Sprintf("trap %d complete", trap), e, liveAfter(r, true))
				case e.Broken() != nil:
					// (b) mid-rederivation: the instance is partial, so the
					// guard refuses every update, deletes and inserts alike.
					outcomes[1]++
					if !errors.Is(err, plan.ErrCanceled) {
						t.Fatalf("trap %d: broken with err = %v", trap, err)
					}
					if rerr := e.Delete(edge(r, "n0", "n1")); rerr == nil {
						t.Fatalf("trap %d: broken engine accepted delete", trap)
					}
					if rerr := e.Insert(edge(r, "x", "y")); rerr == nil {
						t.Fatalf("trap %d: broken engine accepted insert", trap)
					}
				default:
					// (a) phase-1 abort: nothing mutated, engine healthy,
					// stats untouched, and the same delete retried without a
					// budget completes.
					healthy++
					outcomes[0]++
					if !errors.Is(err, plan.ErrCanceled) {
						t.Fatalf("trap %d: err = %v, want ErrCanceled", trap, err)
					}
					if st := e.Stats(); st != (Stats{Compacted: st.Compacted}) {
						t.Fatalf("trap %d: phase-1 abort bumped stats: %+v", trap, st)
					}
					assertMatchesRecompute(t, fmt.Sprintf("trap %d healthy", trap), e, liveAfter(r, false))
					if err := e.Delete(del(r)...); err != nil {
						t.Fatalf("trap %d: retry delete: %v", trap, err)
					}
					assertMatchesRecompute(t, fmt.Sprintf("trap %d retried", trap), e, liveAfter(r, true))
				}
			}
			if healthy < len(traps)/2 {
				t.Fatalf("only %d of %d traps aborted phase 1", healthy, len(traps))
			}
		})
	}
	if outcomes[0] == 0 || outcomes[1] == 0 || outcomes[2] == 0 {
		t.Fatalf("sweep outcomes (phase-1 abort, broken, completed) = %v, want each seen", outcomes)
	}
}

// unsureLadderEdges is the graph of TestDeleteUnsureRefutationIsRechecked
// with an n-step path p0→…→d into d and an m-step path z→y0→… out of z.
// Deleting e(a,x) and e(d,w) refutes every t(d,·) towards z and the ys
// unsure; phase 2 re-checks and re-inserts them, and propagation brings
// back every t(p_i,·) behind them.
func unsureLadderEdges(n, m int) [][2]string {
	out := [][2]string{{"a", "x"}, {"x", "z"}, {"a", "b"}, {"a", "c"}, {"c", "z"}, {"b", "a"}, {"d", "w"}, {"w", "z"}, {"d", "b"}}
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("p%d", i+1)
		if i+1 == n {
			next = "d"
		}
		out = append(out, [2]string{fmt.Sprintf("p%d", i), next})
	}
	prev := "z"
	for j := 0; j < m; j++ {
		y := fmt.Sprintf("y%d", j)
		out = append(out, [2]string{prev, y})
		prev = y
	}
	return out
}

// TestDeletePhase1AbortIsPreMutation pins the healthy-abort contract
// directly: a budget already expired when the delete starts must leave
// the instance bit-identical (same Len, same stats).
func TestDeletePhase1AbortIsPreMutation(t *testing.T) {
	r, db := load(t, chainSrc(64))
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	before := e.DB().Len()
	statsBefore := e.Stats()

	// Trap on the very first stride flush: the mid-edge overestimate
	// alone probes far more than one stride, so the abort lands in
	// phase 1, before any tombstone.
	bud := plan.NewBudget(nil, 0, 0)
	bud.SetProbeTrap(1, plan.ErrCanceled)
	err = e.DeleteBudgeted(bud, edge(r, "n32", "n33"))
	if !errors.Is(err, plan.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if e.Broken() != nil {
		t.Fatalf("phase-1 abort broke the engine: %v", e.Broken())
	}
	if e.DB().Len() != before {
		t.Fatalf("phase-1 abort mutated the instance: %d -> %d facts", before, e.DB().Len())
	}
	if got := e.Stats(); got.Deleted != statsBefore.Deleted || got.Overdeleted != statsBefore.Overdeleted {
		t.Fatalf("phase-1 abort bumped delete stats: %+v", got)
	}
	if e.DB().Contains(edge(r, "n32", "n33")) == false {
		t.Fatal("phase-1 abort removed the seed edge")
	}
}

// TestGuardPreflightsBudget: an already-dead budget is refused before
// any update work, with the engine untouched.
func TestGuardPreflightsBudget(t *testing.T) {
	r, db := load(t, chainSrc(8))
	e, err := New(r.Program, db)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	bud := plan.NewBudget(nil, 1, 0)
	bud.AddDerived(2) // trip it
	before := e.DB().Len()
	if err := e.InsertBudgeted(bud, edge(r, "x", "y")); !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("insert on dead budget: %v", err)
	}
	if e.DB().Len() != before || e.Broken() != nil {
		t.Fatal("dead-budget preflight mutated the engine")
	}
}
