package plan

// Tracer collects one evaluation's structured execution trace: the
// join order each (rule, delta position) pair ran, per-stratum fixpoint
// effort, and run totals. The service attaches one per explain/slow
// query; the engines call the hooks unconditionally.
//
// All methods are nil-receiver no-ops, so instrumentation sites are a
// single nil check — the contract that keeps the disabled path free.
// A Tracer is NOT safe for concurrent use; an evaluation invokes the
// hooks from the goroutine that runs it, so one tracer per evaluation
// needs no locking.
type Tracer struct {
	// Joins holds the join orders in execution order, one per
	// (rule, delta) pair: a variant's order is fixed at compile time, so
	// a pair re-running every round records once, in its first round.
	Joins []JoinChoice
	// Strata holds per-stratum fixpoint effort (stratified runs only).
	Strata []StratumTrace
	// Rounds, Derived, Probes are the run totals across all strata.
	Rounds  int
	Derived int
	Probes  int64
	// CQOrder and CQMatches describe a compiled conjunctive query
	// enumeration (RunBudgetTraced): the atom join order and the
	// number of row matches across all join levels.
	CQOrder   []int
	CQMatches int

	seen map[joinKey]bool // (rule, delta) pairs already recorded
}

type joinKey struct{ rule, delta int }

// JoinChoice is one recorded join order.
type JoinChoice struct {
	// Rule is the rule's index in the compiled program (RulePlan
	// order); callers resolve it to a label for rendering.
	Rule int `json:"rule"`
	// Delta is the delta atom position driving this variant.
	Delta int `json:"delta"`
	// Round is the 1-based fixpoint round (within the stratum) the
	// pair first ran in.
	Round int `json:"round"`
	// Order is the variant's body-atom visit order (indices into the
	// rule body). Shared with the compiled plan —
	// read-only.
	Order []int `json:"order"`
}

// StratumTrace is one stratum's fixpoint effort.
type StratumTrace struct {
	Level   int   `json:"level"`
	Rounds  int   `json:"rounds"`
	Derived int   `json:"derived"`
	Probes  int64 `json:"probes"`
}

// Join records the join order a (rule, delta) pair runs. Each pair
// records once; repeats are dropped.
func (t *Tracer) Join(rule, delta, round int, order []int) {
	if t == nil {
		return
	}
	k := joinKey{rule, delta}
	if t.seen[k] {
		return
	}
	if t.seen == nil {
		t.seen = make(map[joinKey]bool)
	}
	t.seen[k] = true
	t.Joins = append(t.Joins, JoinChoice{Rule: rule, Delta: delta, Round: round, Order: order})
}

// Stratum records one stratum's fixpoint effort.
func (t *Tracer) Stratum(level, rounds, derived int, probes int64) {
	if t == nil {
		return
	}
	t.Strata = append(t.Strata, StratumTrace{Level: level, Rounds: rounds, Derived: derived, Probes: probes})
}

// Fixpoint accumulates run totals (called once per Eval).
func (t *Tracer) Fixpoint(rounds, derived int, probes int64) {
	if t == nil {
		return
	}
	t.Rounds += rounds
	t.Derived += derived
	t.Probes += probes
}

// CQ records a compiled conjunctive query enumeration.
func (t *Tracer) CQ(order []int, matches int) {
	if t == nil {
		return
	}
	t.CQOrder = order
	t.CQMatches += matches
}
