package plan

import (
	"sort"

	"repro/internal/schema"
	"repro/internal/storage"
)

// Group is the rule set of one fixpoint: a stratum, or every rule.
type Group struct {
	// Level is the stratum's level, reported to the tracer.
	Level int
	// Rules are rule indices into the compiled program, in program order.
	Rules []int
}

// AllRules is the single group holding every one of n rules.
func AllRules(n int) []Group {
	g := Group{Rules: make([]int, n)}
	for i := range g.Rules {
		g.Rules[i] = i
	}
	return []Group{g}
}

// GroupByLevel groups rule indices by level[ri], lowest level first; rules
// keep program order within a group.
func GroupByLevel(level []int) []Group {
	at := make(map[int]int)
	var out []Group
	for ri, l := range level {
		gi, ok := at[l]
		if !ok {
			gi = len(out)
			at[l] = gi
			out = append(out, Group{Level: l})
		}
		out[gi].Rules = append(out[gi].Rules, ri)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}

// FixpointStats reports a fixpoint's effort.
type FixpointStats struct {
	// Rounds is the total number of fixpoint rounds across groups.
	Rounds int
	// Derived is the number of new facts derived (beyond the input).
	Derived int
	// Probes counts index probe extensions during joins — the work metric
	// for the join-ordering experiment E8.
	Probes int
	// PeakDelta is the largest number of facts derived in a single round —
	// the transient-memory metric for the materialization experiment E9.
	PeakDelta int
	// Strata is the number of strata evaluated (0 when not stratified).
	Strata int
}

// Fixpoint is the semi-naive round driver every bottom-up engine runs:
// Datalog evaluation, incremental insertion and rederivation, the chase
// (Run), and DRed's overestimate (RunRows). It owns the per-pair delta
// marks, the group loop, the delta-position rule, tracer hooks and budget
// stops. A round runs every (rule, delta) pair in turn and derived facts
// land at once, so later pairs of the round see them; each pair reads its
// delta atom from where its previous join began, so no pair joins a delta
// row twice.
//
// A Fixpoint runs once: set the fields, call Run or RunRows, read Stats.
type Fixpoint struct {
	DB    *storage.DB
	Plans *Program
	// Execs[ri] is the executor for rule ri; a nil slice or nil entries
	// are created on first use and attached to Budget. Callers that keep
	// executors across runs pass theirs in.
	Execs  []*Exec
	Budget *Budget
	Tracer *Tracer
	// Stratified marks the groups as predicate-level strata: a rule's
	// steady-state delta positions are then only the body atoms over the
	// group's own head predicates (lower strata are closed), and each
	// group counts in Stats.Strata and reports to the tracer. Otherwise
	// every body atom is a delta position.
	Stratified bool
	// MaxRounds caps the rounds of each group (0 = unlimited); a run that
	// wants one more round stops and sets Capped.
	MaxRounds int
	// Match, when non-nil, replaces direct insertion: called once per rule
	// with the rule index and its executor, it returns the function run
	// for every body match negation does not block; that function
	// returning false stops the fixpoint. RunRows requires it.
	Match func(ri int, ex *Exec) func() bool

	Stats  FixpointStats
	Capped bool

	// steps[ri] is Match's function for rule ri, made once per run so a
	// join allocates nothing.
	steps []func() bool
}

// pair is one (rule, delta position) unit of a round. Its next join reads
// the delta atom from mark on: the DB.Mark() taken just before its last
// join, so each delta row is joined once by each pair.
type pair struct {
	rule, delta int
	mark        storage.Mark
}

// Seed is one stored fact a row-list round pins a delta atom to: its
// predicate and its local row.
type Seed struct {
	Pred schema.PredID
	Row  int32
}

// Run drives each group to its fixpoint in order, every group's pairs
// starting at start (0: the whole instance is delta). The run stops
// early when a join is stopped (a tripped budget, or Match returning
// false), when the budget has tripped, or at MaxRounds.
func (f *Fixpoint) Run(groups []Group, start storage.Mark) {
	f.init()
	probes0 := f.probes()
	for _, g := range groups {
		if f.Budget.Aborted() {
			break
		}
		rounds0, derived0, gprobes0 := f.Stats.Rounds, f.Stats.Derived, int64(0)
		if f.Stratified && f.Tracer != nil {
			gprobes0 = f.probes()
		}
		done := f.group(g, start)
		if f.Stratified {
			if f.Tracer != nil {
				f.Tracer.Stratum(g.Level, f.Stats.Rounds-rounds0, f.Stats.Derived-derived0, f.probes()-gprobes0)
			}
			f.Stats.Strata++
		}
		if !done {
			break
		}
	}
	f.Stats.Probes += int(f.probes() - probes0)
}

// RunRows drives rounds over listed rows instead of insertion windows.
// In each round every (rule, body position) pair, in program order, joins
// with its delta atom pinned in turn to each listed row of that
// position's predicate, in list order, and runs Match's function for
// every match; a pinned row is read whether live or not, the other atoms
// range over live rows. After the round next returns the following
// round's rows. The run ends when there are none, when a join is
// stopped, or when the budget has tripped.
func (f *Fixpoint) RunRows(rows []Seed, next func() []Seed) {
	f.init()
	probes0 := f.probes()
	byPred := make(map[schema.PredID][]int32)
rounds:
	for round := 1; len(rows) > 0 && !f.Budget.Aborted(); round++ {
		f.Stats.Rounds++
		for p, rs := range byPred {
			byPred[p] = rs[:0]
		}
		for _, s := range rows {
			byPred[s.Pred] = append(byPred[s.Pred], s.Row)
		}
		for ri, r := range f.Plans.Rules {
			for di, b := range r.TGD.Body {
				if rs := byPred[b.Pred]; len(rs) > 0 && !f.joinRows(ri, di, rs, round) {
					break rounds
				}
			}
		}
		rows = next()
	}
	f.Stats.Probes += int(f.probes() - probes0)
}

// init readies the executors and per-run match functions.
func (f *Fixpoint) init() {
	if f.Execs == nil {
		f.Execs = make([]*Exec, len(f.Plans.Rules))
	}
	f.steps = make([]func() bool, len(f.Plans.Rules))
}

// group runs one group's rounds to saturation, reporting false when the
// run must stop; a group ends at the first round that adds nothing. Its
// steady pairs are every delta position of every rule (Stratified: the
// positions over the group's own head predicates) and start at mark.
// Mark 0 makes the whole instance delta, and restricting any single atom
// to it already enumerates every match: the first round then joins body
// position 0 of each rule only, and each pair of that rule starts at the
// mark taken before that join.
func (f *Fixpoint) group(g Group, mark storage.Mark) bool {
	var first, steady []pair
	var growing map[schema.PredID]bool
	if f.Stratified {
		growing = make(map[schema.PredID]bool)
		for _, ri := range g.Rules {
			growing[f.Plans.Rules[ri].TGD.Head[0].Pred] = true
		}
	}
	for _, ri := range g.Rules {
		body := f.Plans.Rules[ri].TGD.Body
		for di, b := range body {
			if di == 0 {
				first = append(first, pair{ri, 0, 0})
			}
			if growing == nil || growing[b.Pred] {
				steady = append(steady, pair{ri, di, mark})
			}
		}
	}
	pairs := steady
	if mark == 0 {
		pairs = first
	}
	for round := 1; ; round++ {
		if f.MaxRounds > 0 && round > f.MaxRounds {
			f.Capped = true
			return false
		}
		f.Stats.Rounds++
		before := f.DB.Len()
		for i := range pairs {
			next := f.DB.Mark()
			if !f.join(pairs[i], round) {
				return false
			}
			pairs[i].mark = next
		}
		if round == 1 && mark == 0 {
			// Each pair of a rule starts where the rule's first join began.
			for i := range steady {
				for _, p := range first {
					if p.rule == steady[i].rule {
						steady[i].mark = p.mark
					}
				}
			}
			pairs = steady
		}
		added := f.DB.Len() - before
		f.Stats.Derived += added
		if added > f.Stats.PeakDelta {
			f.Stats.PeakDelta = added
		}
		if added == 0 {
			return true
		}
	}
}

// join runs pair p's rule with its delta atom restricted to rows from
// p.mark on, in the variant's join order (reported to the tracer).
// Negated atoms are checked once the positive body is matched: they are
// ground then (safe negation) and range over closed lower strata, so the
// check is stable for the whole group. Without a Match function each head
// image is inserted at once and counted; the join stops at the insert
// past the budget's headroom and charges its count once, which keeps the
// derived-fact cap exact — a closure of exactly MaxDerived facts
// completes, one more aborts here mid-round. A union rule lands a window
// that storage.BulkWindow admits and the headroom holds in one append,
// charged as the same probes and derived facts.
func (f *Fixpoint) join(p pair, round int) bool {
	ex := f.exec(p.rule)
	if f.Tracer != nil {
		f.Tracer.Join(p.rule, p.delta, round, ex.Rule.Variants[p.delta].Order)
	}
	db := f.DB
	hasNeg := len(ex.Rule.Neg) > 0
	if u := ex.Rule.Union; u != nil && f.Match == nil {
		dst, src := ex.Rule.Head[0].Pred, ex.Rule.Body[0].Pred
		if n, ok := db.BulkWindow(dst, src, p.mark); ok && n <= f.Budget.Headroom() {
			k := 0 // rows the budget admits, probed as the join would
			for k < n && ex.probe() {
				k++
			}
			db.AppendWindow(dst, src, p.mark, u, k)
			return f.Budget.AddDerived(k) == nil && k == n
		}
	}
	if f.Match == nil {
		room, n := f.Budget.Headroom(), 0
		ok := ex.Run(db, p.delta, p.mark, func() bool {
			if hasNeg && ex.Blocked(db) {
				return true
			}
			if db.InsertArgs(ex.HeadArgs(0)) {
				n++
				return n <= room
			}
			return true
		})
		return f.Budget.AddDerived(n) == nil && ok
	}
	return ex.Run(db, p.delta, p.mark, f.step(p.rule, ex))
}

// joinRows runs rule ri once per listed row, the delta atom at body
// position di pinned to that row (Exec.runSeed), reporting false when a
// join is stopped.
func (f *Fixpoint) joinRows(ri, di int, rows []int32, round int) bool {
	ex := f.exec(ri)
	if f.Tracer != nil {
		f.Tracer.Join(ri, di, round, ex.Rule.Variants[di].Order)
	}
	fn := f.step(ri, ex)
	for _, row := range rows {
		if !ex.runSeed(f.DB, di, row, fn) {
			return false
		}
	}
	return true
}

// step returns Match's function for rule ri, made once per run; a rule
// with negated atoms runs it only for matches they do not block.
func (f *Fixpoint) step(ri int, ex *Exec) func() bool {
	fn := f.steps[ri]
	if fn == nil {
		fn = f.Match(ri, ex)
		if len(ex.Rule.Neg) > 0 {
			match, db := fn, f.DB
			fn = func() bool { return ex.Blocked(db) || match() }
		}
		f.steps[ri] = fn
	}
	return fn
}

// exec returns rule ri's executor, creating it on first use. Every
// executor charges the same budget.
func (f *Fixpoint) exec(ri int) *Exec {
	ex := f.Execs[ri]
	if ex == nil {
		ex = NewExec(f.Plans.Rules[ri])
		if f.Budget != nil {
			ex.SetBudget(f.Budget)
		}
		f.Execs[ri] = ex
	}
	return ex
}

// probes sums the executors' probe counters.
func (f *Fixpoint) probes() int64 {
	var n int64
	for _, ex := range f.Execs {
		if ex != nil {
			n += int64(ex.Probes)
		}
	}
	return n
}
