package plan

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/storage"
)

// Scheduling thresholds of the fanned round schedule. Both exist for the
// same reason: dispatching a goroutine, staging derivations in a buffer,
// and merging the buffer back all cost real work, so a round (or a shard)
// must carry enough rows to pay for it — the morsel-driven rule of never
// parallelizing the tail.
const (
	// minShardRows is the smallest delta window worth splitting: a (rule,
	// delta) pair gets one shard per minShardRows rows, capped at the
	// worker count, so tiny windows produce one job instead of `workers`
	// near-empty ones.
	minShardRows = 128
	// inlineRoundRows is the fan-out threshold for a whole round: below
	// this many total delta rows the coordinator runs the round inline —
	// no goroutines, no buffers, derived facts inserted directly. Deep
	// fixpoints with shallow rounds (long chains) spend most of their
	// rounds here.
	inlineRoundRows = 512
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
	// InlineRounds / FannedRounds split the rounds by schedule: inline
	// rounds ran on the coordinator with direct insertion, fanned rounds
	// sharded the delta across the worker pool with buffered derivations
	// and a bulk merge. FannedRounds is zero with one worker.
	InlineRounds int
	FannedRounds int
}

// Fixpoint is the semi-naive round driver every bottom-up engine runs:
// Datalog evaluation (sequential and parallel), incremental insert
// propagation, and the chase. It owns the delta window, the group loop,
// the delta-position rule, adaptive join-order choice, tracer hooks,
// budget stops, and the choice between the two round schedules:
//
//   - inline: the coordinator runs every (rule, delta) pair in turn and
//     derived facts land at once, so later pairs of the round see them;
//   - fanned: with Workers > 1 and at least inlineRoundRows delta rows,
//     pairs are sharded by window size across the pool, every worker reads
//     the instance as it stood at the round start and stages head images
//     in a private tuple buffer, and one bulk merge lands them.
//
// A Fixpoint runs once: set the fields, call Run, read Stats.
type Fixpoint struct {
	DB    *storage.DB
	Plans *Program
	// Execs[ri] is the coordinator's executor for rule ri; a nil slice or
	// nil entries are created on first use and attached to Budget. Callers
	// that keep executors across runs pass theirs in.
	Execs  []*Exec
	Budget *Budget
	Tracer *Tracer
	// Workers is the pool size of fanned rounds; 1 (or 0) runs every
	// round inline.
	Workers int
	// Adaptive re-picks each pair's join-order alternative every round
	// from current cardinalities (ChooseAlt); otherwise alt 0.
	Adaptive bool
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
	// with the rule index and the coordinator's executor, it returns the
	// function run for every body match negation does not block; that
	// function returning false stops the fixpoint. Only the coordinator
	// runs it, so rounds never fan out when Match is set.
	Match func(ri int, ex *Exec) func() bool

	Stats  FixpointStats
	Capped bool

	// execs[w] are worker w's executors (execs[0] is Execs): plans are
	// shared and immutable, binding frames strictly per worker.
	execs [][]*Exec
	// steps[ri] is Match's function for rule ri, made once per run so a
	// join allocates nothing.
	steps []func() bool
	// bufs, jobs and rows are the fanned schedule's job output buffers,
	// job list and per-pair window counts, reused across rounds.
	bufs []*storage.TupleBuffer
	jobs []job
	rows []int
}

// pair is one (rule, delta position) unit of a round; pred is the delta
// atom's predicate, whose window row count sizes the round.
type pair struct {
	rule, delta int
	pred        schema.PredID
}

// job is one (rule, delta position, alt order, delta shard) unit of a
// fanned round: the rule's join with the delta scan restricted to one
// contiguous sub-range of the delta window. buf is the job's private
// output buffer — single-writer, merged in job order, so the result is
// deterministic no matter which worker drains which job.
type job struct {
	rule, delta, alt int
	shard, shards    int
	buf              *storage.TupleBuffer
}

// Run drives each group to its fixpoint in order, every group's first
// window starting at start (0: the whole instance is delta). The run stops
// early when a join is stopped (a tripped budget, or Match returning
// false), when the budget has tripped, or at MaxRounds.
func (f *Fixpoint) Run(groups []Group, start storage.Mark) {
	if f.Execs == nil {
		f.Execs = make([]*Exec, len(f.Plans.Rules))
	}
	f.execs = [][]*Exec{f.Execs}
	for w := 1; w < f.Workers; w++ {
		f.execs = append(f.execs, make([]*Exec, len(f.Plans.Rules)))
	}
	f.steps = make([]func() bool, len(f.Plans.Rules))
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

// group runs one group's rounds to saturation, reporting false when the
// run must stop. A window starting at mark 0 holds the whole instance, so
// restricting any single atom to it already enumerates every match: such
// a round probes position 0 only, every other round each delta position.
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
				first = append(first, pair{ri, 0, b.Pred})
			}
			if growing == nil || growing[b.Pred] {
				steady = append(steady, pair{ri, di, b.Pred})
			}
		}
	}
	for round := 1; ; round++ {
		if f.MaxRounds > 0 && round > f.MaxRounds {
			f.Capped = true
			return false
		}
		f.Stats.Rounds++
		next := f.DB.Mark()
		pairs := steady
		if mark == 0 {
			pairs = first
		}
		added, ok := f.round(pairs, mark, round)
		if !ok {
			return false
		}
		f.Stats.Derived += added
		if added > f.Stats.PeakDelta {
			f.Stats.PeakDelta = added
		}
		if added == 0 {
			return true
		}
		mark = next
	}
}

// round runs one round on the schedule its size calls for, returning the
// facts it added and whether the run may go on.
func (f *Fixpoint) round(pairs []pair, mark storage.Mark, round int) (int, bool) {
	if f.Workers > 1 && f.Match == nil {
		f.rows = f.rows[:0]
		total := 0
		for _, p := range pairs {
			n := f.DB.CountSince(p.pred, mark)
			f.rows = append(f.rows, n)
			total += n
		}
		if total >= inlineRoundRows {
			f.Stats.FannedRounds++
			return f.fanned(pairs, mark, round)
		}
	}
	f.Stats.InlineRounds++
	before := f.DB.Len()
	for _, p := range pairs {
		if !f.join(p.rule, p.delta, f.alt(p, mark, round), mark) {
			return 0, false
		}
	}
	return f.DB.Len() - before, true
}

// alt picks the pair's join-order alternative for this round and reports
// it to the tracer. Called on the coordinator only, so the tracer needs
// no locking.
func (f *Fixpoint) alt(p pair, mark storage.Mark, round int) int {
	r := f.Plans.Rules[p.rule]
	alt := 0
	if f.Adaptive {
		alt = ChooseAlt(f.DB, r, p.delta, mark)
	}
	if f.Tracer != nil {
		f.Tracer.Join(p.rule, p.delta, round, alt, f.Adaptive, r.Variants[p.delta].Alts[alt].Order)
	}
	return alt
}

// join runs rule ri with body atom di restricted to the window at mark,
// on the coordinator. Negated atoms are checked once the positive body is
// matched: they are ground then (safe negation) and range over closed
// lower strata, so the check is stable for the whole group. Without a
// Match function each head image is inserted at once; per-insertion
// charging makes the derived-fact cap exact — a closure of exactly
// MaxDerived facts completes, one more aborts here mid-round.
func (f *Fixpoint) join(ri, di, alt int, mark storage.Mark) bool {
	ex := f.exec(0, ri)
	db := f.DB
	hasNeg := len(ex.Rule.Neg) > 0
	if f.Match == nil {
		bud := f.Budget
		return ex.RunAlt(db, di, alt, mark, 0, 1, func() bool {
			if hasNeg && ex.Blocked(db) {
				return true
			}
			if db.InsertArgs(ex.HeadArgs(0)) && bud != nil {
				if bud.AddDerived(1) != nil {
					return false
				}
			}
			return true
		})
	}
	fn := f.steps[ri]
	if fn == nil {
		fn = f.Match(ri, ex)
		f.steps[ri] = fn
	}
	if hasNeg {
		step := fn
		fn = func() bool { return ex.Blocked(db) || step() }
	}
	return ex.RunAlt(db, di, alt, mark, 0, 1, fn)
}

// fanned runs one buffered round: pairs are sharded by window size into
// jobs, workers drain the job queue through an atomic cursor (a worker
// stuck on a skewed shard never strands the rest of the queue), each job
// stages its derivations in a private columnar buffer, and the
// coordinator folds all buffers into the instance with one MergeBuffers
// call. The buffered count is charged to the budget after the merge.
func (f *Fixpoint) fanned(pairs []pair, mark storage.Mark, round int) (int, bool) {
	jobs := f.jobs[:0]
	for pi, p := range pairs {
		alt := f.alt(p, mark, round)
		// Workers only read the instance: whatever posting index a scan of
		// this round can key on is caught up here, before they start.
		for _, sp := range f.Plans.Rules[p.rule].Variants[p.delta].Alts[alt].Scans {
			f.DB.CatchUp(sp)
		}
		shards := shardsFor(f.rows[pi], f.Workers)
		for sh := 0; sh < shards; sh++ {
			jobs = append(jobs, job{rule: p.rule, delta: p.delta, alt: alt, shard: sh, shards: shards})
		}
	}
	for len(f.bufs) < len(jobs) {
		f.bufs = append(f.bufs, storage.NewTupleBuffer())
	}
	for ji := range jobs {
		f.bufs[ji].Reset()
		jobs[ji].buf = f.bufs[ji]
	}
	f.jobs = jobs

	nw := min(f.Workers, len(jobs))
	bud := f.Budget
	var cursor atomic.Int32
	drain := func(w int) {
		for !bud.Aborted() { // stop picking up jobs once any worker tripped
			ji := int(cursor.Add(1)) - 1
			if ji >= len(jobs) {
				return
			}
			j := jobs[ji]
			ex := f.exec(w, j.rule)
			hasNeg := len(ex.Rule.Neg) > 0
			ex.RunAlt(f.DB, j.delta, j.alt, mark, j.shard, j.shards, func() bool {
				if hasNeg && ex.Blocked(f.DB) {
					return true
				}
				ex.HeadAppend(0, j.buf)
				return true
			})
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drain(w)
		}(w)
	}
	drain(0)
	wg.Wait()
	if bud.Aborted() {
		// Discard every job's staged derivations: the instance stays
		// frozen at the last completed round boundary.
		return 0, false
	}
	added := f.DB.MergeBuffers(f.bufs[:len(jobs)], nw)
	return added, bud.AddDerived(added) == nil
}

// shardsFor picks how many contiguous sub-ranges to split one delta window
// into: enough that every worker can help on a big window, never so many
// that a tiny window pays per-job dispatch for near-empty scans.
func shardsFor(rows, workers int) int {
	return max(1, min(rows/minShardRows, workers))
}

// exec returns worker w's executor for rule ri, creating it on first use.
// Every worker's executor charges the same shared budget, so the first
// worker to trip a limit aborts the whole round for everyone.
func (f *Fixpoint) exec(w, ri int) *Exec {
	ex := f.execs[w][ri]
	if ex == nil {
		ex = NewExec(f.Plans.Rules[ri])
		if f.Budget != nil {
			ex.SetBudget(f.Budget)
		}
		f.execs[w][ri] = ex
	}
	return ex
}

// probes sums every worker's probe counters. Called between rounds only,
// when the workers are idle.
func (f *Fixpoint) probes() int64 {
	var n int64
	for _, wes := range f.execs {
		for _, ex := range wes {
			if ex != nil {
				n += int64(ex.Probes)
			}
		}
	}
	return n
}
