package datalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/storage"
)

// Scheduling thresholds of the parallel evaluator. Both exist for the same
// reason: dispatching a goroutine, staging derivations in a buffer, and
// merging the buffer back all cost real work, so a round (or a shard) must
// carry enough rows to pay for it — the morsel-driven rule of never
// parallelizing the tail.
const (
	// minShardRows is the smallest delta window worth splitting: a (rule,
	// delta) pair gets one shard per minShardRows rows, capped at the
	// worker count, so tiny windows produce one job instead of `workers`
	// near-empty ones.
	minShardRows = 128
	// inlineRoundRows is the fan-out threshold for a whole round: below
	// this many total delta rows the coordinator runs the round inline —
	// no goroutines, no buffers, derived facts inserted directly exactly
	// like the sequential engine. Deep fixpoints with shallow rounds (long
	// chains) spend most of their rounds here.
	inlineRoundRows = 512
)

// EvalParallel computes the same fixpoint as Eval using a worker pool
// inside each semi-naive round — the multi-core direction of Section 7
// (future work 1). Rounds are barriers: all workers read one immutable
// snapshot of the instance (facts derived in a fanned round become visible
// in the next), so the engine is race-free without locking the fact store.
// The schedule differs from the sequential engine only in that fanned
// rounds defer insertions, which can add rounds but never changes the
// fixpoint.
//
// Within a round, scheduling is adaptive (see fixpointParallel): small
// rounds run inline on the coordinator, large rounds shard each (rule,
// delta) pair by the delta window's row count and drain the shard jobs
// through a dynamic queue. Workers stage derivations in columnar
// per-job tuple buffers (hashes computed at append time); the coordinator
// folds them in with one bulk DB.MergeBuffers call per round.
//
// Programs with negation are handled exactly as in Eval: evaluation is
// forced into stratified mode, and negated atoms — closed in strictly
// lower strata — are checked against the snapshot.
func EvalParallel(prog *logic.Program, db *storage.DB, opt Options, workers int) (*storage.DB, *Stats, error) {
	if workers < 1 {
		return nil, nil, fmt.Errorf("datalog: workers = %d, want >= 1", workers)
	}
	an := analysis.Analyze(prog)
	if !an.IsFullSingleHead() {
		return nil, nil, fmt.Errorf("datalog: program is not full single-head (Datalog)")
	}
	if prog.HasNegation() {
		if err := prog.Validate(); err != nil {
			return nil, nil, fmt.Errorf("datalog: %w", err)
		}
		if ok, vs := an.IsStratifiedNegation(); !ok {
			return nil, nil, fmt.Errorf("datalog: %s", vs[0].Reason)
		}
		opt.Stratify = true
	}
	if err := opt.Budget.Check(); err != nil {
		return nil, nil, err
	}
	e := &parEvaluator{
		evaluator: evaluator{
			prog:  prog,
			an:    an,
			db:    db.Clone(),
			opt:   opt,
			plans: plan.Cached(prog, plan.Options{DeltaFirst: opt.BiasRecursiveAtom}),
		},
		workers: workers,
		wexecs:  make([][]*plan.Exec, workers),
	}
	for w := range e.wexecs {
		e.wexecs[w] = make([]*plan.Exec, len(prog.TGDs))
	}
	if opt.Stratify {
		byLevel := make(map[int][]int)
		var levels []int
		for i, t := range prog.TGDs {
			l := an.Level(t.Head[0].Pred)
			if _, ok := byLevel[l]; !ok {
				levels = append(levels, l)
			}
			byLevel[l] = append(byLevel[l], i)
		}
		sort.Ints(levels)
		for _, l := range levels {
			if opt.Budget.Aborted() {
				break
			}
			rules := byLevel[l]
			growing := make(map[schema.PredID]bool)
			for _, ri := range rules {
				growing[prog.TGDs[ri].Head[0].Pred] = true
			}
			var rounds0, derived0 int
			var probes0 int64
			if opt.Tracer != nil {
				rounds0, derived0, probes0 = e.stats.Rounds, e.stats.Derived, e.probesNowPar()
			}
			e.fixpointParallel(rules, growing)
			if opt.Tracer != nil {
				opt.Tracer.Stratum(l, e.stats.Rounds-rounds0, e.stats.Derived-derived0, e.probesNowPar()-probes0)
			}
			e.stats.Strata++
		}
	} else {
		e.fixpointParallel(ruleIndices(prog), nil)
	}
	for _, wes := range e.wexecs {
		e.collectProbes(wes)
	}
	stats := e.stats
	opt.Tracer.Fixpoint(stats.Rounds, stats.Derived, int64(stats.Probes))
	recordFixpoint(&stats)
	if err := opt.Budget.Err(); err != nil {
		// Some worker tripped the budget: the private clone holds a
		// consistent but incomplete fixpoint and is not returned.
		return nil, &stats, err
	}
	return e.db, &stats, nil
}

type parEvaluator struct {
	evaluator
	workers int
	// wexecs[w][ri] is worker w's executor for rule ri: plans are shared
	// and immutable, binding frames are strictly per worker. The
	// coordinator is worker 0.
	wexecs [][]*plan.Exec
	// bufs is the pool of job output buffers, reused (Reset, not
	// reallocated) across every fanned round of the evaluation.
	bufs []*storage.TupleBuffer
	// jobs, alts, and rows are the round's job list, per-pair join-order
	// choices, and per-pair delta window counts, reused across rounds — a
	// steady-state round allocates nothing before its joins run.
	jobs []job
	alts []int
	rows []int
}

// pair is one (rule, delta position) unit of a round before sharding;
// pred is the delta atom's predicate, whose window row count drives the
// round's cost estimates.
type pair struct {
	rule, delta int
	pred        schema.PredID
}

// job is one (rule, delta position, alt order, delta shard) unit of a
// fanned round: the rule's join with the delta scan restricted to one
// contiguous sub-range of the delta window (storage.Probe shards the
// window by row range, so each worker's scan walks adjacent columnar
// rows). buf is the job's private output buffer — single-writer, merged in
// job order, so the result is deterministic no matter which worker drains
// which job.
type job struct {
	rule, delta, alt int
	shard, shards    int
	buf              *storage.TupleBuffer
}

// probesNowPar sums every worker's live probe counters. Only called at
// stratum boundaries (workers idle), when a tracer is attached.
func (e *parEvaluator) probesNowPar() int64 {
	var n int64
	for _, wes := range e.wexecs {
		for _, ex := range wes {
			if ex != nil {
				n += int64(ex.Probes)
			}
		}
	}
	return n
}

// wexec returns worker w's executor for rule ri, creating it on first use.
// Every worker's executor charges the same shared budget, so the first
// worker to trip a limit aborts the whole round for everyone.
func (e *parEvaluator) wexec(w, ri int) *plan.Exec {
	if e.wexecs[w][ri] == nil {
		e.wexecs[w][ri] = plan.NewExec(e.plans.Rules[ri])
		if e.opt.Budget != nil {
			e.wexecs[w][ri].SetBudget(e.opt.Budget)
		}
	}
	return e.wexecs[w][ri]
}

// shardsFor picks how many contiguous sub-ranges to split one delta window
// into: enough that every worker can help on a big window, never so many
// that a tiny window pays per-job dispatch for near-empty scans.
func shardsFor(rows, workers int) int {
	s := rows / minShardRows
	if s > workers {
		s = workers
	}
	if s < 1 {
		s = 1
	}
	return s
}

// fixpointParallel runs rounds to saturation. The (rule, delta) pair lists
// are built once per stratum — round 1 fires every rule once with an
// unrestricted window, steady-state rounds fire one pair per growing delta
// position — and each round is scheduled adaptively from the pairs'
// current window row counts.
func (e *parEvaluator) fixpointParallel(rules []int, growing map[schema.PredID]bool) {
	var first, steady []pair
	for _, ri := range rules {
		t := e.prog.TGDs[ri]
		first = append(first, pair{rule: ri, delta: 0, pred: t.Body[0].Pred})
		for _, di := range e.deltaPositions(t, growing, 2) {
			steady = append(steady, pair{rule: ri, delta: di, pred: t.Body[di].Pred})
		}
	}
	mark := storage.Mark(0)
	for round := 1; ; round++ {
		e.stats.Rounds++
		next := e.db.Mark()
		pairs := steady
		if round == 1 {
			pairs = first
		}
		added := e.runRound(pairs, mark, round)
		e.stats.Derived += added
		if added > e.stats.PeakDelta {
			e.stats.PeakDelta = added
		}
		if e.opt.Budget.Aborted() {
			return
		}
		mark = next
		if added == 0 {
			return
		}
	}
}

// runRound schedules and executes one round: cost-estimate every pair's
// delta window (choosing its join-order alternative while at it), then
// either run the whole round inline on the coordinator or shard it across
// the worker pool with buffered derivations and a bulk merge.
func (e *parEvaluator) runRound(pairs []pair, mark storage.Mark, round int) int {
	total := 0
	for len(e.alts) < len(pairs) {
		e.alts = append(e.alts, 0)
		e.rows = append(e.rows, 0)
	}
	alts, rows := e.alts[:len(pairs)], e.rows[:len(pairs)]
	for pi, pr := range pairs {
		alts[pi] = 0
		rows[pi] = e.db.CountSince(pr.pred, mark)
		total += rows[pi]
		if e.opt.Adaptive {
			alts[pi] = plan.ChooseAlt(e.db, e.plans.Rules[pr.rule], pr.delta, mark)
		}
		if e.opt.Tracer != nil {
			// Alternatives are chosen on the coordinator, so the tracer
			// needs no locking even in fanned rounds.
			e.opt.Tracer.Join(pr.rule, pr.delta, round, alts[pi], e.opt.Adaptive, e.plans.Rules[pr.rule].Variants[pr.delta].Alts[alts[pi]].Order)
		}
	}
	if e.workers == 1 || total < inlineRoundRows {
		e.stats.InlineRounds++
		return e.runInline(pairs, alts, mark)
	}
	e.stats.FannedRounds++
	return e.runFanned(pairs, alts, rows, mark)
}

// runInline executes the round's pairs on the coordinator with direct
// insertion — byte-for-byte the sequential engine's round, no goroutines,
// no buffers, no merge. Direct insertion makes within-round derivations
// visible to later pairs (exactly as in Eval), which can only shrink the
// round count relative to deferral.
func (e *parEvaluator) runInline(pairs []pair, alts []int, mark storage.Mark) int {
	before := e.db.Len()
	bud := e.opt.Budget
	for pi, pr := range pairs {
		ex := e.wexec(0, pr.rule)
		hasNeg := len(ex.Rule.Neg) > 0
		ex.RunAlt(e.db, pr.delta, alts[pi], mark, 0, 1, func() bool {
			if hasNeg && ex.Blocked(e.db) {
				return true
			}
			if e.db.InsertArgs(ex.HeadArgs(0)) && bud != nil {
				if bud.AddDerived(1) != nil {
					return false
				}
			}
			return true
		})
		if bud.Aborted() {
			break
		}
	}
	return e.db.Len() - before
}

// runFanned executes one buffered round: pairs are sharded by window size
// into jobs, workers drain the job queue through an atomic cursor (dynamic
// scheduling — a worker stuck on a skewed shard never strands the rest of
// the queue on a static residue schedule), each job stages its derivations
// in a private columnar buffer, and the coordinator folds all buffers into
// the instance with one MergeBuffers call.
func (e *parEvaluator) runFanned(pairs []pair, alts, rows []int, mark storage.Mark) int {
	jobs := e.jobs[:0]
	for pi, pr := range pairs {
		// Workers only read the instance: whatever posting index a scan of
		// this round can key on is caught up here, before they start.
		for _, sp := range e.plans.Rules[pr.rule].Variants[pr.delta].Alts[alts[pi]].Scans {
			e.db.CatchUp(sp)
		}
		shards := shardsFor(rows[pi], e.workers)
		for sh := 0; sh < shards; sh++ {
			jobs = append(jobs, job{rule: pr.rule, delta: pr.delta, alt: alts[pi], shard: sh, shards: shards})
		}
	}
	for len(e.bufs) < len(jobs) {
		e.bufs = append(e.bufs, storage.NewTupleBuffer())
	}
	for ji := range jobs {
		b := e.bufs[ji]
		b.Reset()
		jobs[ji].buf = b
	}
	e.jobs = jobs

	nw := e.workers
	if nw > len(jobs) {
		nw = len(jobs)
	}
	bud := e.opt.Budget
	var cursor atomic.Int32
	drain := func(w int) {
		for {
			if bud.Aborted() {
				return // stop picking up jobs once any worker tripped
			}
			ji := int(cursor.Add(1)) - 1
			if ji >= len(jobs) {
				return
			}
			j := jobs[ji]
			ex := e.wexec(w, j.rule)
			hasNeg := len(ex.Rule.Neg) > 0
			ex.RunAlt(e.db, j.delta, j.alt, mark, j.shard, j.shards, func() bool {
				if hasNeg && ex.Blocked(e.db) {
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
		return 0
	}
	added := e.db.MergeBuffers(e.bufs[:len(jobs)], nw)
	bud.AddDerived(added)
	return added
}
