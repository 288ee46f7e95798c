package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/ucq"
)

// DefaultLimit bounds result sets when the request does not set one.
const DefaultLimit = 100000

// queryCancelStride is how many emitted rows pass between context checks
// on the pattern-probe hot path (the compiled-CQ path has its own stride).
const queryCancelStride = 256

// QueryRequest describes one query. Two forms:
//
//   - Pattern: Pred names a predicate, Args gives one entry per argument
//     position — "_" (or "") for a free position, any other string for a
//     bound constant. Compiles to a single cached ScanPlan; a fully
//     bound pattern resolves through the dedup-table ground-lookup fast
//     path in O(1).
//   - Rule query: Query holds surface syntax with exactly one query and
//     optionally view rules evaluated on the fly, e.g.
//     "tc(X,Y) :- e(X,Y). tc(X,Z) :- e(X,Y), tc(Y,Z). ?(X) :- tc(a,X)."
//     The query compiles once per (generation, rules shape, goal shape),
//     its constants run-time parameters. A bare "?(..) :- body."
//     conjunctive query, and a goal with a constant over non-recursive
//     positive view rules (unfolded into a union of CQs), stream straight
//     off the snapshot; other view rules evaluate into a copy-on-write
//     overlay of the snapshot — on demand (magic-set rewriting) when a
//     constant binds a view atom, else in full — cached per (epoch,
//     evaluation, constants), so a repeated view query of an unchanged
//     epoch reuses the materialization (see ruleQueryStream).
//
// Query takes precedence when both are set.
type QueryRequest struct {
	Pred  string   `json:"pred,omitempty"`
	Args  []string `json:"args,omitempty"`
	Query string   `json:"query,omitempty"`
	Limit int      `json:"limit,omitempty"`
	// TimeoutMS, MaxDerived, and MaxProbes bound the query's evaluation
	// (deadline in milliseconds, derived-fact cap for view builds, probe
	// cap for join work). Each is clamped by the server-side ceiling
	// (service.Options); 0 means "the server default". Over-budget
	// evaluation fails with plan.ErrOverBudget, an expired deadline with
	// an error matching context.DeadlineExceeded.
	TimeoutMS  int `json:"timeout_ms,omitempty"`
	MaxDerived int `json:"max_derived,omitempty"`
	MaxProbes  int `json:"max_probes,omitempty"`
	// Explain requests a structured execution trace alongside the
	// answer: join orders, per-stratum round counts, probes, derived
	// facts, cache hits, and per-stage wall time. Delivered through the
	// sink's TraceSink hook after End (the HTTP layer maps ?explain=1 here
	// and attaches it to the JSON response).
	Explain bool `json:"explain,omitempty"`
	// RequestID tags the query's trace and slow-query log line; set by
	// the transport (never from the request body).
	RequestID string `json:"-"`
}

// QueryResponse is one query's answer, tagged with the epoch it was
// served from.
type QueryResponse struct {
	Epoch     uint64     `json:"epoch"`
	Columns   int        `json:"columns"`
	Tuples    [][]string `json:"tuples"`
	Truncated bool       `json:"truncated,omitempty"`
	// Bool is set for boolean rule queries (no output variables).
	Bool *bool `json:"bool,omitempty"`
	// Explain carries the execution trace when the request asked for
	// one.
	Explain *QueryTrace `json:"explain,omitempty"`
}

// Sink receives one query's answer incrementally: Begin once, Row per
// answer tuple in enumeration order (RowTerms instead, if the sink is a
// TermSink), End once (on success). The tuple slice passed to Row is
// reused between calls — implementations retaining it must copy. A
// non-nil error from any method aborts the enumeration and propagates out
// of QueryStream; the HTTP layer uses this to stop evaluating the moment
// a streaming client disconnects.
type Sink interface {
	Begin(epoch uint64, columns int) error
	Row(tuple []string) error
	End(truncated bool, boolAns *bool) error
}

// planKey identifies a cached pattern plan: the predicate plus the set of
// bound positions. The constants themselves live in the per-query frame
// (bound positions compile to ArgBound slots), so one plan serves every
// constant combination of the same shape.
type planKey struct {
	pred schema.PredID
	mask uint64
}

// collectSink materializes a streamed answer into a QueryResponse — the
// compatibility core of the non-streaming Query. Row copies land in
// block-allocated arenas (fresh blocks, never grown, so issued row
// slices stay valid). Blocks start at 16 rows and double up to 1024: a
// point lookup pays for the rows it returns, a large answer one
// allocation per ~1k rows instead of one per row.
type collectSink struct {
	resp  QueryResponse
	arena []string
}

func (c *collectSink) Begin(epoch uint64, columns int) error {
	c.resp.Epoch = epoch
	c.resp.Columns = columns
	c.resp.Tuples = [][]string{}
	return nil
}

func (c *collectSink) Row(tuple []string) error {
	copy(c.next(len(tuple)), tuple)
	return nil
}

func (c *collectSink) RowTerms(st *term.Store, tuple []term.Term) error {
	row := c.next(len(tuple))
	for i, t := range tuple {
		row[i] = st.Name(t)
	}
	return nil
}

// next appends an n-wide row to the response and returns it for filling.
func (c *collectSink) next(n int) []string {
	if len(c.arena)+n > cap(c.arena) {
		rows := min(max(2*cap(c.arena)/max(n, 1), 16), 1024)
		c.arena = make([]string, 0, rows*max(n, 1))
	}
	start := len(c.arena)
	c.arena = c.arena[:start+n]
	row := c.arena[start : start+n : start+n]
	c.resp.Tuples = append(c.resp.Tuples, row)
	return row
}

func (c *collectSink) End(truncated bool, boolAns *bool) error {
	c.resp.Truncated = truncated
	c.resp.Bool = boolAns
	return nil
}

func (c *collectSink) Trace(tr *QueryTrace) error {
	c.resp.Explain = tr
	return nil
}

// answerRows is the one emission loop of both query paths: it hands each
// answer tuple to the sink as terms under the request's limit, then
// closes the answer. A sink that is no TermSink gets the tuple's names
// through Row, rendered into one reused slice.
type answerRows struct {
	sink      Sink
	terms     TermSink // nil: render names for sink.Row
	names     []string
	st        *term.Store
	limit     int
	emitted   int
	truncated bool
	abort     error
}

func newAnswerRows(sink Sink, st *term.Store, limit int) *answerRows {
	r := &answerRows{sink: sink, st: st, limit: limit}
	r.terms, _ = sink.(TermSink)
	return r
}

// room reports whether another answer fits under the limit; the first
// match past it only flags the truncation.
func (r *answerRows) room() bool {
	if r.emitted >= r.limit {
		r.truncated = true
		return false
	}
	return true
}

// emit delivers one answer tuple and reports whether the enumeration
// goes on.
func (r *answerRows) emit(tup []term.Term) bool {
	var err error
	if r.terms != nil {
		err = r.terms.RowTerms(r.st, tup)
	} else {
		if len(r.names) != len(tup) {
			r.names = make([]string, len(tup))
		}
		for i, t := range tup {
			r.names[i] = r.st.Name(t)
		}
		err = r.sink.Row(r.names)
	}
	if err != nil {
		r.abort = sinkErr(err)
		return false
	}
	r.emitted++
	return true
}

// end closes the answer: the error that stopped the enumeration, else
// the sink's End.
func (r *answerRows) end() error {
	if r.abort != nil {
		return r.abort
	}
	return sinkErr(r.sink.End(r.truncated, nil))
}

// Query evaluates one request against the current epoch's snapshot,
// returning the materialized answer set. Embedders wanting incremental
// delivery or cancellation use QueryStream directly.
func (s *Service) Query(req *QueryRequest) (*QueryResponse, error) {
	var c collectSink
	if err := s.QueryStream(context.Background(), req, &c); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// QueryStream evaluates one request against the current epoch's snapshot,
// delivering answers through the sink as the enumeration produces them:
// the first Row arrives before the full answer set exists, and a limit
// stops the underlying join early instead of truncating a materialized
// result. ctx cancellation is checked inside the enumeration loops, so an
// abandoned query stops consuming the snapshot promptly; a cancelled or
// sink-aborted query counts into Stats.QueriesAborted.
func (s *Service) QueryStream(ctx context.Context, req *QueryRequest, sink Sink) error {
	e, err := s.acquire()
	if err != nil {
		return err
	}
	defer e.release()
	s.queries.Add(1)
	// One trace serves both explain responses and the slow-query log;
	// queries needing neither never allocate it. The clock is read only
	// when a trace or the metrics registry will consume the elapsed time.
	var tr *QueryTrace
	if req.Explain || s.opt.SlowQuery > 0 {
		tr = &QueryTrace{RequestID: req.RequestID, Epoch: e.seq.Load()}
	}
	var t0 time.Time
	if tr != nil || obs.On() {
		t0 = time.Now()
	}
	bud, cancel := s.requestBudget(ctx, req.TimeoutMS, req.MaxDerived, req.MaxProbes)
	defer cancel()
	limit := req.Limit
	if limit <= 0 || limit > DefaultLimit {
		limit = DefaultLimit
	}
	var class queryClass
	var rows int
	if req.Query != "" {
		class, rows, err = s.ruleQueryStream(bud, e, req.Query, limit, sink, tr)
	} else {
		class, rows, err = s.patternQueryStream(bud, e, req, limit, sink, tr)
	}
	s.classify(err)
	var elapsed time.Duration
	if !t0.IsZero() {
		elapsed = time.Since(t0)
	}
	if obs.On() {
		qSeconds[class].Observe(int64(elapsed))
		qRows[class].Observe(int64(rows))
	}
	if tr != nil {
		tr.Class = class.String()
		tr.Rows = rows
		tr.WallMicros = elapsed.Microseconds()
		if err != nil {
			tr.Error = err.Error()
		}
		if req.Explain && err == nil {
			if ts, ok := sink.(TraceSink); ok {
				if terr := ts.Trace(tr); terr != nil {
					return sinkErr(terr)
				}
			}
		}
		if s.opt.SlowQuery > 0 && elapsed >= s.opt.SlowQuery {
			s.slowLog(tr)
		}
	}
	return err
}

// errSink wraps sink failures so QueryStream can tell an aborted delivery
// (client gone) from an evaluation error.
var errSink = errors.New("sink aborted")

func sinkErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errSink, err)
}

// patternQueryStream runs the compiled-ScanPlan path: resolve the
// predicate and the bound constants (lock-free reads against the
// concurrent naming context), fetch or compile the (pred, mask) plan,
// fill a frame, probe the snapshot. The probe stops the moment the limit
// is exceeded (the limit+1-th match only sets the truncation flag) — a
// "first 10 of a million" pattern query costs 11 matches, not a scan.
func (s *Service) patternQueryStream(bud *plan.Budget, e *epoch, req *QueryRequest, limit int, sink Sink, tr *QueryTrace) (queryClass, int, error) {
	prog := e.gen.prog
	class := classPattern
	pid, ok := prog.Reg.Lookup(req.Pred)
	if !ok {
		return class, 0, fmt.Errorf("service: unknown predicate %q", req.Pred)
	}
	arity := prog.Reg.Arity(pid)
	if len(req.Args) != arity {
		return class, 0, fmt.Errorf("service: %s has arity %d, got %d args", req.Pred, arity, len(req.Args))
	}
	if arity > 64 {
		return class, 0, errors.New("service: pattern arity exceeds 64")
	}
	var mask uint64
	frame := storage.NewFrame(arity)
	known := true
	for i, v := range req.Args {
		if v == "" || v == "_" {
			continue
		}
		c, ok := prog.Store.HasConst(v)
		if !ok {
			// A constant the instance has never seen matches nothing.
			known = false
			break
		}
		mask |= 1 << uint(i)
		frame[i] = c
	}
	if arity > 0 && mask == (uint64(1)<<uint(arity))-1 {
		class = classGround
	}
	var pt *PatternTrace
	if tr != nil {
		pt = &PatternTrace{Pred: req.Pred, BoundMask: mask}
		tr.Pattern = pt
	}
	if err := bud.Check(); err != nil {
		return class, 0, err
	}
	if err := sink.Begin(e.seq.Load(), arity); err != nil {
		return class, 0, sinkErr(err)
	}
	if !known {
		return class, 0, sinkErr(sink.End(false, nil))
	}

	p, cached := s.patternPlan(e.gen, pid, mask, arity)
	if pt != nil {
		pt.Cached = cached
	}
	rows := newAnswerRows(sink, prog.Store, limit)
	pending := 0
	e.snap.DB().Probe(p, frame, 0, 0, 1, func() bool {
		if pt != nil {
			pt.Matches++
		}
		if !rows.room() {
			return false
		}
		// A local pending counter flushes into the shared budget once per
		// stride — the ground-lookup fast path never pays an atomic.
		if pending++; pending == queryCancelStride {
			pending = 0
			if err := bud.AddProbes(queryCancelStride); err != nil {
				rows.abort = err
				return false
			}
		}
		return rows.emit(frame)
	})
	if tr != nil {
		tr.Truncated = rows.truncated
	}
	return class, rows.emitted, rows.end()
}

// patternPlan returns the generation's cached scan plan for the shape,
// compiling it on first use (the second result reports a cache hit).
// Bound positions read the frame (ArgBound), free positions bind it
// (ArgBind); slot i is position i.
func (s *Service) patternPlan(g *generation, pid schema.PredID, mask uint64, arity int) (*storage.ScanPlan, bool) {
	return g.plans.get(planKey{pred: pid, mask: mask}, func() *storage.ScanPlan {
		args := make([]storage.ScanArg, arity)
		for i := range args {
			if mask&(1<<uint(i)) != 0 {
				args[i] = storage.ScanArg{Mode: storage.ArgBound, Slot: i}
			} else {
				args[i] = storage.ScanArg{Mode: storage.ArgBind, Slot: i}
			}
		}
		return storage.CompileScan(pid, args)
	})
}

// ruleQueryStream parses "view rules + one query" source against the
// generation's naming context and evaluates it over the epoch snapshot.
// The query compiles once per (generation, shape), its constants blanked
// into run-time parameters, so a read of a cached shape compiles nothing.
// A bare conjunctive query runs as one compiled CQPlan straight off the
// snapshot. A view query takes the generation's compiled evaluation of
// its (rules, goal shape) from compileView: when the goal holds a
// constant and the rules it reaches are positive and non-recursive, the
// goal's unfolding — a union of compiled CQs — runs straight off the
// snapshot too, deriving nothing; otherwise the rules (or, for a bound
// goal, their magic-set rewriting) evaluate into a copy-on-write overlay,
// read from the epoch's cache for the query's constants and built on a
// miss, and the goal runs over that overlay.
func (s *Service) ruleQueryStream(bud *plan.Budget, e *epoch, src string, limit int, sink Sink, tr *QueryTrace) (queryClass, int, error) {
	prog := e.gen.prog
	class := classCQ
	mark := traceClock(tr)
	// Parsing interns constants and variables — concurrent-safe, so no
	// lock; a scratch program keeps parsed TGDs out of the served rules.
	tmp := &logic.Program{Store: prog.Store, Reg: prog.Reg}
	res, err := parser.ParseInto(tmp, src)
	if err != nil {
		return class, 0, fmt.Errorf("service: query: %w", err)
	}
	if len(res.Queries) != 1 {
		return class, 0, fmt.Errorf("service: query text must contain exactly one query, got %d", len(res.Queries))
	}
	if len(res.Facts) > 0 {
		return class, 0, errors.New("service: query text must not contain facts")
	}
	mark = tr.stage("parse", mark)
	q := res.Queries[0]
	sdb := e.snap.DB()
	var (
		u      plan.UCQPlan
		args   []term.Term
		cached bool
	)
	if len(tmp.TGDs) > 0 {
		class = classView
		v, consts, hit := s.compileView(e.gen, sdb, tmp, q)
		name := "view_build"
		switch {
		case v.unfold != nil:
			s.viewUnfold.Add(1)
			u, args, cached, name = v.unfold, consts, hit, "view_unfold"
			if tr != nil {
				tr.View = &ViewTrace{Unfold: true, Members: len(v.unfold), RewriteCached: hit}
			}
		default:
			if sdb, err = s.viewOverlay(bud, e, v, consts, tr); err != nil {
				return class, 0, err
			}
			if v.magic != nil {
				q, u, cached, name = v.magic.Query, plan.UCQPlan{v.goal}, hit, "view_demand"
				if tr != nil {
					tr.View.Demand, tr.View.Adornment, tr.View.RewriteCached = true, v.magic.Adornment, hit
					for _, mp := range v.magic.MagicPreds {
						tr.View.MagicDerived += sdb.CountPred(mp)
					}
				}
			}
			if tr != nil && tr.View.CacheHit {
				name = "view_cache"
			}
		}
		mark = tr.stage(name, mark)
	}
	if u == nil {
		var p *plan.CQPlan
		p, args, cached = s.cqPlan(e.gen, q)
		u = plan.UCQPlan{p}
	}
	mark = tr.stage("plan", mark)
	var pt *plan.Tracer
	if tr != nil {
		pt = &plan.Tracer{}
	}

	if q.IsBoolean() {
		found := false
		if _, err := u.RunBudgetTraced(bud, pt, sdb, args, func([]term.Term) bool {
			found = true
			return false
		}); err != nil {
			return class, 0, err
		}
		if tr != nil {
			tr.CQ = &CQTrace{JoinOrder: pt.CQOrder, Cached: cached, Matches: pt.CQMatches}
			tr.stage("enumerate", mark)
		}
		if err := sink.Begin(e.seq.Load(), 0); err != nil {
			return class, 0, sinkErr(err)
		}
		return class, 0, sinkErr(sink.End(false, &found))
	}

	if err := sink.Begin(e.seq.Load(), len(q.Output)); err != nil {
		return class, 0, sinkErr(err)
	}
	rows := newAnswerRows(sink, prog.Store, limit)
	if _, err := u.RunBudgetTraced(bud, pt, sdb, args, func(tup []term.Term) bool {
		return rows.room() && rows.emit(tup)
	}); err != nil {
		return class, rows.emitted, err
	}
	if tr != nil {
		tr.CQ = &CQTrace{JoinOrder: pt.CQOrder, Cached: cached, Matches: pt.CQMatches}
		tr.Truncated = rows.truncated
		tr.stage("enumerate", mark)
	}
	return class, rows.emitted, rows.end()
}

// cqPlan returns the generation's cached compiled plan for the query
// shape and the query's parameter values (the third result reports a
// cache hit). Plans depend only on the query structure (slot assignment,
// join order, access paths) — never on data — so one plan serves every
// epoch of the generation. Keys are structural (predicate and term IDs),
// so textual re-parses of the same query hit, and body constants are
// blanked from the key into the plan's parameters, so one plan serves
// every constant of a shape: the plan is the query's unfolding under no
// rules, itself with its constants as parameters.
func (s *Service) cqPlan(g *generation, q *logic.CQ) (*plan.CQPlan, []term.Term, bool) {
	var buf [128]byte
	key, args := appendShape(buf[:0], q)
	p, hit := g.cqPlans.get(string(key), func() *plan.CQPlan {
		ms, _ := ucq.Unfold(nil, q, nil, ucq.Limits{})
		return plan.CompileCQParams(ms[0].CQ, ms[0].Params)
	})
	return p, args, hit
}

// viewPlan is one view query's evaluation compiled for a generation,
// which owns it: the goal's unfolding into a union of parameterized CQ
// plans, or the magic-set rewriting of (view rules, goal shape) with its
// compiled rules and adorned goal plan, or — when neither applies — the
// compiled view rules alone, one program shared by every goal shape over
// the same rules.
type viewPlan struct {
	// unfold is non-nil (possibly empty: no unfolding unifies) for an
	// unfolded goal; rules, magic and goal are then unset.
	unfold plan.UCQPlan
	rules  *plan.Program
	magic  *analysis.Magic // nil: the full view
	goal   *plan.CQPlan    // the adorned goal's plan; nil without magic
}

// viewShape keys a generation's view plans: the rules' shape plus the
// goal's shape with its constants blanked (see compileView), or an empty
// goal for the full view's compiled rules.
type viewShape struct{ rules, goal string }

// unfoldLimits bounds a goal's unfolding; a goal past a bound takes the
// overlay path. The unfolding compiles before any request budget exists,
// so the atom and step bounds are what keep a short program (a chain of
// views, each joining two copies of the one below) from spending a core
// and memory on an exponential union.
var unfoldLimits = ucq.Limits{Members: 256, Atoms: 4096, Steps: 4096}

// unfoldView compiles the goal's unfolding through the view rules into a
// union of CQ plans with the goal's constants as parameters, or reports
// false: when the rules do not unfold (ucq.Unfold), and when a member's
// plan is redundant (CQPlan.Redundant), since materializing the views
// projects away the existential bindings that the member would rerun its
// later join steps for.
func unfoldView(rules []*logic.TGD, q *logic.CQ, stored func(schema.PredID) bool) (plan.UCQPlan, bool) {
	ms, ok := ucq.Unfold(rules, q, stored, unfoldLimits)
	if !ok {
		return nil, false
	}
	u := make(plan.UCQPlan, len(ms))
	for i, m := range ms {
		if u[i] = plan.CompileCQParams(m.CQ, m.Params); u[i].Redundant() {
			return nil, false
		}
	}
	return u, true
}

// compileView returns the generation's compiled evaluation of (view rules,
// query) and, for an unfolding or a rewriting, the query's constants —
// the plans' parameter values, or the seed fact's arguments. One entry
// serves every constant of a goal shape, so a view read compiles nothing
// once its shape is cached; hit reports that the cache had it.
//
// A goal holding a constant over positive, full, single-head rules that
// do not recurse from it unfolds (unfoldView) when its union is small and
// no member reruns work a view's materialization would project away: the
// answers are those of a union of CQs over the snapshot, run with the
// constants as parameters. A view atom stays a member of its own only while the snapshot holds
// facts of its predicate (a view head that is also a stored predicate);
// which heads do is part of the key. Any other bound goal of positive
// full single-head rules takes the magic-set rewriting, and the rest the
// full view.
func (s *Service) compileView(g *generation, db *storage.DB, view *logic.Program, q *logic.CQ) (v *viewPlan, consts []term.Term, hit bool) {
	var buf [256]byte
	b := appendRules(buf[:0], view.TGDs)
	n := len(b)
	b, consts = appendShape(b, q)
	stored := func(p schema.PredID) bool { return db.CountPred(p) > 0 }
	if len(consts) > 0 {
		b = append(b, '|')
		for _, t := range view.TGDs {
			if stored(t.Head[0].Pred) {
				b = append(b, 's')
			} else {
				b = append(b, 'v')
			}
		}
	}
	rules := string(b[:n])
	v, hit = g.views.get(viewShape{rules, string(b[n:])}, func() *viewPlan {
		if len(consts) > 0 {
			if u, ok := unfoldView(view.TGDs, q, stored); ok {
				return &viewPlan{unfold: u}
			}
			if mg := analysis.MagicSets(view, q); mg != nil {
				return &viewPlan{rules: plan.Compile(mg.Prog, plan.Options{DeltaFirst: true}), magic: mg, goal: plan.CompileCQ(mg.Query)}
			}
		}
		full, _ := g.views.get(viewShape{rules: rules}, func() *viewPlan {
			return &viewPlan{rules: plan.Compile(view, plan.Options{DeltaFirst: true})}
		})
		return full
	})
	if v.unfold == nil && v.magic == nil {
		consts = nil
	}
	return v, consts, hit
}

// maxOverlays bounds an epoch's materialized-view cache; overlays beyond
// the cap build uncached (correct, just not reused).
const maxOverlays = 64

// overlayKey keys an epoch's overlays: the compiled rules evaluated and
// the seed constants they started from (none for a full view).
type overlayKey struct {
	rules  *plan.Program
	consts string
}

// overlayEntry is one (epoch, rules, constants) materialization. ready
// closes when db/err are set; late arrivals for the same key wait on it
// instead of duplicating the fixpoint (single-flight).
type overlayEntry struct {
	ready chan struct{}
	db    *storage.DB
	err   error
}

// viewOverlay returns the evaluation of a view plan over the epoch
// snapshot: a copy-on-write overlay DB (storage.Overlay) into which the
// rules' fixpoint evaluated in place — from the seed fact of the given
// constants for a rewriting, from the snapshot alone for a full view.
// Reads of base predicates fall through to the frozen snapshot backings
// with zero copying; only the relations the rules derive into hold
// private structures. The overlay is cached on the epoch keyed by
// (compiled rules, constants), so a repeated view query of an unchanged
// epoch pays zero materialization and zero snapshot-copy cost; the cache
// (and the borrowed backings) die with the epoch's refcount.
//
// The build runs under the REQUESTER's budget. An aborted or failed
// build is evicted before its waiters wake (never cached, never served);
// a waiter whose builder aborted — but whose own budget is still live —
// retries as the new builder under its own allowance, so one canceled
// client never poisons the key for everyone behind it.
func (s *Service) viewOverlay(bud *plan.Budget, e *epoch, v *viewPlan, consts []term.Term, tr *QueryTrace) (*storage.DB, error) {
	var b []byte
	for _, c := range consts {
		b = appendTerm(b, c)
	}
	k := overlayKey{v.rules, string(b)}
	for {
		e.ovMu.Lock()
		if e.overlays == nil {
			e.overlays = make(map[overlayKey]*overlayEntry)
		}
		if ent, ok := e.overlays[k]; ok {
			e.ovMu.Unlock()
			select {
			case <-ent.ready:
				if ent.err != nil && isAbort(ent.err) {
					if err := bud.Check(); err != nil {
						return nil, err // our budget is dead too
					}
					continue // builder aborted; its entry is evicted — retry
				}
				if ent.err == nil {
					s.viewHits.Add(1)
					if tr != nil {
						tr.View = &ViewTrace{Rules: len(v.rules.Rules), CacheHit: true}
					}
				}
				return ent.db, ent.err
			case <-bud.Context().Done():
				return nil, bud.Check()
			}
		}
		var ent *overlayEntry
		if len(e.overlays) < maxOverlays {
			ent = &overlayEntry{ready: make(chan struct{})}
			e.overlays[k] = ent
		}
		e.ovMu.Unlock()

		db, err := s.buildOverlay(bud, e, v, consts, tr)
		if ent == nil {
			return db, err
		}
		if err == nil {
			// Any number of later queries read a finished overlay at once,
			// and a probe of a writer-owned store may build an index: they
			// read its frozen view, while the builder, its one writer, reads
			// on in the overlay itself. The view lives and dies with the
			// epoch like the overlay, so nothing waits on its pins.
			ent.db = db.Snapshot().DB()
		} else {
			// Evict BEFORE closing ready: a woken waiter re-probes the
			// map and can never re-read (or re-wait on) the dead entry.
			e.ovMu.Lock()
			delete(e.overlays, k)
			e.ovMu.Unlock()
			ent.err = err
		}
		close(ent.ready)
		return db, err
	}
}

// buildOverlay evaluates a view plan's compiled rules into a fresh
// overlay of the epoch snapshot, a rewriting from its seed fact over the
// constants. The fixpoint runs in place (datalog.Options.InPlace): the
// overlay IS the private copy, so no clone precedes it — and on abort the
// partially evaluated overlay is simply dropped; the snapshot backings it
// borrowed stay pinned by the epoch, untouched.
func (s *Service) buildOverlay(bud *plan.Budget, e *epoch, v *viewPlan, consts []term.Term, tr *QueryTrace) (*storage.DB, error) {
	var pt *plan.Tracer
	if tr != nil {
		pt = &plan.Tracer{}
	}
	ov := e.snap.DB().Overlay()
	if v.magic != nil {
		s.viewDemand.Add(1)
		ov.Insert(atom.New(v.magic.Seed, consts...))
	} else {
		s.viewFull.Add(1)
	}
	if _, _, err := datalog.Run(v.rules, ov, datalog.Options{
		Stratify: true, InPlace: true, Budget: bud, Tracer: pt,
	}); err != nil {
		return nil, fmt.Errorf("service: view: %w", err)
	}
	if tr != nil {
		tr.View = buildViewTrace(v.rules, pt)
	}
	return ov, nil
}

// appendRules appends the structural shape of a rule set: predicate IDs
// plus per-argument (kind, ID) — generation-local IDs, so the key is only
// compared within one generation. Variables intern by name, so textually
// identical rule sets collide (hit) and renamed ones don't (miss,
// conservatively correct).
func appendRules(b []byte, tgds []*logic.TGD) []byte {
	for _, t := range tgds {
		b = appendAtoms(b, t.Head)
		b = append(b, ':')
		b = appendAtoms(b, t.Body)
		if len(t.NegBody) > 0 {
			b = append(b, '~')
			b = appendAtoms(b, t.NegBody)
		}
		b = append(b, '.')
	}
	return b
}

// appendShape appends the structural shape of a query — output row plus
// body, body constants blanked — and returns the blanked constants in
// order: the parameter values of the shape's compiled plans.
func appendShape(b []byte, q *logic.CQ) ([]byte, []term.Term) {
	b = append(b, '?')
	for _, t := range q.Output {
		b = appendTerm(b, t)
	}
	b = append(b, ':')
	var consts []term.Term
	for _, a := range q.Atoms {
		b = appendU32(b, uint32(a.Pred))
		for _, t := range a.Args {
			if t.IsVar() {
				b = appendTerm(b, t)
			} else {
				b = append(b, '#')
				consts = append(consts, t)
			}
		}
		b = append(b, ';')
	}
	return b, consts
}

func appendAtoms(b []byte, atoms []atom.Atom) []byte {
	for _, a := range atoms {
		b = appendU32(b, uint32(a.Pred))
		for _, t := range a.Args {
			b = appendTerm(b, t)
		}
		b = append(b, ';')
	}
	return b
}

func appendTerm(b []byte, t term.Term) []byte {
	return appendU32(append(b, byte(t.Kind())), t.ID())
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
