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
//     View rules evaluate into a copy-on-write overlay of the epoch
//     snapshot: on demand (magic-set rewriting) when a constant of the
//     query binds a view atom, else in full, cached per (epoch,
//     view-rules shape) so repeated queries of an unchanged epoch reuse
//     the materialization; a bare
//     "?(..) :- body." conjunctive query compiles to a plan.CQPlan
//     (cached per (generation, query shape)) and streams straight off
//     the snapshot.
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
	k := planKey{pred: pid, mask: mask}
	g.planMu.RLock()
	p, ok := g.plans[k]
	g.planMu.RUnlock()
	if ok {
		return p, true
	}
	args := make([]storage.ScanArg, arity)
	for i := 0; i < arity; i++ {
		if mask&(1<<uint(i)) != 0 {
			args[i] = storage.ScanArg{Mode: storage.ArgBound, Slot: i}
		} else {
			args[i] = storage.ScanArg{Mode: storage.ArgBind, Slot: i}
		}
	}
	p = storage.CompileScan(pid, args)
	g.planMu.Lock()
	g.plans[k] = p
	g.planMu.Unlock()
	return p, false
}

// ruleQueryStream parses "view rules + one query" source against the
// generation's naming context and evaluates it over the epoch snapshot:
// view rules evaluate into a copy-on-write overlay, the query itself runs
// as a cached compiled CQPlan streaming through the sink. The input alone
// picks how the view is evaluated: an epoch that already holds the shape's
// full overlay serves it; else a query whose constants bind a view atom
// (over negation-free rules) evaluates on demand — the magic-set rewriting
// derives only what the goal reaches, into an overlay used once and
// dropped; else the full overlay is built and cached.
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
		p      *plan.CQPlan
		cached bool
	)
	if len(tmp.TGDs) > 0 {
		class = classView
		vk := viewKey(tmp.TGDs)
		name := "view_build"
		if d, consts, hit := s.demandRewrite(e, vk, tmp, q); d != nil {
			name, q, p, cached = "view_demand", d.Query, d.goal, hit
			sdb, err = s.buildOverlay(bud, e, d.rules, atom.New(d.Seed, consts...), tr)
			if tr != nil && err == nil {
				tr.View.Demand, tr.View.Adornment, tr.View.RewriteCached = true, d.Adornment, hit
				for _, p := range d.MagicPreds {
					tr.View.MagicDerived += sdb.CountPred(p)
				}
			}
		} else if sdb, err = s.viewOverlay(bud, e, vk, tmp, tr); err == nil && tr != nil && tr.View.CacheHit {
			name = "view_cache"
		}
		if err != nil {
			return class, 0, err
		}
		mark = tr.stage(name, mark)
	}
	if p == nil {
		p, cached = s.cqPlan(e.gen, q)
	}
	mark = tr.stage("plan", mark)
	var pt *plan.Tracer
	if tr != nil {
		pt = &plan.Tracer{}
	}

	if q.IsBoolean() {
		found := false
		if _, err := p.RunBudgetTraced(bud, pt, sdb, func([]term.Term) bool {
			found = true
			return false
		}); err != nil {
			return class, 0, err
		}
		if tr != nil {
			tr.CQ = &CQTrace{JoinOrder: p.Order, Cached: cached, Matches: pt.CQMatches}
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
	if _, err := p.RunBudgetTraced(bud, pt, sdb, func(tup []term.Term) bool {
		return rows.room() && rows.emit(tup)
	}); err != nil {
		return class, rows.emitted, err
	}
	if tr != nil {
		tr.CQ = &CQTrace{JoinOrder: p.Order, Cached: cached, Matches: pt.CQMatches}
		tr.Truncated = rows.truncated
		tr.stage("enumerate", mark)
	}
	return class, rows.emitted, rows.end()
}

// cqPlan returns the generation's cached compiled plan for the query
// shape (the second result reports a cache hit). Plans depend only on
// the query structure (slot assignment, join order, access paths) —
// never on data — so one plan serves every epoch of the generation.
// Keys are structural (predicate and term IDs), so textual re-parses of
// the same query hit.
func (s *Service) cqPlan(g *generation, q *logic.CQ) (*plan.CQPlan, bool) {
	k := cqKey(q)
	g.planMu.RLock()
	p, ok := g.cqPlans[k]
	g.planMu.RUnlock()
	if ok {
		return p, true
	}
	p = plan.CompileCQ(q)
	g.planMu.Lock()
	if len(g.cqPlans) >= maxCQPlans {
		clear(g.cqPlans)
	}
	g.cqPlans[k] = p
	g.planMu.Unlock()
	return p, false
}

// maxCQPlans bounds a generation's compiled-CQ cache and its rewriting
// cache; an adversarial stream of distinct shapes resets a cache rather
// than growing it.
const maxCQPlans = 256

// demand is a magic-set rewriting of (view rules, goal shape) compiled
// for reuse: the rewritten rules' program and the adorned goal's plan.
// The generation that caches it owns both, so they live and die with the
// loaded program.
type demand struct {
	*analysis.Magic
	rules *plan.Program
	goal  *plan.CQPlan
}

// demandRewrite returns the compiled magic-set rewriting of (view rules,
// query) and the query's constants — the seed fact's arguments — or nil
// when the query takes the full-overlay path: the epoch already holds the
// finished overlay (one still building does not count — a bound query
// does not wait out someone else's whole-view build), or
// analysis.MagicSets finds no binding to push. Rewritings are cached per
// generation by the rules' shape plus the query's shape with its
// constants blanked: one entry serves every constant, so a demand read
// compiles nothing once its shape is cached. hit reports that the cache
// had it.
func (s *Service) demandRewrite(e *epoch, vk string, view *logic.Program, q *logic.CQ) (d *demand, consts []term.Term, hit bool) {
	e.ovMu.Lock()
	ent := e.overlays[vk]
	e.ovMu.Unlock()
	if ent != nil {
		select {
		case <-ent.ready:
			if ent.err == nil {
				return nil, nil, false
			}
		default:
		}
	}
	b := append([]byte(vk), '?')
	for _, t := range q.Output {
		b = appendTerm(b, t)
	}
	for _, a := range q.Atoms {
		b = appendU32(append(b, ';'), uint32(a.Pred))
		for _, t := range a.Args {
			if t.IsVar() {
				b = appendTerm(b, t)
			} else {
				b = append(b, '#')
				consts = append(consts, t)
			}
		}
	}
	if len(consts) == 0 {
		return nil, nil, false
	}
	g, k := e.gen, string(b)
	g.planMu.RLock()
	d, hit = g.rewrites[k]
	g.planMu.RUnlock()
	if !hit {
		if mg := analysis.MagicSets(view, q); mg != nil {
			d = &demand{Magic: mg, rules: plan.Compile(mg.Prog, plan.Options{DeltaFirst: true}), goal: plan.CompileCQ(mg.Query)}
		}
		g.planMu.Lock()
		if len(g.rewrites) >= maxCQPlans {
			clear(g.rewrites)
		}
		g.rewrites[k] = d
		g.planMu.Unlock()
	}
	return d, consts, hit
}

// maxOverlays bounds an epoch's materialized-view cache; shapes beyond
// the cap build uncached overlays (correct, just not reused).
const maxOverlays = 64

// overlayEntry is one (epoch, view-rules shape) materialization. ready
// closes when db/err are set; late arrivals for the same shape wait on it
// instead of duplicating the fixpoint (single-flight).
type overlayEntry struct {
	ready chan struct{}
	db    *storage.DB
	err   error
}

// viewOverlay returns the materialization of the view rules over the
// epoch snapshot: a copy-on-write overlay DB (storage.Overlay) into which
// the rules' fixpoint evaluated in place. Reads of base predicates fall
// through to the frozen snapshot backings with zero copying; only the
// relations the view rules actually derive into hold private structures.
// The overlay is cached on the epoch keyed by the rules' structural
// shape, so every query of an unchanged epoch after the first pays zero
// materialization and zero snapshot-copy cost; the cache (and the
// borrowed backings) die with the epoch's refcount.
//
// The build runs under the REQUESTER's budget. An aborted or failed
// build is evicted before its waiters wake (never cached, never served);
// a waiter whose builder aborted — but whose own budget is still live —
// retries as the new builder under its own allowance, so one canceled
// client never poisons the shape for everyone behind it.
func (s *Service) viewOverlay(bud *plan.Budget, e *epoch, k string, view *logic.Program, tr *QueryTrace) (*storage.DB, error) {
	for {
		e.ovMu.Lock()
		if e.overlays == nil {
			e.overlays = make(map[string]*overlayEntry)
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
						tr.View = &ViewTrace{Rules: len(view.TGDs), CacheHit: true}
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

		s.viewFull.Add(1)
		db, err := s.buildOverlay(bud, e, plan.Compile(view, plan.Options{DeltaFirst: true}), atom.Atom{}, tr)
		if err == nil {
			// Any number of queries read a finished overlay at once, and a
			// probe of a writer-owned store may build an index: serve its
			// frozen view. The view lives and dies with the epoch like the
			// overlay itself, so nothing waits on its pins.
			db = db.Snapshot().DB()
		}
		if ent != nil {
			if err != nil {
				// Evict BEFORE closing ready: a woken waiter re-probes the
				// map and can never re-read (or re-wait on) the dead entry.
				e.ovMu.Lock()
				delete(e.overlays, k)
				e.ovMu.Unlock()
			}
			ent.db, ent.err = db, err
			close(ent.ready)
		}
		return db, err
	}
}

// buildOverlay evaluates compiled rules — view rules, or their demand
// rewriting from the goal's seed fact (no seed: nil Args) — into a fresh
// overlay of the epoch snapshot. The fixpoint runs in place (datalog.
// Options.InPlace): the overlay IS the private copy, so no clone precedes
// it — and on abort the partially evaluated overlay is simply dropped;
// the snapshot backings it borrowed stay pinned by the epoch, untouched.
func (s *Service) buildOverlay(bud *plan.Budget, e *epoch, rules *plan.Program, seed atom.Atom, tr *QueryTrace) (*storage.DB, error) {
	var pt *plan.Tracer
	if tr != nil {
		pt = &plan.Tracer{}
	}
	ov := e.snap.DB().Overlay()
	if seed.Args != nil {
		s.viewDemand.Add(1)
		ov.Insert(seed)
	}
	if _, _, err := datalog.Run(rules, ov, datalog.Options{
		Stratify: true, InPlace: true, Budget: bud, Tracer: pt,
	}); err != nil {
		return nil, fmt.Errorf("service: view: %w", err)
	}
	if tr != nil {
		tr.View = buildViewTrace(rules, pt)
	}
	return ov, nil
}

// viewKey renders the structural shape of a rule set as a byte string:
// predicate IDs plus per-argument (kind, ID) — generation-local IDs, so
// the key is only compared within one epoch's cache. Variables intern by
// name, so textually identical rule sets collide (hit) and renamed ones
// don't (miss, conservatively correct).
func viewKey(tgds []*logic.TGD) string {
	var b []byte
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
	return string(b)
}

// cqKey renders the structural shape of a query (output row plus body) as
// a byte string.
func cqKey(q *logic.CQ) string {
	var b []byte
	for _, t := range q.Output {
		b = appendTerm(b, t)
	}
	b = append(b, ':')
	b = appendAtoms(b, q.Atoms)
	return string(b)
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
