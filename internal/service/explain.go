package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/plan"
	"repro/internal/term"
)

// Per-query tracing. A QueryTrace is built when the request asks for
// it (QueryRequest.Explain) or when a slow-query threshold is armed
// (Options.SlowQuery) — the same structure serves both: explain
// responses attach it to the answer via the TraceSink hook, and slow
// queries emit it as one structured log line. Queries with neither
// never allocate a trace and never read the clock beyond the metrics
// gate.

// queryClass buckets queries for metrics and traces: ground (fully
// bound pattern), pattern (partially bound scan), cq (compiled
// conjunctive query), view (rule query with view rules).
type queryClass uint8

const (
	classPattern queryClass = iota
	classGround
	classCQ
	classView
	nClasses
)

func (c queryClass) String() string {
	switch c {
	case classGround:
		return "ground"
	case classCQ:
		return "cq"
	case classView:
		return "view"
	default:
		return "pattern"
	}
}

// QueryTrace is one query's structured execution trace.
type QueryTrace struct {
	RequestID  string `json:"request_id,omitempty"`
	Class      string `json:"class"`
	Epoch      uint64 `json:"epoch"`
	Rows       int    `json:"rows"`
	Truncated  bool   `json:"truncated,omitempty"`
	WallMicros int64  `json:"wall_us"`
	Error      string `json:"error,omitempty"`
	// Stages is the wall time per pipeline stage of a rule query
	// (parse, view_unfold/view_build/view_cache/view_demand, plan,
	// enumerate), in order.
	Stages []StageTrace `json:"stages,omitempty"`
	// Exactly one of Pattern / CQ is set by class (a view query sets CQ
	// plus View).
	Pattern *PatternTrace `json:"pattern,omitempty"`
	CQ      *CQTrace      `json:"cq,omitempty"`
	View    *ViewTrace    `json:"view,omitempty"`
}

// StageTrace is one pipeline stage's wall time.
type StageTrace struct {
	Name   string `json:"name"`
	Micros int64  `json:"us"`
}

// PatternTrace describes a pattern/ground query's execution.
type PatternTrace struct {
	Pred string `json:"pred"`
	// BoundMask has bit i set when argument position i was bound.
	BoundMask uint64 `json:"bound_mask"`
	// Cached reports whether the (pred, mask) scan plan came from the
	// generation's cache.
	Cached bool `json:"plan_cached"`
	// Matches counts probe matches (emitted rows plus the truncation
	// probe, when the limit fired).
	Matches int `json:"matches"`
}

// CQTrace describes a compiled conjunctive query's execution.
type CQTrace struct {
	// JoinOrder is the greedy join order: JoinOrder[k] is the body atom
	// index visited at join level k.
	JoinOrder []int `json:"join_order"`
	// Cached reports whether the compiled plan came from the
	// generation's cache (for a demand read, with its cached rewriting;
	// for an unfolded read, with its union).
	Cached bool `json:"plan_cached"`
	// Matches counts row matches across all join levels (of all members
	// of an unfolded read, whose JoinOrder is its last member's run).
	Matches int `json:"matches"`
}

// ViewTrace describes the view-rule evaluation of a rule query.
type ViewTrace struct {
	// Unfold: the goal held a constant and the rules it reaches are
	// positive and non-recursive, so the read ran the goal's unfolding —
	// a union of Members compiled CQs — over the snapshot: no overlay, no
	// fixpoint, nothing derived (the build fields below are zero).
	// RewriteCached then reports that the union came from the
	// generation's cache.
	Unfold  bool `json:"unfold,omitempty"`
	Members int  `json:"members,omitempty"`
	// Rules counts the rules evaluated: the view rules, or under Demand
	// the rules of their rewriting.
	Rules int `json:"rules"`
	// Demand: the query's constants bound a view atom, so the overlay is
	// the rules' magic-set rewriting evaluated from the goal's seed fact,
	// not the full view. Adornment names the goal's adorned view atoms
	// ("back#bf"), MagicDerived counts the overlay's facts of the magic
	// predicates (the demand bookkeeping inside Derived), and
	// RewriteCached reports that the rewriting, compiled rules and goal
	// plan included, came from the generation's cache. The CQ trace then
	// describes the adorned goal, whose atom 0 is the seed atom.
	Demand        bool   `json:"demand,omitempty"`
	Adornment     string `json:"adornment,omitempty"`
	MagicDerived  int    `json:"magic_derived,omitempty"`
	RewriteCached bool   `json:"rewrite_cached,omitempty"`
	// CacheHit: the overlay — the full view, or the rewriting's for the
	// same constants — came from the epoch's view cache (the build fields
	// below are zero — the work happened in an earlier query, possibly a
	// concurrent one this query waited on).
	CacheHit bool  `json:"cache_hit"`
	Rounds   int   `json:"rounds,omitempty"`
	Derived  int   `json:"derived,omitempty"`
	Probes   int64 `json:"probes,omitempty"`
	// Strata is the per-stratum fixpoint effort of the build.
	Strata []plan.StratumTrace `json:"strata,omitempty"`
	// JoinOrders are the join orders of the build, one per (rule,
	// delta) pair, rule indices resolved to "headpred/ruleindex" labels.
	JoinOrders []ViewJoin `json:"join_orders,omitempty"`
}

// ViewJoin is the join order one (rule, delta) pair of a view build
// ran, with the rule resolved to a label.
type ViewJoin struct {
	Rule  string `json:"rule"`
	Delta int    `json:"delta"`
	Round int    `json:"round"`
	Order []int  `json:"order"`
}

// TraceSink is optionally implemented by Sinks to receive the explain
// trace after End: QueryStream calls Trace exactly once, after a
// successful enumeration, when the request set Explain. Sinks that
// don't implement it silently drop the trace.
type TraceSink interface {
	Trace(tr *QueryTrace) error
}

// TermSink is optionally implemented by Sinks that render answer terms
// themselves: QueryStream then calls RowTerms in place of Row, with the
// naming context the terms resolve against, and never renders a name on
// the sink's behalf (the HTTP sink copies each constant's JSON literal,
// encoded when it was interned). The tuple is reused between calls, like
// Row's. Sinks that don't implement it get Row with the rendered names.
type TermSink interface {
	RowTerms(st *term.Store, tuple []term.Term) error
}

// traceClock starts stage timing: the zero Time when no trace is
// collected, so untraced queries never read the clock here.
func traceClock(tr *QueryTrace) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// stage closes one pipeline stage, appending its wall time and
// returning the next stage's start. Nil-receiver no-op.
func (t *QueryTrace) stage(name string, start time.Time) time.Time {
	if t == nil {
		return start
	}
	now := time.Now()
	t.Stages = append(t.Stages, StageTrace{Name: name, Micros: now.Sub(start).Microseconds()})
	return now
}

// buildViewTrace renders a view build's plan.Tracer into the trace's
// wire shape, resolving rule indices against the compiled rules.
func buildViewTrace(rules *plan.Program, pt *plan.Tracer) *ViewTrace {
	vt := &ViewTrace{
		Rules:   len(rules.Rules),
		Rounds:  pt.Rounds,
		Derived: pt.Derived,
		Probes:  pt.Probes,
		Strata:  pt.Strata,
	}
	for _, jc := range pt.Joins {
		vt.JoinOrders = append(vt.JoinOrders, ViewJoin{
			Rule:  ruleLabel(rules, jc.Rule),
			Delta: jc.Delta,
			Round: jc.Round,
			Order: jc.Order,
		})
	}
	return vt
}

// ruleLabel renders "headpred/ruleindex" for compiled rule ri — stable
// across runs (rule order is the parse order).
func ruleLabel(rules *plan.Program, ri int) string {
	if ri < 0 || ri >= len(rules.Rules) {
		return fmt.Sprintf("rule#%d", ri)
	}
	return fmt.Sprintf("%s/%d", rules.Source.Reg.Name(rules.Rules[ri].TGD.Head[0].Pred), ri)
}

// logger returns the service's structured logger (Options.Logger, or
// the process default).
func (s *Service) logger() *slog.Logger {
	if s.opt.Logger != nil {
		return s.opt.Logger
	}
	return slog.Default()
}

// slowLog emits one structured line for a query at/over the
// Options.SlowQuery threshold: the identifying fields as attributes
// plus the full trace as JSON.
func (s *Service) slowLog(tr *QueryTrace) {
	b, err := json.Marshal(tr)
	if err != nil {
		b = []byte("{}")
	}
	s.logger().Warn("slow query",
		"request_id", tr.RequestID,
		"class", tr.Class,
		"epoch", tr.Epoch,
		"wall_us", tr.WallMicros,
		"rows", tr.Rows,
		"error", tr.Error,
		"trace", string(b),
	)
}
