// Package service implements the long-lived reasoning service of the
// reproduction: a program is materialized once (through the compiled-plan
// pipeline) and then served to many concurrent readers while a single
// writer applies incremental updates.
//
// Concurrency model — snapshot isolation over epochs:
//
//   - Every write transaction (Load, LoadCSV, Insert, Delete) runs under
//     the writer mutex, applies through internal/incremental (semi-naive
//     insertion deltas, in-place DRed deletion), and then PUBLISHES a new
//     epoch: a storage.Snapshot of the materialization plus a sequence
//     number.
//   - Queries acquire the current epoch (one atomic load + one atomic
//     increment), evaluate lock-free against its snapshot — the snapshot
//     is a frozen storage.DB, so the whole ScanPlan/Probe machinery,
//     including the ground-lookup fast path, runs unchanged — and release
//     it. Readers never block the writer and never observe in-flight
//     inserts, deletes, or compaction moves.
//   - An epoch is refcounted: the publisher holds one reference, each
//     in-flight query one more. When a retired epoch's count drops to
//     zero its snapshot releases its storage pins and the service
//     schedules a compaction retry (storage defers reclaiming pinned
//     relations; the retry copies out anything still pinned by the
//     current epoch).
//
// The naming context (term.Store / schema.Registry) is shared between
// readers and the writer WITHOUT service-level locking: both stores are
// concurrent-safe (striped interning with lock-free read paths, see
// internal/intern), so query parsing/rendering and bulk-load interning
// proceed in parallel. Bulk CSV loads are pipelined: batches parse and
// intern OFF the writer lock and land through short per-batch InsertBulk
// critical sections, each publishing an epoch — queries interleave with
// a streaming load instead of queueing behind it.
//
// The service maintains full single-head Datalog programs (the FULL1
// class materialized by internal/incremental); warded programs with
// existentials remain on the batch CLI (cmd/vadalog).
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atom"
	"repro/internal/incremental"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relio"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ErrNotLoaded is returned by queries and updates before a program is
// loaded.
var ErrNotLoaded = errors.New("service: no program loaded")

// Options configures the service.
type Options struct {
	// CSVBatch is the row count per staged buffer of the bulk-load path
	// (0: relio's default).
	CSVBatch int
	// MaxDerived / MaxProbes are the server-side ceilings for per-request
	// evaluation budgets (0 = unlimited): a request may ask for less work
	// than the ceiling, never more, and a request asking for nothing gets
	// the ceiling. The same ceilings bound write transactions (insert /
	// delete propagation, load materialization).
	MaxDerived int
	MaxProbes  int
	// MaxTimeout clamps per-request timeouts the same way (0 = no
	// ceiling). Requests without a timeout get the ceiling.
	MaxTimeout time.Duration
	// DataDir enables durability (see durable.go): every update batch is
	// write-ahead-logged there and the state is periodically
	// checkpointed. Empty: fully in-memory (the pre-durability
	// behaviour). Durable services are created with Open, not New.
	DataDir string
	// Fsync is the WAL sync policy: "always", "interval" (default), or
	// "never" (see wal.ParsePolicy).
	Fsync string
	// FsyncInterval is the batching window of the "interval" policy
	// (0: wal's default, 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery is the number of WAL records between automatic
	// checkpoints (0: 4096).
	CheckpointEvery int
	// SlowQuery, when positive, logs a structured trace (the same shape
	// ?explain=1 returns) for every query whose wall time reaches the
	// threshold. 0 disables the slow-query log.
	SlowQuery time.Duration
	// Logger receives the service's structured log lines (recovery
	// warnings, WAL failures, the slow-query log). Nil: slog.Default().
	Logger *slog.Logger
}

// Service is a materialized reasoning service. Create with New, load a
// program with Load, then serve concurrent Query calls interleaved with
// Insert/Delete/LoadCSV updates. Safe for concurrent use: queries run
// lock-free against epoch snapshots; updates serialize on an internal
// writer mutex.
type Service struct {
	opt Options

	// mu is the single-writer lock: Load, batch landings of LoadCSV,
	// Insert, Delete, and compaction retries serialize here. Queries
	// never take it, and a streaming LoadCSV holds it only per batch.
	mu  sync.Mutex
	gen *generation
	eng *incremental.Engine

	// cur is the published epoch; nil until the first Load.
	cur atomic.Pointer[epoch]
	seq atomic.Uint64

	// compactPending is set when a retired epoch fully drains; the next
	// write transaction retries physical reclamation.
	compactPending atomic.Bool

	queries atomic.Uint64
	drained atomic.Uint64
	// viewFull and viewDemand count the overlay fixpoints actually
	// executed: full view builds and demand evaluations of a bound goal.
	// viewHits counts rule queries served from an epoch's overlay cache,
	// so the gap between rule queries and builds is the cache's work
	// saved. viewUnfold counts view queries answered by their unfolding,
	// which builds no overlay.
	viewFull   atomic.Uint64
	viewDemand atomic.Uint64
	viewHits   atomic.Uint64
	viewUnfold atomic.Uint64
	// aborted counts queries stopped early by context cancellation or a
	// failed sink delivery (a streaming client that disconnected);
	// overBudget counts gas-limit trips (plan.ErrOverBudget), timedOut
	// deadline expiries — the three are disjoint per query.
	aborted    atomic.Uint64
	overBudget atomic.Uint64
	timedOut   atomic.Uint64

	// Durability state (nil / zero without a DataDir; see durable.go).
	// sinceCkpt counts WAL records since the last checkpoint and is
	// guarded by mu; the flags are read lock-free by Health.
	wal        *wal.Manager
	sinceCkpt  int
	recovering atomic.Bool
	walFailed  atomic.Bool
	replayed   atomic.Uint64
}

// generation is the program-scoped state shared by every epoch published
// since one Load: the naming context and the query plans compiled against
// it (predicate IDs are generation-local, so plans must never leak across
// a reload — epochs of the old generation keep resolving and rendering
// against their own generation until they drain, and its plans go with
// it).
type generation struct {
	prog *logic.Program
	// Pattern scan plans by (pred, bound mask), compiled conjunctive
	// queries by structural shape with constants blanked (see
	// appendShape), and view queries' compiled evaluations by rules and
	// goal shape (see compileView).
	plans   planCache[planKey, *storage.ScanPlan]
	cqPlans planCache[string, *plan.CQPlan]
	views   planCache[viewShape, *viewPlan]
}

// maxPlans bounds each of a generation's plan caches; an adversarial
// stream of distinct shapes resets a cache rather than growing it.
const maxPlans = 256

// planCache is one of a generation's caches of compiled plans: a map
// behind an RWMutex rather than a sync.Map, so a hit is one RLock and one
// map probe with no key boxing, keeping the ground-lookup fast path in
// the hundreds of nanoseconds. The zero value is an empty cache.
type planCache[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// get returns the entry for k, compiling it (outside the lock) and
// inserting it on a miss; the second result reports a hit. Concurrent
// misses of one key all return the entry inserted first, so every caller
// holds the same compiled value (the epoch's overlay cache keys by it).
func (c *planCache[K, V]) get(k K, compile func() V) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v, true
	}
	v = compile()
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.m[k]; ok {
		return w, false
	}
	if len(c.m) >= maxPlans || c.m == nil {
		c.m = make(map[K]V)
	}
	c.m[k] = v
	return v, false
}

// epoch is one published snapshot of one generation.
type epoch struct {
	svc *Service
	gen *generation
	// seq is the number the epoch is served under: assigned at publish,
	// and advanced by an update that changed nothing (see unchanged).
	seq  atomic.Uint64
	snap *storage.Snapshot
	// eng is the engine's counters as of the publish, walRecords and
	// walBytes the WAL's, and published the publish's wall time: Stats
	// and Scrape read them here instead of from the writer-owned engine
	// and log, so one epoch's numbers always agree.
	eng                  incremental.Stats
	walRecords, walBytes uint64
	published            time.Time
	// overlays caches materialized rule-defined views of this epoch's
	// snapshot, keyed by compiled rules and seed constants (see
	// viewOverlay). Overlay DBs borrow the snapshot's backings, so the
	// cache's lifetime is exactly the epoch's: the last release drops the
	// map with the snapshot pins.
	ovMu     sync.Mutex
	overlays map[overlayKey]*overlayEntry
	// refs counts the publisher (1) plus every in-flight query. The
	// publisher's reference drops when the epoch is retired by the next
	// publish (or Close); the last release triggers pin release and a
	// compaction retry.
	refs atomic.Int64
}

func (e *epoch) release() {
	if e.refs.Add(-1) == 0 {
		e.snap.Release()
		e.svc.drained.Add(1)
		e.svc.compactPending.Store(true)
	}
}

// acquire pins the current epoch for one query. The transient +1 on an
// epoch that concurrently drained is undone and retried; in the benign
// window where a just-retired epoch is still acquired, readers serve a
// slightly stale but fully consistent snapshot (released backings stay
// immutable and GC-reachable — pins are a reclamation hint, never a
// memory-safety requirement).
func (s *Service) acquire() (*epoch, error) {
	if s.recovering.Load() {
		return nil, ErrRecovering
	}
	for {
		e := s.cur.Load()
		if e == nil {
			return nil, ErrNotLoaded
		}
		if e.refs.Add(1) > 1 {
			return e, nil
		}
		e.refs.Add(-1) // drained between Load and Add; retry on the fresh epoch
	}
}

// New returns an empty service.
func New(opt Options) *Service {
	return &Service{opt: opt}
}

// publish snapshots the current materialization as the next epoch and
// retires the previous one. Caller holds mu.
func (s *Service) publish() uint64 {
	e := &epoch{svc: s, gen: s.gen, snap: s.eng.DB().Snapshot(), eng: s.eng.Stats(), published: time.Now()}
	if s.wal != nil {
		ws := s.wal.Stats()
		e.walRecords, e.walBytes = ws.Records, ws.Bytes
	}
	e.seq.Store(s.seq.Add(1))
	e.refs.Store(1)
	if old := s.cur.Swap(e); old != nil {
		old.release()
	}
	return e.seq.Load()
}

// maybeCompact retries physical reclamation if a drained epoch requested
// it, and piggybacks the periodic durability checkpoint on the same
// writer-lock quiet point. Caller holds mu.
func (s *Service) maybeCompact() {
	if s.eng != nil && s.compactPending.Swap(false) {
		s.eng.Compact()
	}
	s.maybeCheckpoint()
}

// Load parses and materializes a program (rules and facts in the vadalog
// surface syntax), replacing any previously loaded one, and publishes the
// first epoch of the new generation. The program must be full single-head
// Datalog without negation (the class internal/incremental maintains).
// Embedded queries are ignored — the service answers queries over HTTP,
// not from the program text. Returns the published epoch.
func (s *Service) Load(src string) (uint64, error) {
	return s.LoadCtx(context.Background(), src)
}

// LoadCtx is Load under a request context: the initial materialization
// runs under the server-side write budget (Options.MaxDerived/MaxProbes/
// MaxTimeout) plus the context's deadline. An aborted materialization
// publishes nothing — the previous generation keeps serving untouched.
func (s *Service) LoadCtx(ctx context.Context, src string) (uint64, error) {
	res, err := parser.Parse(src)
	if err != nil {
		return 0, fmt.Errorf("service: load: %w", err)
	}
	db := storage.NewDB()
	db.InsertAll(res.Facts)
	return s.LoadProgramCtx(ctx, res.Program, db)
}

// LoadProgramCtx is the embedding entry point of LoadCtx: materialize an
// already-parsed program over the given base facts under the same budget
// and publish the first epoch of a fresh generation. The engine evaluates
// into a Clone of base, so the caller keeps ownership, but cloning a live
// DB is a write: base must not be used concurrently with the call.
func (s *Service) LoadProgramCtx(ctx context.Context, prog *logic.Program, base *storage.DB) (uint64, error) {
	if s.recovering.Load() {
		return 0, ErrRecovering
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := prog.Validate(); err != nil {
		return 0, fmt.Errorf("service: load: %w", err)
	}
	bud, cancel := s.writeBudget(ctx)
	defer cancel()
	eng, err := incremental.NewBudgeted(prog, base, bud)
	if err != nil {
		return 0, fmt.Errorf("service: load: %w", err)
	}
	// A fresh generation: in-flight queries of the previous one keep
	// their epoch's generation pointer, so they resolve and render
	// against the old naming context, with its compiled plans, until
	// they drain.
	s.gen = &generation{prog: prog}
	s.eng = eng
	// A program replace rebases the whole durable state: it is
	// acknowledged by an immediate checkpoint, not a WAL record.
	if s.wal != nil {
		if err := s.checkpoint(); err != nil {
			s.walFailed.Store(true)
			return 0, fmt.Errorf("service: load: checkpoint: %w", err)
		}
	}
	return s.publish(), nil
}

// LoadCSV bulk-loads one relation of base facts from CSV through the
// streaming path, PIPELINED so queries interleave with the load:
//
//   - a parser stage (this goroutine) reads, splits, and interns rows
//     into a columnar tuple buffer entirely OUTSIDE the writer lock —
//     interning is concurrent-safe, so in-flight queries keep parsing
//     and rendering against the same naming context;
//   - a merger goroutine lands each filled buffer under a SHORT writer
//     critical section (the engine's MergeBuffers-based bulk insert plus
//     one delta fixpoint, under the write budget) and publishes an epoch
//     per batch, so readers see load progress batch by batch instead of
//     one epoch at the end;
//   - two buffers rotate between the stages (relio.LoadBufferedSwap):
//     batch k+1 parses while batch k merges.
//
// Returns rows staged and the last published epoch.
//
// The load is batch-committed, not transactional: on a mid-stream error
// (ragged row, arity conflict, a batch over budget) the batches already
// landed stay applied and published, a batch that aborted is rolled back
// like any aborted write, and the returned error and epoch report
// exactly what committed. A Load replacing the program mid-stream aborts
// the rest of the stream; epochs of the old generation stay consistent.
func (s *Service) LoadCSV(pred string, r io.Reader) (int, uint64, error) {
	if s.recovering.Load() {
		return 0, 0, ErrRecovering
	}
	s.mu.Lock()
	if s.eng == nil {
		s.mu.Unlock()
		return 0, 0, ErrNotLoaded
	}
	s.maybeCompact()
	gen := s.gen
	s.mu.Unlock()

	var (
		landed  int
		lastSeq uint64
	)
	// apply lands one staged batch under the write budget — the one its
	// WAL record replays under — and publishes the epoch containing it.
	// An aborted batch publishes nothing and is rolled back.
	apply := func(b *storage.TupleBuffer) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.eng == nil || s.gen != gen {
			return errors.New("program replaced mid-stream")
		}
		bud, cancel := s.writeBudget(context.Background())
		defer cancel()
		n, err := s.eng.InsertBulkBudgeted(bud, []*storage.TupleBuffer{b})
		if err != nil {
			s.rollback()
			return err
		}
		if s.wal != nil {
			if err := s.logRecord(wal.KindCSV, s.renderCSVRecord(gen, pred, b)); err != nil {
				return err
			}
		}
		landed += n
		lastSeq = s.publish()
		return nil
	}

	var (
		filled   = make(chan *storage.TupleBuffer, 2)
		recycled = make(chan *storage.TupleBuffer, 2)
		stop     = make(chan struct{}) // closed on first merge error
		mergeErr error
		wg       sync.WaitGroup
	)
	recycled <- storage.NewTupleBuffer()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := range filled {
			if mergeErr == nil {
				if mergeErr = apply(b); mergeErr != nil {
					close(stop)
				}
			}
			b.Reset()
			select {
			case recycled <- b:
			default:
			}
		}
	}()
	errAborted := errors.New("load aborted")
	staged, perr := relio.LoadBufferedSwap(gen.prog, r, pred, s.opt.CSVBatch,
		func(b *storage.TupleBuffer) (*storage.TupleBuffer, error) {
			select {
			case filled <- b:
			case <-stop:
				return nil, errAborted
			}
			select {
			case nb := <-recycled:
				return nb, nil
			case <-stop:
				return nil, errAborted
			}
		})
	close(filled)
	wg.Wait()
	err := mergeErr
	if err == nil && perr != nil {
		err = perr
	}
	if err == nil && lastSeq == 0 {
		// Nothing landed (empty stream or all-duplicate batches that never
		// filled a buffer): still bump an epoch so the caller gets a
		// sequence number tagging the (unchanged) state, as the
		// non-pipelined path did.
		s.mu.Lock()
		if s.eng != nil && s.gen == gen {
			lastSeq = s.publish()
		}
		s.mu.Unlock()
	}
	if err != nil {
		return staged, lastSeq, fmt.Errorf("service: load csv: %w", err)
	}
	return staged, lastSeq, nil
}

// parseFacts parses an update payload ("e(a,b). e(b,c).") against the
// loaded program's naming context (concurrent-safe interning — no lock),
// rejecting rules and queries.
func (s *Service) parseFacts(src string) (*parser.Result, error) {
	// A scratch program sharing the naming context: parsed TGDs must not
	// leak into the served rule set.
	tmp := &logic.Program{Store: s.gen.prog.Store, Reg: s.gen.prog.Reg}
	res, err := parser.ParseInto(tmp, src)
	if err != nil {
		return nil, err
	}
	if len(tmp.TGDs) > 0 || len(res.Queries) > 0 {
		return nil, errors.New("update payload must contain facts only")
	}
	return res, nil
}

// Insert asserts base facts (surface syntax, facts only) and publishes
// the resulting epoch.
func (s *Service) Insert(src string) (uint64, error) {
	return s.InsertCtx(context.Background(), src)
}

// InsertCtx is Insert under a request context and the server-side write
// budget. An aborted insert changes nothing: it publishes no epoch, logs
// no WAL record, and the engine rolls back to the epoch being served, so
// the asserted facts are dropped along with their partial consequences.
func (s *Service) InsertCtx(ctx context.Context, src string) (uint64, error) {
	return s.write(ctx, src, "insert", wal.KindInsert, (*incremental.Engine).InsertBudgeted,
		func(st incremental.Stats) int { return st.Inserted })
}

// write is the one update path behind InsertCtx and DeleteCtx: under the
// writer lock it parses the facts, applies them through the engine call
// under the write budget, and logs and publishes the update, or answers
// unchanged() when the engine's count (applied) did not move. An aborted
// update publishes nothing and is rolled back. op names the update in
// errors and kind its WAL record.
func (s *Service) write(ctx context.Context, src, op string, kind byte,
	apply func(*incremental.Engine, *plan.Budget, ...atom.Atom) error,
	applied func(incremental.Stats) int) (uint64, error) {
	if s.recovering.Load() {
		return 0, ErrRecovering
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng == nil {
		return 0, ErrNotLoaded
	}
	s.maybeCompact()
	res, err := s.parseFacts(src)
	if err != nil {
		return 0, fmt.Errorf("service: %s: %w", op, err)
	}
	bud, cancel := s.writeBudget(ctx)
	defer cancel()
	before := applied(s.eng.Stats())
	if err := apply(s.eng, bud, res.Facts...); err != nil {
		s.rollback()
		return 0, fmt.Errorf("service: %s: %w", op, err)
	}
	if applied(s.eng.Stats()) == before {
		return s.unchanged(), nil
	}
	if err := s.logRecord(kind, []byte(src)); err != nil {
		return 0, err
	}
	return s.publish(), nil
}

// unchanged acknowledges an update that applied nothing — every fact
// already asserted, or none present to retract: no WAL record, no count
// toward the next checkpoint, and no publish, which would snapshot the
// same instance again and drop every overlay cached on the epoch being
// served. That epoch stays, under the next number: clients (bench/'s
// driver among them) hold every acknowledged write to an epoch number
// past the last one they saw. Caller holds mu.
func (s *Service) unchanged() uint64 {
	e := s.cur.Load()
	if e == nil {
		return s.publish()
	}
	n := s.seq.Add(1)
	e.seq.Store(n)
	return n
}

// Delete retracts base facts (DRed maintenance) and publishes the
// resulting epoch.
func (s *Service) Delete(src string) (uint64, error) {
	return s.DeleteCtx(context.Background(), src)
}

// DeleteCtx is Delete with the InsertCtx budget and rollback semantics.
func (s *Service) DeleteCtx(ctx context.Context, src string) (uint64, error) {
	return s.write(ctx, src, "delete", wal.KindDelete, (*incremental.Engine).DeleteBudgeted,
		func(st incremental.Stats) int { return st.Deleted })
}

// rollback discards an aborted write. Under mu, between writes, the
// served epoch's snapshot is the engine's state, so the engine takes a
// clone of it as its store and the epoch's counters as its own; a
// compaction run since that publish is undone too, and re-armed. With
// no epoch of the engine's generation served (a failed replay or load
// checkpoint, either of which marks the node broken) there is nothing to
// roll back to, and the engine's guard refuses updates if the write left
// it partial. Caller holds mu.
func (s *Service) rollback() {
	e := s.cur.Load()
	if e == nil || e.gen != s.gen {
		return
	}
	if s.eng.Stats().Compacted > e.eng.Compacted {
		s.compactPending.Store(true)
	}
	s.eng.Adopt(e.snap.DB().Clone(), e.eng)
}

// Stats is a point-in-time service report. ViewBuilds counts overlay
// fixpoints run: full view builds plus the ViewDemand demand
// evaluations; ViewHits counts rule queries served from an epoch's
// overlay cache, ViewUnfold those answered by their unfolding without
// an overlay.
type Stats struct {
	Loaded        bool              `json:"loaded"`
	Epoch         uint64            `json:"epoch"`
	Facts         int               `json:"facts"`
	Queries       uint64            `json:"queries"`
	ViewBuilds    uint64            `json:"view_builds"`
	ViewDemand    uint64            `json:"view_demand"`
	ViewHits      uint64            `json:"view_cache_hits"`
	ViewUnfold    uint64            `json:"view_unfold"`
	Aborted       uint64            `json:"queries_aborted"`
	OverBudget    uint64            `json:"queries_over_budget"`
	TimedOut      uint64            `json:"queries_timeout"`
	EpochsDrained uint64            `json:"epochs_drained"`
	Engine        incremental.Stats `json:"engine"`
	Durability    *DurabilityStats  `json:"durability,omitempty"`
}

// Stats reports the current epoch, the live fact count of its snapshot,
// the engine counters and WAL record and byte counts as of its publish,
// plus the service's own counters. It never takes the writer lock: while
// nothing is served (before the first Load, during recovery, after
// Close) the epoch fields are zero.
func (s *Service) Stats() Stats {
	e, err := s.acquire()
	if err != nil {
		return s.stats(nil)
	}
	defer e.release()
	return s.stats(e)
}

// stats is Stats over an acquired epoch (nil: none served).
func (s *Service) stats(e *epoch) Stats {
	full, demand := s.viewFull.Load(), s.viewDemand.Load()
	st := Stats{
		Queries:       s.queries.Load(),
		ViewBuilds:    full + demand,
		ViewDemand:    demand,
		ViewHits:      s.viewHits.Load(),
		ViewUnfold:    s.viewUnfold.Load(),
		Aborted:       s.aborted.Load(),
		OverBudget:    s.overBudget.Load(),
		TimedOut:      s.timedOut.Load(),
		EpochsDrained: s.drained.Load(),
	}
	var walRecords, walBytes uint64
	if e != nil {
		st.Loaded = true
		st.Epoch = e.seq.Load()
		st.Facts = e.snap.DB().Len()
		st.Engine = e.eng
		walRecords, walBytes = e.walRecords, e.walBytes
	}
	if s.wal != nil {
		st.Durability = &DurabilityStats{
			Enabled:         true,
			Recovering:      s.recovering.Load(),
			ReplayedRecords: s.replayed.Load(),
			Stats:           s.wal.Stats(),
		}
		// Syncs and checkpoints happen between publishes and read live;
		// records and bytes are the served epoch's.
		st.Durability.Records, st.Durability.Bytes = walRecords, walBytes
	}
	return st
}

// Scrape is one reading of the served Service for a metrics scrape,
// taken from a single acquired epoch: its Stats, its instance's bytes by
// structure (storage.DB.Footprint) and its publish time. Footprint is nil
// and Published zero while nothing is served.
type Scrape struct {
	Stats     Stats
	Footprint map[string]int
	Published time.Time
}

// Scrape reads Stats, Footprint and the publish time of one epoch.
func (s *Service) Scrape() Scrape {
	e, err := s.acquire()
	if err != nil {
		return Scrape{Stats: s.stats(nil)}
	}
	defer e.release()
	return Scrape{Stats: s.stats(e), Footprint: e.snap.DB().Footprint(), Published: e.published}
}

// Close retires the current epoch and, for a durable service, fsyncs
// and closes the write-ahead log. Queries in flight finish against
// their pinned snapshots; new queries fail with ErrNotLoaded. Callers
// (the HTTP server) drain handlers before Close returns the service to
// an unloaded state.
func (s *Service) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.cur.Swap(nil); old != nil {
		old.release()
	}
	s.eng = nil
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			s.logger().Warn("close wal", "error", err)
		}
	}
}
