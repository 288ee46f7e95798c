package service

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/incremental"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/wal"
)

// Durability (ROADMAP item 3). With Options.DataDir set, the service
// write-ahead-logs every update batch from inside the serialized writer
// critical section — AFTER the engine applied it, BEFORE the epoch
// publishes — and periodically checkpoints the full quiesced state
// (program text, naming arenas, the instance segment) so recovery is
// checkpoint load + WAL tail replay instead of a re-chase from CSV.
//
// Protocol and its crash-consistency argument:
//
//   - An update is ACKNOWLEDGED only after its WAL record is appended
//     (and fsynced, under -fsync always): an acknowledged update always
//     replays. An update whose record never landed was never
//     acknowledged — losing it is allowed; and because a record is
//     either wholly valid or cut off at the torn tail, replay applies
//     an update completely or not at all, never partially.
//   - A program replace (Load) writes an immediate checkpoint instead
//     of a record: it rebases the whole durable state, and the rules
//     text is part of the checkpoint anyway.
//   - Checkpoints land via write-temp/fsync/rename, so a crash
//     mid-checkpoint leaves the previous one authoritative; the covered
//     WAL prefix is deleted only after the rename is durable, and
//     recovery seq-filters records a checkpoint already covers, so a
//     crash between the two replays nothing twice.
//   - A WAL append or mandatory-checkpoint failure poisons the node
//     (Health reports "broken", updates after the failure surface the
//     error): in-memory state may be ahead of durable state, so the
//     honest move is to stop acknowledging and let the operator restart
//     into recovery.
//
// Replay runs each record through the NORMAL budgeted update path
// (parseFacts + InsertBudgeted / DeleteBudgeted / InsertBulkBudgeted),
// so recovery exercises exactly the maintenance code production runs.

// ErrRecovering is returned by queries and updates while startup
// recovery is replaying the WAL tail.
var ErrRecovering = errors.New("service: recovering from write-ahead log")

// HealthStatus is the service's coarse degraded-state report, designed
// for load-balancer health checks: anything but HealthOK should stop
// routing.
type HealthStatus string

const (
	HealthOK         HealthStatus = "ok"
	HealthRecovering HealthStatus = "recovering"
	HealthBroken     HealthStatus = "broken"
)

// Health reports the service's degraded-state summary: "recovering"
// during WAL replay, "broken" when the durability layer failed (a WAL
// append, a checkpoint a load needed, or recovery itself), "ok"
// otherwise. An aborted update is rolled back and leaves it "ok".
// Lock-free.
func (s *Service) Health() HealthStatus {
	switch {
	case s.recovering.Load():
		return HealthRecovering
	case s.walFailed.Load():
		return HealthBroken
	default:
		return HealthOK
	}
}

// DurabilityStats reports the durability counters in /stats.
type DurabilityStats struct {
	Enabled         bool   `json:"enabled"`
	Recovering      bool   `json:"recovering"`
	ReplayedRecords uint64 `json:"replayed_records"`
	wal.Stats
}

// Open is New plus durability: with Options.DataDir set, the returned
// service owns a write-ahead log manager over that directory. Call
// Recover before serving — even on a fresh directory, it arms the log.
func Open(opt Options) (*Service, error) {
	s := New(opt)
	if opt.DataDir == "" {
		return s, nil
	}
	pol, err := wal.ParsePolicy(opt.Fsync)
	if err != nil {
		return nil, err
	}
	m, err := wal.Open(opt.DataDir, wal.Options{Policy: pol, SyncInterval: opt.FsyncInterval})
	if err != nil {
		return nil, err
	}
	s.wal = m
	return s, nil
}

// Recover loads the newest valid checkpoint and replays the WAL tail
// through the normal update path, then publishes the recovered epoch.
// While it runs, queries and updates fail fast with ErrRecovering (the
// daemon's /healthz reports "recovering"). A torn final record is
// logged and skipped, never an error; a replay failure leaves the
// service broken. No-op without a DataDir.
func (s *Service) Recover(ctx context.Context) error {
	if s.wal == nil {
		return nil
	}
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()

	rec, err := s.wal.Recover()
	if err != nil {
		s.walFailed.Store(true)
		return fmt.Errorf("service: recover: %w", err)
	}
	if rec.Torn {
		s.logger().Warn("recover: torn WAL tail skipped", "detail", rec.TornDetail)
	}
	if rec.CheckpointsSkipped > 0 {
		s.logger().Warn("recover: invalid checkpoint(s) skipped, fell back to an older one", "skipped", rec.CheckpointsSkipped)
	}
	if !rec.HasCheckpoint {
		if len(rec.Records) > 0 {
			s.walFailed.Store(true)
			return errors.New("service: recover: WAL records with no checkpoint; data directory corrupt")
		}
		return nil // fresh directory: start unloaded
	}
	if err := s.loadCheckpoint(rec.Sections); err != nil {
		s.walFailed.Store(true)
		return fmt.Errorf("service: recover: %w", err)
	}
	for _, r := range rec.Records {
		if err := ctx.Err(); err != nil {
			s.walFailed.Store(true)
			return fmt.Errorf("service: recover: %w", err)
		}
		if err := s.replayRecord(ctx, r); err != nil {
			s.walFailed.Store(true)
			return fmt.Errorf("service: recover: replay record seq %d: %w", r.Seq, err)
		}
		s.replayed.Add(1)
	}
	s.publish()
	return nil
}

// checkpointSections is the fixed section layout of a checkpoint file.
const (
	secProgram  = iota // rules in surface syntax (parseable, facts-free)
	secStore           // term.Store arenas
	secRegistry        // schema.Registry arena
	secDB              // materialized instance segment
	numSections
)

// loadCheckpoint rebuilds the generation and engine from checkpoint
// sections. Caller holds mu.
func (s *Service) loadCheckpoint(sections [][]byte) error {
	if len(sections) == numSections+1 {
		// An older layout also wrote the base instance, before secDB:
		// decoded, so damage to it is still a typed error, then dropped.
		if _, err := storage.ReadSegment(sections[secDB]); err != nil {
			return fmt.Errorf("checkpoint base segment: %w", err)
		}
		sections = slices.Delete(sections, secDB, secDB+1)
	}
	if len(sections) != numSections {
		return fmt.Errorf("checkpoint has %d sections, want %d", len(sections), numSections)
	}
	st, err := term.DecodeStore(sections[secStore])
	if err != nil {
		return err
	}
	reg, err := schema.DecodeRegistry(sections[secRegistry])
	if err != nil {
		return err
	}
	prog := &logic.Program{Store: st, Reg: reg}
	if _, err := parser.ParseInto(prog, string(sections[secProgram])); err != nil {
		return fmt.Errorf("checkpoint program: %w", err)
	}
	db, err := storage.ReadSegment(sections[secDB])
	if err != nil {
		return fmt.Errorf("checkpoint db segment: %w", err)
	}
	eng, err := incremental.Restore(prog, db)
	if err != nil {
		return err
	}
	s.gen = &generation{prog: prog}
	s.eng = eng
	return nil
}

// replayRecord applies one WAL record through the normal budgeted
// update path. Caller holds mu.
func (s *Service) replayRecord(ctx context.Context, r wal.Record) error {
	bud, cancel := s.writeBudget(ctx)
	defer cancel()
	switch r.Kind {
	case wal.KindInsert, wal.KindDelete:
		res, err := s.parseFacts(string(r.Data))
		if err != nil {
			return err
		}
		if r.Kind == wal.KindInsert {
			return s.eng.InsertBudgeted(bud, res.Facts...)
		}
		return s.eng.DeleteBudgeted(bud, res.Facts...)
	case wal.KindCSV:
		pred, arity, cells, err := wal.DecodeCSVPayload(r.Data)
		if err != nil {
			return err
		}
		reg := s.gen.prog.Reg
		if !reg.CheckArity(pred, arity) {
			return fmt.Errorf("csv record arity %d conflicts with interned %s", arity, pred)
		}
		pid := reg.Intern(pred, arity)
		buf := storage.NewTupleBuffer()
		args := make([]term.Term, arity)
		for i := 0; i+arity <= len(cells); i += arity {
			for j := 0; j < arity; j++ {
				if args[j], err = s.gen.prog.Store.InternConst(cells[i+j]); err != nil {
					return err
				}
			}
			buf.Append(pid, args)
		}
		_, err = s.eng.InsertBulkBudgeted(bud, []*storage.TupleBuffer{buf})
		return err
	default:
		return fmt.Errorf("unknown record kind %d", r.Kind)
	}
}

// logRecord appends one update record to the WAL — the acknowledgement
// barrier of the writer path: callers return the error WITHOUT
// publishing when the append fails, so no client ever observes an epoch
// whose updates might not replay. Caller holds mu; no-op without a
// DataDir.
func (s *Service) logRecord(kind byte, data []byte) error {
	if s.wal == nil {
		return nil
	}
	if _, err := s.wal.Append(kind, data); err != nil {
		s.walFailed.Store(true)
		return fmt.Errorf("service: wal: %w", err)
	}
	s.sinceCkpt++
	return nil
}

// renderCSVRecord renders one staged bulk-load buffer back to a WAL
// record payload (the canonical constant names round-trip through
// re-interning on replay).
func (s *Service) renderCSVRecord(gen *generation, pred string, b *storage.TupleBuffer) []byte {
	st := gen.prog.Store
	arity := 0
	cells := make([]string, 0, b.Len()*2)
	b.Each(func(_ schema.PredID, args []term.Term) bool {
		arity = len(args)
		for _, t := range args {
			cells = append(cells, st.Name(t))
		}
		return true
	})
	return wal.AppendCSVPayload(nil, pred, arity, cells)
}

// maybeCheckpoint writes a checkpoint once enough records accumulated
// since the last one. Failure is logged, not fatal: the WAL was not
// truncated, so nothing acknowledged is at risk — the next quiet moment
// retries. Caller holds mu.
func (s *Service) maybeCheckpoint() {
	if s.wal == nil || s.eng == nil {
		return
	}
	every := s.opt.CheckpointEvery
	if every <= 0 {
		every = 4096
	}
	if s.sinceCkpt < every {
		return
	}
	if err := s.checkpoint(); err != nil {
		s.logger().Warn("checkpoint failed (will retry)", "error", err)
	}
}

// checkpoint serializes the quiesced state (caller holds mu) and writes
// it durably, truncating the covered WAL prefix.
func (s *Service) checkpoint() error {
	sections := make([][]byte, numSections)
	sections[secProgram] = []byte(s.gen.prog.String())
	sections[secStore] = s.gen.prog.Store.AppendEncoded(nil)
	sections[secRegistry] = s.gen.prog.Reg.AppendEncoded(nil)
	sections[secDB] = s.eng.DB().AppendSegment(nil)
	if err := s.wal.WriteCheckpoint(sections); err != nil {
		return err
	}
	s.sinceCkpt = 0
	return nil
}
