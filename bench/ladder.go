package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/bench/gen"
	"repro/internal/atom"
	"repro/internal/datalog"
	"repro/internal/incremental"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relio"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/wal"
)

// The ladder replays one operation at every rung, one layer deeper per
// rung, each on its own replica holding the same data:
//
//	http        POST to the daemon subprocess
//	service     Service.QueryStream (counting sink) / InsertCtx / DeleteCtx /
//	            LoadCtx / LoadCSV / Recover on an in-process service
//	plan        plan.CompileCQ + CQPlan.Run
//	incremental Engine.Insert / Delete / InsertBulk / Compact, incremental.New
//	datalog     datalog.Eval
//	storage     CompileScan + Probe, InsertArgs, InsertAll, MergeBuffers,
//	            Snapshot, Overlay, Clone, Tombstone
//	parser      parser.Parse / ParseInto of the request text      (side rung)
//	relio       CSV → TupleBuffer                                 (side rung)
//	wal         Manager.Append / WriteCheckpoint / Recover, scratch dir (side rung)
//
// Which rungs an op has follows what the service does with it. The spans
// are recorded here, around calls into public entry points; spans inside
// the program are a later change.

// replica is the in-process state beneath the http rung.
type replica struct {
	w   *gen.Workload
	tr  *tracer
	svc *service.Service // service rung
	// svcDir is the durable service replica's data directory, walDir the
	// wal rung's own.
	svcDir, walDir string
	opts           service.Options

	// The lower rungs share one naming context, engine and stores.
	prog *logic.Program
	eng  *incremental.Engine
	// snap is the frozen view reads probe, re-taken after every write as
	// the service publishes an epoch per write.
	snap *storage.Snapshot
	// views holds built view overlays by rules text until the next write.
	views map[string]*storage.DB
	// mirror receives the storage rung's inserts and tombstones of write
	// ops: a base-fact store kept equal to the engine's.
	mirror *storage.DB
	walm   *wal.Manager
	// walRecords counts records since the wal rung's last checkpoint, as
	// the service does to decide when the next write pays for one.
	walRecords int

	// Counts taken at the boundaries the spans sit on.
	rows, reads           int
	loads, rounds, derive int
}

func (r *runner) newReplica(w *gen.Workload, tr *tracer) (*replica, error) {
	rep := &replica{w: w, tr: tr, views: map[string]*storage.DB{}, mirror: storage.NewDB()}
	rep.opts = service.Options{CSVBatch: 2047}
	if w.Durable {
		var err error
		if rep.svcDir, err = r.tempDir("replica-*"); err != nil {
			return nil, err
		}
		if rep.walDir, err = r.tempDir("wal-*"); err != nil {
			return nil, err
		}
		rep.opts.DataDir, rep.opts.Fsync = rep.svcDir, "interval"
		rep.opts.CheckpointEvery = r.cfg.size.CheckpointEvery
		if rep.walm, err = wal.Open(rep.walDir, wal.Options{Policy: wal.SyncInterval}); err != nil {
			return nil, err
		}
		if _, err := rep.walm.Recover(); err != nil {
			return nil, err
		}
	}
	svc, err := service.Open(rep.opts)
	if err != nil {
		return nil, err
	}
	if err := svc.Recover(context.Background()); err != nil {
		return nil, err
	}
	rep.svc = svc
	return rep, nil
}

func (rep *replica) close() {
	rep.svc.Close()
	if rep.walm != nil {
		rep.walm.Close() //nolint:errcheck // scratch log
	}
}

// publish re-takes the read snapshot and drops built views, as a
// service epoch does; it is the storage.Snapshot rung of a write.
func (rep *replica) publish() {
	old := rep.snap
	rep.snap = rep.eng.DB().Snapshot()
	if old != nil {
		old.Release()
	}
	clear(rep.views)
}

// setupLoad replays set-up's POST /load (rules only) below the http
// span.
func (rep *replica) setupLoad(op, httpSpan int) error {
	var err error
	rules := rep.w.Rules
	svcSpan := rep.tr.local(op, "setup.load", httpSpan, "service", "Service.LoadCtx", func() {
		_, err = rep.svc.LoadCtx(context.Background(), rules)
	})
	if err != nil {
		return err
	}
	return rep.loadBelow(op, "setup.load", svcSpan, rules)
}

// loadBelow is what lies under Service.LoadCtx: parse, stage the facts,
// build an engine — which evaluates — over a clone of them.
func (rep *replica) loadBelow(op int, kind string, svcSpan int, text string) error {
	var (
		res   *parser.Result
		err   error
		stats *datalog.Stats
	)
	rep.tr.local(op, kind, svcSpan, "parser", "parser.Parse", func() { res, err = parser.Parse(text) })
	if err != nil {
		return err
	}
	base := storage.NewDB()
	rep.tr.local(op, kind, svcSpan, "storage", "DB.InsertAll", func() { base.InsertAll(res.Facts) })
	var eng *incremental.Engine
	incSpan := rep.tr.local(op, kind, svcSpan, "incremental", "incremental.New", func() {
		eng, err = incremental.New(res.Program, base)
	})
	if err != nil {
		return err
	}
	dlSpan := rep.tr.local(op, kind, incSpan, "datalog", "datalog.Eval", func() {
		_, stats, err = datalog.Eval(res.Program, base, gen.EvalOpts)
	})
	if err != nil {
		return err
	}
	rep.tr.local(op, kind, dlSpan, "storage", "DB.Clone", func() { base.Clone() })
	rep.loads++
	rep.rounds += stats.Rounds
	rep.derive += stats.Derived
	rep.prog, rep.eng = res.Program, eng
	rep.mirror = base
	rep.publish()
	if rep.walm != nil {
		// A durable service acknowledges a program replace with a checkpoint.
		return rep.checkpoint(op, kind, svcSpan)
	}
	return nil
}

// setupCSV replays set-up's POST /load/csv of one relation.
func (rep *replica) setupCSV(op, httpSpan int, rel *gen.Relation) error {
	kind := "setup.csv"
	var err error
	svcSpan := rep.tr.local(op, kind, httpSpan, "service", "Service.LoadCSV", func() {
		_, _, err = rep.svc.LoadCSV(rel.Pred, bytes.NewReader(rel.CSV))
	})
	if err != nil {
		return err
	}
	// relio hands each filled buffer over and takes a fresh one, so the
	// batches survive for the rungs below.
	var bufs []*storage.TupleBuffer
	rep.tr.local(op, kind, svcSpan, "relio", "relio.LoadBufferedSwap", func() {
		_, err = relio.LoadBufferedSwap(rep.prog, bytes.NewReader(rel.CSV), rel.Pred, rep.opts.CSVBatch,
			func(b *storage.TupleBuffer) (*storage.TupleBuffer, error) {
				bufs = append(bufs, b)
				return storage.NewTupleBuffer(), nil
			})
	})
	if err != nil {
		return err
	}
	par := runtime.GOMAXPROCS(0)
	scratch := storage.NewDB()
	for _, b := range bufs {
		one := []*storage.TupleBuffer{b}
		incSpan := rep.tr.local(op, kind, svcSpan, "incremental", "Engine.InsertBulk", func() {
			_, err = rep.eng.InsertBulk(one)
		})
		if err != nil {
			return err
		}
		// InsertBulk merges the batch into the materialization and into the
		// base store.
		rep.tr.local(op, kind, incSpan, "storage", "DB.MergeBuffers", func() {
			rep.mirror.MergeBuffers(one, par)
			scratch.MergeBuffers(one, par)
		})
		if rep.walm != nil {
			rep.tr.local(op, kind, svcSpan, "wal", "Manager.Append", func() {
				_, err = rep.walm.Append(wal.KindCSV, rep.csvRecord(rel.Pred, b))
			})
			if err != nil {
				return err
			}
			rep.walRecords++
		}
		rep.tr.local(op, kind, svcSpan, "storage", "DB.Snapshot", rep.publish)
	}
	return nil
}

// csvRecord renders a staged batch as the WAL record the service logs
// for it.
func (rep *replica) csvRecord(pred string, b *storage.TupleBuffer) []byte {
	arity := 0
	var cells []string
	b.Each(func(_ schema.PredID, args []term.Term) bool {
		arity = len(args)
		cells = append(cells, rep.prog.Store.Names(args)...)
		return true
	})
	return wal.AppendCSVPayload(nil, pred, arity, cells)
}

// checkpoint is the wal rung of a service checkpoint: the sections the
// service serializes, written through the scratch manager.
func (rep *replica) checkpoint(op int, kind string, svcSpan int) error {
	var err error
	rep.tr.local(op, kind, svcSpan, "wal", "Manager.WriteCheckpoint", func() {
		err = rep.walm.WriteCheckpoint([][]byte{
			[]byte(rep.prog.String()),
			rep.prog.Store.AppendEncoded(nil),
			rep.prog.Reg.AppendEncoded(nil),
			rep.eng.Base().AppendSegment(nil),
			rep.eng.DB().AppendSegment(nil),
		})
	})
	rep.walRecords = 0
	return err
}

// countSink is the service rung's discard sink: it counts rows and
// drops them.
type countSink struct{ rows int }

func (c *countSink) Begin(uint64, int) error { return nil }
func (c *countSink) Row([]string) error      { c.rows++; return nil }
func (c *countSink) End(bool, *bool) error   { return nil }

// read replays a /query op below the http span.
func (rep *replica) read(id, httpSpan int, op *gen.Op) error {
	var (
		sink countSink
		err  error
	)
	req := &service.QueryRequest{Pred: op.Pred, Args: op.Args, Query: op.Query, Limit: op.Limit}
	svcSpan := rep.tr.local(id, op.Kind, httpSpan, "service", "Service.QueryStream", func() {
		err = rep.svc.QueryStream(context.Background(), req, &sink)
	})
	if err != nil {
		return err
	}
	if op.Want.Rows >= 0 && sink.rows != op.Want.Rows {
		return fmt.Errorf("%s: service rung returned %d rows, oracle has %d", op.Kind, sink.rows, op.Want.Rows)
	}
	rep.rows += sink.rows
	rep.reads++
	limit := op.Limit
	if limit <= 0 {
		limit = service.DefaultLimit
	}
	db := rep.snap.DB()
	if op.Query == "" {
		rep.tr.local(id, op.Kind, svcSpan, "storage", "CompileScan+DB.Probe", func() { err = rep.probe(db, op, limit) })
		return err
	}
	var (
		res *parser.Result
		tmp = &logic.Program{Store: rep.prog.Store, Reg: rep.prog.Reg}
	)
	rep.tr.local(id, op.Kind, svcSpan, "parser", "parser.ParseInto", func() { res, err = parser.ParseInto(tmp, op.Query) })
	if err != nil {
		return err
	}
	if len(tmp.TGDs) > 0 {
		key := tmp.String()
		if db = rep.views[key]; db == nil {
			var ov *storage.DB
			dlSpan := rep.tr.local(id, op.Kind, svcSpan, "datalog", "datalog.Eval", func() {
				ov = rep.snap.DB().Overlay()
				opts := gen.EvalOpts
				opts.InPlace = true
				_, _, err = datalog.Eval(tmp, ov, opts)
			})
			if err != nil {
				return err
			}
			rep.tr.local(id, op.Kind, dlSpan, "storage", "DB.Overlay", func() { rep.snap.DB().Overlay() })
			rep.views[key], db = ov, ov
		}
	}
	rep.tr.local(id, op.Kind, svcSpan, "plan", "CompileCQ+CQPlan.Run", func() {
		n := 0
		plan.CompileCQ(res.Queries[0]).Run(db, func([]term.Term) bool {
			n++
			return n < limit
		})
	})
	return nil
}

// probe is a pattern read at the storage rung: compile the (pred, bound
// mask) scan and enumerate its matches.
func (rep *replica) probe(db *storage.DB, op *gen.Op, limit int) error {
	pid, ok := rep.prog.Reg.Lookup(op.Pred)
	if !ok {
		return fmt.Errorf("storage rung: unknown predicate %s", op.Pred)
	}
	frame := storage.NewFrame(len(op.Args))
	args := make([]storage.ScanArg, len(op.Args))
	for i, a := range op.Args {
		args[i] = storage.ScanArg{Mode: storage.ArgBind, Slot: i}
		if a != "_" {
			c, ok := rep.prog.Store.HasConst(a)
			if !ok {
				return nil // matches nothing
			}
			args[i].Mode, frame[i] = storage.ArgBound, c
		}
	}
	n := 0
	db.Probe(storage.CompileScan(pid, args), frame, 0, 0, 1, func() bool {
		n++
		return n < limit
	})
	return nil
}

// write replays an /insert, /delete or /load op below the http span.
func (rep *replica) write(id, httpSpan int, op *gen.Op) error {
	var err error
	ctx := context.Background()
	if op.Kind == "load" {
		svcSpan := rep.tr.local(id, op.Kind, httpSpan, "service", "Service.LoadCtx", func() {
			_, err = rep.svc.LoadCtx(ctx, op.Text)
		})
		if err != nil {
			return err
		}
		return rep.loadBelow(id, op.Kind, svcSpan, op.Text)
	}
	insert := op.Kind == "insert"
	call, kind := rep.svc.DeleteCtx, wal.KindDelete
	if insert {
		call, kind = rep.svc.InsertCtx, wal.KindInsert
	}
	checkpoint := rep.walm != nil && rep.walRecords >= rep.opts.CheckpointEvery
	svcSpan := rep.tr.local(id, op.Kind, httpSpan, "service", "Service."+strings.ToUpper(op.Kind[:1])+op.Kind[1:]+"Ctx", func() {
		_, err = call(ctx, op.Text)
	})
	if err != nil {
		return err
	}
	if checkpoint {
		// The service pays for a due checkpoint at the start of the next
		// write, under the writer lock.
		if err := rep.checkpoint(id, op.Kind, svcSpan); err != nil {
			return err
		}
	}
	var (
		res *parser.Result
		tmp = &logic.Program{Store: rep.prog.Store, Reg: rep.prog.Reg}
	)
	rep.tr.local(id, op.Kind, svcSpan, "parser", "parser.ParseInto", func() { res, err = parser.ParseInto(tmp, op.Text) })
	if err != nil {
		return err
	}
	incCall := "Engine.Delete+Compact"
	if insert {
		incCall = "Engine.Insert+Compact"
	}
	incSpan := rep.tr.local(id, op.Kind, svcSpan, "incremental", incCall, func() {
		if insert {
			err = rep.eng.Insert(res.Facts...)
		} else {
			err = rep.eng.Delete(res.Facts...)
		}
		rep.eng.Compact()
	})
	if err != nil {
		return err
	}
	stCall := "DB.FindRow+Tombstone"
	if insert {
		stCall = "DB.InsertArgs"
	}
	rep.tr.local(id, op.Kind, incSpan, "storage", stCall, func() { rep.mirrorApply(res.Facts, insert) })
	if rep.walm != nil {
		rep.tr.local(id, op.Kind, svcSpan, "wal", "Manager.Append", func() {
			_, err = rep.walm.Append(kind, []byte(op.Text))
		})
		if err != nil {
			return err
		}
		rep.walRecords++
	}
	rep.tr.local(id, op.Kind, svcSpan, "storage", "DB.Snapshot", rep.publish)
	return nil
}

func (rep *replica) mirrorApply(facts []atom.Atom, insert bool) {
	for _, f := range facts {
		if insert {
			rep.mirror.InsertArgs(f.Pred, f.Args)
		} else if row, ok := rep.mirror.FindRow(f.Pred, f.Args); ok {
			rep.mirror.Tombstone(f.Pred, row)
		}
	}
}

// recover replays crash recovery below the http span: a fresh service
// over the replica's data directory (the old one is abandoned without a
// Close, as a killed process would leave it), and beneath it the log
// manager's own recovery.
func (rep *replica) recover(id, httpSpan int) error {
	var err error
	svcSpan := rep.tr.local(id, "recover", httpSpan, "service", "service.Open+Recover", func() {
		var svc *service.Service
		if svc, err = service.Open(rep.opts); err == nil {
			err = svc.Recover(context.Background())
			rep.svc = svc
		}
	})
	if err != nil {
		return err
	}
	// A copy of the directory: a second manager must not append beside
	// the live service's.
	dir := rep.svcDir + "-copy"
	if err := os.CopyFS(dir, os.DirFS(rep.svcDir)); err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	rep.tr.local(id, "recover", svcSpan, "wal", "wal.Open+Manager.Recover", func() {
		var m *wal.Manager
		if m, err = wal.Open(dir, wal.Options{Policy: wal.SyncInterval}); err == nil {
			_, err = m.Recover()
			err = errors.Join(err, m.Close())
		}
	})
	return err
}
