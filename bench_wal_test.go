package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/service"
	"repro/internal/term"
	"repro/internal/workload"
)

// --------------------------------------------------------------------
// S4 — durability (internal/wal, PR 9): the two acceptance numbers of
// ROADMAP item 3.
//
// WALOverhead is the write-path tax: the identical delete+insert churn
// loop (each op = one DRed/semi-naive maintenance pass + one epoch
// publish) with no WAL, with the default interval-fsync WAL, and with
// fsync-per-append. The interval-policy gate is <= 10% over no-WAL: one
// record append is a frame encode + one buffered write, amortized
// against a maintenance pass that walks the closure.
//
// Recovery is the restart story: reopening a durable TC-512 directory
// (checkpoint load + a 16-record WAL tail replayed through the normal
// update path) versus materializing the same instance from scratch
// (full semi-naive chase, what a CSV re-load would do). The gate is
// >= 5x: restore must be array reconstruction, not re-derivation.
// --------------------------------------------------------------------

func durableService(b *testing.B, dir, fsync string) *service.Service {
	b.Helper()
	svc, err := service.Open(service.Options{
		DataDir: dir, Fsync: fsync,
		// Keep automatic checkpoints out of the measured loops: these
		// benchmarks isolate the per-record and recovery costs.
		CheckpointEvery: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Recover(context.Background()); err != nil {
		b.Fatal(err)
	}
	return svc
}

func BenchmarkS4_WALOverhead(b *testing.B) {
	const n = 256
	churn := func(b *testing.B, svc *service.Service) {
		defer svc.Close()
		res := mustParse(b, tcLinear)
		base := workload.Chain(n).DB(res.Program, "e", "n")
		if _, err := svc.LoadProgramCtx(context.Background(), res.Program, base); err != nil {
			b.Fatal(err)
		}
		last := fmt.Sprintf("e(n%d,n%d).", n-2, n-1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Delete(last); err != nil {
				b.Fatal(err)
			}
			if _, err := svc.Insert(last); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("TC-256/no-wal", func(b *testing.B) {
		churn(b, service.New(service.Options{}))
	})
	b.Run("TC-256/wal-interval", func(b *testing.B) {
		churn(b, durableService(b, b.TempDir(), "interval"))
	})
	b.Run("TC-256/wal-always", func(b *testing.B) {
		churn(b, durableService(b, b.TempDir(), "always"))
	})
}

func BenchmarkS4_Recovery(b *testing.B) {
	const (
		n    = 512
		tail = 16
	)
	// Build the durable state once: the checkpoint lands at load time,
	// then a WAL tail of chain-extending inserts accumulates behind it.
	dir := b.TempDir()
	seed := durableService(b, dir, "never")
	res := mustParse(b, tcLinear)
	base := workload.Chain(n).DB(res.Program, "e", "n")
	if _, err := seed.LoadProgramCtx(context.Background(), res.Program, base); err != nil {
		b.Fatal(err)
	}
	tailFacts := make([]string, tail)
	for i := 0; i < tail; i++ {
		tailFacts[i] = fmt.Sprintf("e(m%d,m%d)", i, i+1)
		if _, err := seed.Insert(tailFacts[i] + "."); err != nil {
			b.Fatal(err)
		}
	}
	wantFacts := seed.Stats().Facts
	seed.Close()

	b.Run("TC-512/recover", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc := durableService(b, dir, "never")
			if got := svc.Stats().Facts; got != wantFacts {
				b.Fatalf("recovered %d facts, want %d", got, wantFacts)
			}
			b.StopTimer()
			svc.Close()
			b.StartTimer()
		}
	})
	b.Run("TC-512/re-chase", func(b *testing.B) {
		// The from-scratch path recovery replaces: re-parse the program,
		// rebuild the base instance, run the full chase.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := mustParse(b, tcLinear)
			db := workload.Chain(n).DB(r.Program, "e", "n")
			e := r.Program.Reg.Intern("e", 2)
			for j := 0; j < tail; j++ {
				db.InsertArgs(e, []term.Term{
					r.Program.Store.Const(fmt.Sprintf("m%d", j)),
					r.Program.Store.Const(fmt.Sprintf("m%d", j+1)),
				})
			}
			full, _, err := datalog.Eval(r.Program, db, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
			if err != nil {
				b.Fatal(err)
			}
			if full.Len() == 0 {
				b.Fatal("empty chase")
			}
		}
	})
}
