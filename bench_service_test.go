package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/workload"
)

// --------------------------------------------------------------------
// S1 — the materialized reasoning service (internal/service): snapshot-
// isolated concurrent query serving over the PR 2–4 storage machinery.
//
// QueryLatency is the acceptance gate: a pattern query through the full
// service path (epoch acquire, cached ScanPlan, snapshot probe, name
// rendering, release) must stay within ~10% of the identical probe +
// render loop run directly against a standalone materialized DB — the
// epoch machinery may not tax the read path.
//
// ServiceMixed is the throughput experiment: N reader goroutines issue
// pattern queries while one writer continuously deletes and re-inserts
// base facts (each update runs in-place DRed plus an epoch publish, i.e.
// one storage snapshot + copy-on-write detaches). ns/op is per QUERY;
// updates/query reports how much writer churn the readers absorbed.
// Workloads: linear TC-256 and a generated full-Datalog iWarded
// scenario. NOTE: this container pins one CPU, so reader parallelism
// only measures scheduling overhead here; re-record on multi-core.
// --------------------------------------------------------------------

func serviceTC(b *testing.B, n int) *service.Service {
	b.Helper()
	res := mustParse(b, tcLinear)
	base := workload.Chain(n).DB(res.Program, "e", "n")
	svc := service.New(service.Options{})
	if _, err := svc.LoadProgramCtx(context.Background(), res.Program, base); err != nil {
		b.Fatal(err)
	}
	return svc
}

func BenchmarkS1_QueryLatency(b *testing.B) {
	const n = 256
	b.Run("TC-256/service", func(b *testing.B) {
		svc := serviceTC(b, n)
		defer svc.Close()
		req := &service.QueryRequest{Pred: "t", Args: []string{"n0", "_"}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Query(req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Tuples) != n-1 {
				b.Fatalf("t(n0,_) = %d tuples, want %d", len(resp.Tuples), n-1)
			}
		}
	})
	b.Run("TC-256/direct", func(b *testing.B) {
		res := mustParse(b, tcLinear)
		base := workload.Chain(n).DB(res.Program, "e", "n")
		out, _, err := datalog.Eval(res.Program, base, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
		if err != nil {
			b.Fatal(err)
		}
		tID, _ := res.Program.Reg.Lookup("t")
		c0, _ := res.Program.Store.HasConst("n0")
		sp := storage.CompileScan(tID, []storage.ScanArg{
			{Mode: storage.ArgBound, Slot: 0}, {Mode: storage.ArgBind, Slot: 1}})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The same work the service performs per query, without the
			// epoch/locking machinery: frame, probe, tuple copies, render.
			frame := storage.NewFrame(2)
			frame[0] = c0
			var rows [][]term.Term
			out.Probe(sp, frame, 0, 0, 1, func() bool {
				tup := make([]term.Term, 2)
				copy(tup, frame)
				rows = append(rows, tup)
				return true
			})
			tuples := make([][]string, len(rows))
			for k, tup := range rows {
				tuples[k] = res.Program.Store.Names(tup)
			}
			if len(tuples) != n-1 {
				b.Fatalf("direct probe = %d tuples, want %d", len(tuples), n-1)
			}
		}
	})
	b.Run("TC-256/service-ground", func(b *testing.B) {
		svc := serviceTC(b, n)
		defer svc.Close()
		req := &service.QueryRequest{Pred: "t", Args: []string{"n0", fmt.Sprintf("n%d", n-1)}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Query(req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Tuples) != 1 {
				b.Fatalf("ground lookup = %d tuples", len(resp.Tuples))
			}
		}
	})
	b.Run("TC-256/direct-ground", func(b *testing.B) {
		res := mustParse(b, tcLinear)
		base := workload.Chain(n).DB(res.Program, "e", "n")
		out, _, err := datalog.Eval(res.Program, base, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
		if err != nil {
			b.Fatal(err)
		}
		tID, _ := res.Program.Reg.Lookup("t")
		c0, _ := res.Program.Store.HasConst("n0")
		cl, _ := res.Program.Store.HasConst(fmt.Sprintf("n%d", n-1))
		sp := storage.CompileScan(tID, []storage.ScanArg{
			{Mode: storage.ArgBound, Slot: 0}, {Mode: storage.ArgBound, Slot: 1}})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame := storage.NewFrame(2)
			frame[0], frame[1] = c0, cl
			var rows [][]term.Term
			out.Probe(sp, frame, 0, 0, 1, func() bool {
				tup := make([]term.Term, 2)
				copy(tup, frame)
				rows = append(rows, tup)
				return true
			})
			tuples := make([][]string, len(rows))
			for k, tup := range rows {
				tuples[k] = res.Program.Store.Names(tup)
			}
			if len(tuples) != 1 {
				b.Fatalf("direct ground = %d tuples", len(tuples))
			}
		}
	})
}

// fullIWardedScenario picks the first generated iWarded scenario the
// incremental engine can maintain (full single-head, no existentials).
func fullIWardedScenario(b *testing.B) (*service.Service, *service.QueryRequest, []string) {
	b.Helper()
	suite, err := workload.GenSuite(workload.DefaultSuiteParams(24, 1905))
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range suite {
		svc := service.New(service.Options{})
		if _, err := svc.LoadProgramCtx(context.Background(), sc.Program, sc.DB); err != nil {
			continue
		}
		// Pattern query over the scenario's principal predicate.
		qp := sc.Query.Atoms[0].Pred
		name := sc.Program.Reg.Name(qp)
		args := make([]string, sc.Program.Reg.Arity(qp))
		for i := range args {
			args[i] = "_"
		}
		// Churn payloads: a few extensional facts rendered back to text.
		var churn []string
		for pred := range sc.Program.EDB() {
			for _, f := range sc.DB.Facts(pred) {
				var sb strings.Builder
				sb.WriteString(sc.Program.Reg.Name(pred))
				sb.WriteByte('(')
				for i, t := range f.Args {
					if i > 0 {
						sb.WriteByte(',')
					}
					sb.WriteString(sc.Program.Store.Name(t))
				}
				sb.WriteString(").")
				churn = append(churn, sb.String())
				if len(churn) >= 8 {
					break
				}
			}
			if len(churn) >= 8 {
				break
			}
		}
		if len(churn) == 0 {
			svc.Close()
			continue
		}
		return svc, &service.QueryRequest{Pred: name, Args: args}, churn
	}
	b.Fatal("no full-Datalog iWarded scenario in the suite")
	return nil, nil, nil
}

// --------------------------------------------------------------------
// S2 — load/query interference: pattern-query latency while a bulk CSV
// stream is landing through the pipelined LoadCSV path. The "idle"
// variant is the reference latency with no writer; "streaming" runs the
// same queries while a background LoadCSV continuously parses, interns,
// and batch-merges rows of an unused extensional predicate (every row
// interns two fresh constants, so the naming context is under constant
// concurrent write). The acceptance bar for the pipelined path is
// streaming latency within ~3x idle — under the old whole-stream naming
// lock, streaming queries serialized behind the entire load instead.
// NOTE: this container pins one CPU; on it, "streaming" measures the
// per-batch critical sections and interning contention only, not true
// core-parallel overlap — re-record on multi-core.
// --------------------------------------------------------------------

// csvRowGen generates distinct two-column CSV rows until stopped, then
// EOF. It feeds LoadCSV an endless stream without any disk or goroutine
// of its own — the parser pulls rows as fast as it can intern them.
type csvRowGen struct {
	stop *atomic.Bool
	i    int
	rem  []byte
}

func (g *csvRowGen) Read(p []byte) (int, error) {
	if len(g.rem) == 0 {
		if g.stop.Load() {
			return 0, io.EOF
		}
		for k := 0; k < 64; k++ {
			g.rem = fmt.Appendf(g.rem, "x%d,y%d\n", g.i, g.i)
			g.i++
		}
	}
	n := copy(p, g.rem)
	g.rem = g.rem[n:]
	return n, nil
}

func BenchmarkS2_LoadInterference(b *testing.B) {
	const n = 256
	req := &service.QueryRequest{Pred: "t", Args: []string{"n0", "_"}}
	query := func(b *testing.B, svc *service.Service) {
		resp, err := svc.Query(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Tuples) != n-1 {
			b.Fatalf("t(n0,_) = %d tuples, want %d", len(resp.Tuples), n-1)
		}
	}
	b.Run("TC-256/idle", func(b *testing.B) {
		svc := serviceTC(b, n)
		defer svc.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, svc)
		}
	})
	b.Run("TC-256/streaming", func(b *testing.B) {
		res := mustParse(b, tcLinear)
		base := workload.Chain(n).DB(res.Program, "e", "n")
		// Small batches keep load landings interleaving with the timed
		// queries instead of one giant deferred merge at EOF.
		svc := service.New(service.Options{CSVBatch: 2048})
		if _, err := svc.LoadProgramCtx(context.Background(), res.Program, base); err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		first := svc.Stats().Epoch
		var stop atomic.Bool
		gen := &csvRowGen{stop: &stop}
		type result struct {
			staged int
			err    error
		}
		done := make(chan result, 1)
		go func() {
			staged, _, err := svc.LoadCSV("bulk", gen)
			done <- result{staged, err}
		}()
		// Wait until the stream is genuinely mid-flight (first batch
		// published) so every timed query races a live load.
		deadline := time.Now().Add(10 * time.Second)
		for svc.Stats().Epoch == first {
			if time.Now().After(deadline) {
				b.Fatal("bulk load never landed a batch")
			}
			runtime.Gosched()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, svc)
		}
		b.StopTimer()
		stop.Store(true)
		lr := <-done
		if lr.err != nil {
			b.Fatal(lr.err)
		}
		b.ReportMetric(float64(lr.staged)/float64(b.N), "loadrows/query")
	})
}

func BenchmarkS1_ServiceMixed(b *testing.B) {
	type setup func(b *testing.B) (*service.Service, *service.QueryRequest, []string)
	workloads := []struct {
		name  string
		setup setup
	}{
		{"TC-256", func(b *testing.B) (*service.Service, *service.QueryRequest, []string) {
			svc := serviceTC(b, 256)
			var churn []string
			for k := 200; k < 208; k++ {
				churn = append(churn, fmt.Sprintf("e(n%d,n%d).", k, k+1))
			}
			return svc, &service.QueryRequest{Pred: "t", Args: []string{"n0", "_"}}, churn
		}},
		{"iWarded", func(b *testing.B) (*service.Service, *service.QueryRequest, []string) {
			return fullIWardedScenario(b)
		}},
	}
	for _, wl := range workloads {
		for _, readers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/readers=%d", wl.name, readers), func(b *testing.B) {
				svc, req, churn := wl.setup(b)
				defer svc.Close()
				stop := make(chan struct{})
				var updates atomic.Int64
				var churnWG sync.WaitGroup
				churnWG.Add(1)
				go func() {
					defer churnWG.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						fact := churn[i%len(churn)]
						if _, err := svc.Delete(fact); err != nil {
							b.Error(err)
							return
						}
						if _, err := svc.Insert(fact); err != nil {
							b.Error(err)
							return
						}
						updates.Add(2)
					}
				}()
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / readers
				for r := 0; r < readers; r++ {
					cnt := per
					if r == 0 {
						cnt += b.N - per*readers
					}
					wg.Add(1)
					go func(cnt int) {
						defer wg.Done()
						for i := 0; i < cnt; i++ {
							if _, err := svc.Query(req); err != nil {
								b.Error(err)
								return
							}
						}
					}(cnt)
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				churnWG.Wait()
				b.ReportMetric(float64(updates.Load())/float64(b.N), "updates/query")
			})
		}
	}
}

// --------------------------------------------------------------------
// S3 — compiled conjunctive queries and overlay view evaluation (the
// streaming-query PR).
//
// AdHocCQ times a 2-atom join evaluated through the full service path
// (epoch acquire, generation plan cache, CQPlan enumeration, streaming
// render into the response).
//
// RuleView measures rule-defined-view queries: "cold" renames the view
// rules every iteration so each query materializes its own overlay
// (copy-on-write over the epoch snapshot, fixpoint in place); "cached"
// repeats one shape, so every iteration after the first reuses the
// epoch's materialized overlay and pays only the CQ enumeration —
// repeated views of an unchanged epoch have zero snapshot-copy cost.
// --------------------------------------------------------------------

func BenchmarkS3_AdHocCQ(b *testing.B) {
	const n = 256
	const queryText = "?(X,Z) :- e(X,Y), t(Y,Z)."
	// Matches of e(X,Y), t(Y,Z) on the n-chain closure: for each edge
	// (j-1,j), t reaches the n-1-j nodes beyond j.
	want := 0
	for j := 1; j < n; j++ {
		want += n - 1 - j
	}
	b.Run("TC-256/compiled", func(b *testing.B) {
		svc := serviceTC(b, n)
		defer svc.Close()
		req := &service.QueryRequest{Query: queryText}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Query(req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Tuples) != want {
				b.Fatalf("compiled = %d tuples, want %d", len(resp.Tuples), want)
			}
		}
	})
}

// BenchmarkS3_BoundView is tc.churn-durable's read in process: a bound
// read of its non-recursive view over the churn instance, each on a fresh
// epoch, against the conjunctive query the view unfolds to. The view read
// parses its rule and finds its compiled union by shape, then runs what
// the query runs; no overlay is built.
func BenchmarkS3_BoundView(b *testing.B) {
	const blocks, nodes = 16, 16 * 150
	svc := service.New(service.Options{})
	defer svc.Close()
	if _, err := svc.Load(workload.TCBlocksText(blocks)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, query string }{
		{"view", "back(Y,X) :- t(X,Y). ?(X) :- back(n%d,X)."},
		{"cq", "?(X) :- t(X,n%d)."},
	} {
		reqs := make([]service.QueryRequest, nodes)
		for i := range reqs {
			reqs[i].Query = fmt.Sprintf(c.query, i)
		}
		b.Run("churn/"+c.name, func(b *testing.B) {
			builds := svc.Stats().ViewBuilds
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, _, err := svc.LoadCSV("e", strings.NewReader("")); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := svc.Query(&reqs[i%nodes]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(svc.Stats().ViewBuilds-builds)/float64(b.N), "builds/op")
		})
	}
}

func BenchmarkS3_RuleView(b *testing.B) {
	const n = 256
	// A goal bound by a constant evaluates on demand, an all-free goal
	// builds the full view; the epoch caches either overlay, per constants.
	viewText := func(v, from string) string {
		return fmt.Sprintf("s(%[1]sA,%[1]sB) :- e(%[1]sA,%[1]sB). s(%[1]sA,%[1]sC) :- e(%[1]sA,%[1]sB), s(%[1]sB,%[1]sC). ?(%[1]sX) :- s(%[2]s,%[1]sX).", v, from)
	}
	b.Run("TC-256/demand", func(b *testing.B) {
		svc := serviceTC(b, n)
		defer svc.Close()
		req := &service.QueryRequest{Query: viewText("", "n0")}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh epoch of the same instance (an empty bulk load
			// publishes one), so every query evaluates on demand.
			b.StopTimer()
			if _, _, err := svc.LoadCSV("e", strings.NewReader("")); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			resp, err := svc.Query(req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Tuples) != n-1 {
				b.Fatalf("demand view = %d tuples, want %d", len(resp.Tuples), n-1)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(svc.Stats().ViewBuilds)/float64(b.N), "builds/op")
	})
	b.Run("TC-256/cold", func(b *testing.B) {
		svc := serviceTC(b, n)
		defer svc.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Per-iteration variable names: a fresh view shape, so every
			// query materializes its own overlay.
			v := fmt.Sprintf("V%d", i)
			resp, err := svc.Query(&service.QueryRequest{Query: viewText(v, v+"Y")})
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Tuples) != n-1 {
				b.Fatalf("cold view = %d tuples, want %d", len(resp.Tuples), n-1)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(svc.Stats().ViewBuilds)/float64(b.N), "builds/op")
	})
	b.Run("TC-256/cached", func(b *testing.B) {
		svc := serviceTC(b, n)
		defer svc.Close()
		req := &service.QueryRequest{Query: viewText("", "n0")}
		// Evaluate once outside the timing window; every timed iteration
		// hits the epoch's overlay cache.
		if _, err := svc.Query(req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Query(req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Tuples) != n-1 {
				b.Fatalf("cached view = %d tuples, want %d", len(resp.Tuples), n-1)
			}
		}
		b.StopTimer()
		if builds := svc.Stats().ViewBuilds; builds != 1 {
			b.Fatalf("cached view built %d times, want 1", builds)
		}
		b.ReportMetric(float64(svc.Stats().ViewBuilds)/float64(b.N), "builds/op")
	})
}
