package repro

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// --------------------------------------------------------------------
// PR 10 — observability overhead. Both benchmarks run their workload
// twice under identical conditions, collection disabled (the library
// default — every obs hook reduces to one atomic load) and enabled
// (timestamps, histogram observes, counters). The off/on pair runs
// adjacently, so the A/B is interleaved within one `go test -bench
// Instrumented` run on the same warmed process. Acceptance: collect=off
// within 2% of the uninstrumented PR 9 numbers (it IS the same code
// path P1/S1 measure — BenchmarkP1_PlanFixpointSeq runs with collection
// off); collect=on records what scraping costs.
// --------------------------------------------------------------------

func benchObs(b *testing.B, on bool, f func(b *testing.B)) {
	prev := obs.SetEnabled(on)
	defer obs.SetEnabled(prev)
	f(b)
}

func BenchmarkP1_Instrumented(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "collect=off"
		if on {
			name = "collect=on"
		}
		b.Run(name, func(b *testing.B) {
			benchObs(b, on, func(b *testing.B) {
				res := mustParse(b, tcLinear)
				prog := res.Program
				db := workload.Chain(256).DB(prog, "e", "n")
				opt := datalog.Options{Stratify: true, BiasRecursiveAtom: true}
				var rounds int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, stats, err := datalog.Eval(prog, db, opt)
					if err != nil {
						b.Fatal(err)
					}
					rounds = stats.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
			})
		})
	}
}

func BenchmarkS1_Instrumented(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "collect=off"
		if on {
			name = "collect=on"
		}
		b.Run(name, func(b *testing.B) {
			benchObs(b, on, func(b *testing.B) {
				const n = 256
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
		})
	}
}
