// Package gen is the benchmark's seeded generator: the data each
// workload loads, the requests its clients send, and — through Oracle —
// the answer every request must get. The daemon only ever sees what this
// package generates.
//
// Determinism contract: the same seed gives byte-identical relations, op
// streams and expected answers. A different seed relabels the constants
// and reshuffles rows and ops, but leaves data sizes and mix shares
// untouched — the graph structure and the iWarded scenario come from
// fixed structure seeds — so runs on different seeds measure the same
// amount of work.
package gen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Size fixes how much data and how many distinct ops a workload set
// holds. Reference is what BENCHMARK.json measures; Tiny is the smoke
// test's.
type Size struct {
	// BlockSize is the node count of one graph block; ReadBlocks and
	// ChurnBlocks are the block counts of the read workloads' graph and
	// of tc.churn-durable's.
	BlockSize, ReadBlocks, ChurnBlocks int
	// Pool is the number of distinct ops a closed-loop client cycles
	// through.
	Pool int
	// BulkLimit is the row limit of tc.bulk-scan's full scan, BulkJoinLimit
	// of its join query. They differ so the two queries cost the same:
	// a class whose two kinds sit in different cost modes has a median
	// that means neither, and a joined row costs about twice a scanned
	// one.
	BulkLimit, BulkJoinLimit int
	// IWardedData is workload.SuiteParams.DataSize of the materialized
	// scenario.
	IWardedData int
	// WriteRate is the paced writer's rate in ops/s; BatchEdges the edges
	// per write op; Lag how many batches stay deleted before the oldest
	// is re-inserted; WriteSeconds how long a stream the generator
	// prepares.
	WriteRate    float64
	BatchEdges   int
	Lag          int
	WriteSeconds int
	// CheckpointEvery is the durable daemon's -checkpoint-every.
	CheckpointEvery int
	// TraceOps is how many window ops the traced ladder replays, by
	// workload name.
	TraceOps map[string]int
}

// Reference is the sizing BENCHMARK.json's numbers are measured at:
// ~0.5 M materialized t facts for the two read workloads (so set-up
// takes seconds, not milliseconds), a ~70 k-fact closure for the churn
// workload (one /query dumps it under the daemon's 100 000-row cap).
func Reference() Size {
	return Size{
		BlockSize: 150, ReadBlocks: 112, ChurnBlocks: 16,
		Pool: 8192, BulkLimit: 50000, BulkJoinLimit: 25000, IWardedData: 1400,
		WriteRate: 100, BatchEdges: 4, Lag: 8, WriteSeconds: 40,
		CheckpointEvery: 256, TraceOps: traceOps(400, 12, 10, 120),
	}
}

// Tiny is the smoke test's sizing: every code path, almost no data.
func Tiny() Size {
	return Size{
		BlockSize: 40, ReadBlocks: 6, ChurnBlocks: 4,
		Pool: 64, BulkLimit: 500, BulkJoinLimit: 250, IWardedData: 200,
		WriteRate: 50, BatchEdges: 2, Lag: 4, WriteSeconds: 8,
		CheckpointEvery: 16, TraceOps: traceOps(40, 4, 3, 24),
	}
}

// traceOps pairs sample sizes with the workloads in Names order.
func traceOps(n ...int) map[string]int {
	m := map[string]int{}
	for i, name := range Names {
		m[name] = n[i]
	}
	return m
}

// Op is one request: its HTTP form, the same request in the form the
// in-process ladder replays, and the answer it must get.
type Op struct {
	// Kind names the op's entry in the workload's mix ("ground", "scan",
	// "cq", "view", "load", "insert", "delete").
	Kind  string
	Write bool
	Path  string // "/query", "/insert", "/delete", "/load"
	Body  []byte // JSON request body

	// Pred/Args or Query (+ Limit) are a read in service.QueryRequest's
	// terms; Text is a write's payload (facts, or a whole program).
	Pred  string
	Args  []string
	Query string
	Limit int
	Text  string

	Want Want
}

// Want is what a correct reply looks like.
type Want struct {
	// Rows is the exact number of answer tuples of a read, or the fact
	// count a /load must report.
	Rows int
	// Truncated answers are cut at the limit: which tuples come back
	// depends on enumeration order, so they are checked for membership
	// in Within and distinctness instead of against Hash.
	Truncated bool
	// Hash is the order-insensitive hash of the complete answer set.
	Hash uint64
	// Within holds the hashes of every tuple a truncated answer may
	// contain.
	Within map[uint64]struct{}
}

// Client is one connection's worth of load.
type Client struct {
	Name string
	Ops  []Op
	// Rate > 0 makes the client an open loop: op k is due at k/Rate
	// seconds and Ops is walked once. Rate 0 is a closed loop cycling
	// through Ops.
	Rate float64
}

// Relation is one extensional relation as the CSV /load/csv takes.
type Relation struct {
	Pred string
	CSV  []byte
	Rows int
}

// Workload is everything one benchmark run needs.
type Workload struct {
	Name  string
	Rules string
	// Relations are bulk-loaded at set-up, in order.
	Relations []Relation
	// Probe is set-up's "first correct query".
	Probe   Op
	Clients []Client
	// Primary says which ops' latency is the workload's p50_ms/p95_ms: the
	// one op class the workload exists to time. It must not mix cost
	// modes, or its median means neither.
	Primary func(*Op) bool
	// DaemonFlags are passed to vadalogd in addition to -addr (New
	// prepends csvBatch to whatever the workload asks for); Durable
	// workloads also get -data-dir and end with a SIGKILL recovery.
	DaemonFlags []string
	Durable     bool
	// Dump queries every intensional predicate; Final gives the answer
	// the dump must get once the paced writer has had `applied` ops
	// acknowledged (nil on workloads whose data never changes: Dump.Want
	// holds).
	Dump  []Op
	Final func(applied int) ([]Want, error)
	// Facts is the materialized instance size after set-up.
	Facts int
	// TraceOps is the length of the traced ladder's sample.
	TraceOps int
}

// Sample is the fixed sample of window ops the traced ladder replays
// with one client: the clients' streams dealt round-robin, so a paced
// writer's ops alternate with the reader's as they do in the window.
func (w *Workload) Sample(from, n int) []*Op {
	out := make([]*Op, 0, n)
	for k := from; len(out) < n; k++ {
		for i := range w.Clients {
			ops := w.Clients[i].Ops
			if w.Clients[i].Rate == 0 {
				out = append(out, &ops[k%len(ops)])
			} else if k < len(ops) {
				out = append(out, &ops[k])
			}
		}
	}
	return out[:n]
}

// csvBatch keeps every staged /load/csv batch under the 2048-row
// threshold of storage's sharded merge. At the default batch size the
// daemon under test loses facts on a multi-core box: the sharded merge's
// acceptance phase sets bits of one bitmap word from several goroutines
// without synchronization, dropped bits are dropped base facts, and the
// materialization comes out short in roughly every third bulk load (this
// benchmark's oracle found it; GOMAXPROCS=1 or batches under the
// threshold never lose a fact). A benchmark must run workloads on which
// no operation fails, so until storage is fixed the daemons run with this
// flag; README.md records the defect.
var csvBatch = []string{"-csv-batch", "2047"}

// Names lists the workloads in BENCHMARK.json's order.
var Names = []string{"tc.point-read", "tc.bulk-scan", "iwarded.materialize", "tc.churn-durable"}

// New generates the named workload.
func New(name string, seed int64, sz Size) (*Workload, error) {
	var build func(int64, Size) (*Workload, error)
	switch name {
	case "tc.point-read":
		build = pointRead
	case "tc.bulk-scan":
		build = bulkScan
	case "iwarded.materialize":
		build = materialize
	case "tc.churn-durable":
		build = churnDurable
	default:
		return nil, fmt.Errorf("gen: unknown workload %q (have %v)", name, Names)
	}
	w, err := build(seed, sz)
	if err != nil {
		return nil, err
	}
	w.DaemonFlags = append(append([]string(nil), csvBatch...), w.DaemonFlags...)
	w.TraceOps = sz.TraceOps[name]
	return w, nil
}

// TupleHash hashes one answer tuple; AnswerHash sums tuple hashes so the
// result does not depend on the order answers arrive in.
func TupleHash(tuple []string) uint64 {
	h := fnv.New64a()
	for _, s := range tuple {
		h.Write([]byte(s)) //nolint:errcheck // hash writes cannot fail
		h.Write([]byte{0}) //nolint:errcheck
	}
	return h.Sum64()
}

// AnswerHash is the order-insensitive hash of an answer set.
func AnswerHash(tuples [][]string) uint64 {
	var sum uint64
	for _, t := range tuples {
		sum += TupleHash(t)
	}
	return sum
}

// queryBody renders a read op's JSON body; Op's read fields mirror
// service.QueryRequest's JSON names.
func queryBody(op *Op) {
	req := struct {
		Pred  string   `json:"pred,omitempty"`
		Args  []string `json:"args,omitempty"`
		Query string   `json:"query,omitempty"`
		Limit int      `json:"limit,omitempty"`
	}{op.Pred, op.Args, op.Query, op.Limit}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	op.Path, op.Body = "/query", b
}

// textBody renders a write op's JSON body under the given field name
// ("facts" or "program").
func textBody(op *Op, field string) {
	b, err := json.Marshal(map[string]string{field: op.Text})
	if err != nil {
		panic(err)
	}
	op.Body = b
}

// subSeed derives independent streams from the run seed, so adding a
// consumer never shifts what an existing one draws.
func subSeed(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// shuffled returns a seed-determined order of the pool for one client.
func shuffled(pool []Op, rng *rand.Rand) []Op {
	out := append([]Op(nil), pool...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
