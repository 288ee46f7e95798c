// Command vadalogd is the reasoning daemon of the reproduction: a
// long-lived HTTP front end over internal/service that materializes a
// Datalog program once and serves concurrent queries against
// snapshot-isolated epochs while incremental updates stream in.
//
// Usage:
//
//	vadalogd [flags] [file.vada ...]
//
// Flags:
//
//	-addr :8077            listen address
//	-csv-batch 0           rows per staged bulk-load buffer (0: default)
//	-max-concurrent 64     queries evaluating concurrently (0: unlimited)
//	-queue 128             queries waiting for a slot before 429s
//	-timeout 0             per-request wall-clock ceiling (0: off)
//	-max-derived 0         per-request derived-fact budget ceiling
//	-max-probes 0          per-request join-probe budget ceiling
//	-data-dir ""           durability directory: WAL + checkpoints ("": in-memory)
//	-fsync interval        WAL sync policy: always | interval | never
//	-fsync-interval 100ms  sync batching window of the interval policy
//	-checkpoint-every 4096 WAL records between automatic checkpoints
//	-drain-timeout 10s     graceful-shutdown drain window
//	-slow-query 0          log a structured trace for queries at/over this
//	                       wall time, e.g. 250ms (0: off)
//	-pprof-addr ""         serve net/http/pprof on a SEPARATE listener,
//	                       e.g. localhost:6060 ("": off)
//
// Files given on the command line are loaded (rules + facts, one shared
// naming context) before the server starts accepting requests; without
// files the server starts empty and a program is loaded over HTTP.
//
// Durability (PR 9): with -data-dir, every acknowledged update is
// write-ahead-logged and the state is periodically checkpointed; on boot
// the daemon recovers the durable state (checkpoint load + WAL tail
// replay) in the background while /healthz reports "recovering" (503).
// When durable state is recovered, command-line files are IGNORED with a
// warning — the recovered state is authoritative. /stats exposes the
// durability counters (wal_records, wal_syncs, checkpoints,
// replayed_records, ...) under "durability".
//
// Production hardening (PR 8): every request runs under a budget and the
// daemon admits a bounded amount of concurrent query work.
//
//   - -max-derived / -max-probes are server-side ceilings on per-request
//     evaluation budgets (derived-fact cap, join-probe cap; 0 =
//     unlimited). A query may request smaller caps via "max_derived" /
//     "max_probes" in the /query body, never larger.
//   - -timeout bounds every request's wall clock (0 = off). A query may
//     request a shorter deadline via "timeout_ms".
//   - -max-concurrent bounds queries evaluating at once; up to -queue
//     more wait for a slot; beyond that the daemon fast-fails 429.
//
// Failed requests carry {"error": ..., "code": ...} where code is one of
// "over_budget" (HTTP 422 — a budget cap tripped, plan.ErrOverBudget),
// "timeout" (408 — the deadline expired), "canceled" (408 — the client
// went away), "rejected" (429 — admission queue full), "not_loaded"
// (409), "too_large" (413 — request body over 64 MiB), or "error" (422).
// /stats counts all four robustness outcomes:
// queries_over_budget, queries_timeout, queries_aborted,
// queries_rejected.
//
// Endpoints (request and response bodies are JSON unless noted):
//
//	POST /load     {"program": "t(X,Y) :- e(X,Y). ... e(a,b)."}
//	               -> {"epoch": N, "facts": M}
//	               Replaces the served program and materializes it.
//	POST /load/csv?pred=e   body: CSV rows (text/csv)
//	               -> {"epoch": N, "staged": M}
//	               Streams one relation of base facts through the
//	               columnar bulk-load path (buffers + MergeBuffers).
//	POST /query    {"pred": "t", "args": ["a", "_"]}        (pattern)
//	               {"query": "?(X) :- t(a,X).", "limit": 100} (rule/CQ)
//	               -> {"epoch": N, "columns": 2, "tuples": [["a","b"], ...]}
//	               Runs lock-free against the current epoch's snapshot.
//	               The response STREAMS: tuples are encoded into one
//	               buffer that goes to the connection every 32 KiB, so the
//	               first bytes arrive before the full answer set exists,
//	               and a client that disconnects mid-stream cancels the
//	               enumeration server-side. The body is one JSON object;
//	               only its delivery is incremental. A query that fails
//	               before the first 32 KiB left gets its error status; a
//	               later failure can only cut the 200's body short.
//	               With ?explain=1 (or "explain": true in the body) the
//	               response carries an "explain" object: the structured
//	               execution trace (join orders, per-stratum
//	               rounds/probes/derived, plan- and view-cache hits,
//	               per-stage wall time).
//	POST /insert   {"facts": "e(b,c). e(c,d)."} -> {"epoch": N}
//	POST /delete   {"facts": "e(a,b)."}         -> {"epoch": N}
//	GET  /stats    -> service + maintenance counters
//	GET  /metrics  -> Prometheus text exposition (internal/obs registry):
//	               per-endpoint request latency, in-flight/queue gauges,
//	               per-class query latency/rows, fixpoint effort, WAL
//	               append/fsync latency, checkpoint size/duration,
//	               storage merge/compaction timings, and the served
//	               service's /stats counters rendered at scrape time
//	GET  /healthz  -> {"status": "ok"} (200), or 503 with status
//	               "recovering" (WAL replay in progress), "broken"
//	               (a WAL, checkpoint or recovery failure; an aborted
//	               update is rolled back and leaves "ok"), or
//	               "draining" (shutdown in progress)
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops admitting
// new requests (fast-fail 503 "draining"), lets in-flight requests
// finish against their pinned snapshots for up to -drain-timeout, then
// fsyncs and closes the WAL.
//
// Observability (PR 10): metric collection (internal/obs) is switched on
// at daemon startup and scraped at GET /metrics; every request carries an
// X-Request-ID (echoed in error bodies and the slow-query log); log
// output is structured (log/slog, one line per event with key=value
// attributes). Profiling: -pprof-addr serves net/http/pprof on a
// separate listener — off by default so production exposure is an
// explicit operator decision; point it at localhost and use e.g.
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//	go tool pprof http://localhost:6060/debug/pprof/heap
//	curl -s http://localhost:6060/debug/pprof/goroutine?debug=2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; served only via -pprof-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/term"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vadalogd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vadalogd", flag.ContinueOnError)
	addr := fs.String("addr", ":8077", "listen address")
	csvBatch := fs.Int("csv-batch", 0, "rows per staged buffer on the CSV bulk-load path (0: default)")
	maxConc := fs.Int("max-concurrent", 64, "queries evaluating concurrently (0: unlimited)")
	queue := fs.Int("queue", 128, "queries waiting for an evaluation slot before 429s")
	timeout := fs.Duration("timeout", 0, "per-request wall-clock ceiling, e.g. 30s (0: off)")
	maxDerived := fs.Int("max-derived", 0, "per-request derived-fact budget ceiling (0: unlimited)")
	maxProbes := fs.Int("max-probes", 0, "per-request join-probe budget ceiling (0: unlimited)")
	dataDir := fs.String("data-dir", "", "durability directory for the WAL and checkpoints (empty: in-memory)")
	fsync := fs.String("fsync", "interval", "WAL sync policy: always | interval | never")
	fsyncInterval := fs.Duration("fsync-interval", 0, "sync batching window of the interval policy (0: 100ms)")
	ckptEvery := fs.Int("checkpoint-every", 0, "WAL records between automatic checkpoints (0: 4096)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
	slowQuery := fs.Duration("slow-query", 0, "log a structured trace for queries at/over this wall time (0: off)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate listener, e.g. localhost:6060 (empty: off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Metric collection is library-default-off (embedders and benchmarks
	// keep the zero-overhead path); the daemon is the scrape target, so it
	// turns collection on for its whole lifetime.
	obs.SetEnabled(true)
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "vadalogd")
	svc, err := service.Open(service.Options{
		CSVBatch:   *csvBatch,
		MaxDerived: *maxDerived, MaxProbes: *maxProbes, MaxTimeout: *timeout,
		DataDir: *dataDir, Fsync: *fsync, FsyncInterval: *fsyncInterval,
		CheckpointEvery: *ckptEvery,
		SlowQuery:       *slowQuery, Logger: logger,
	})
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// A separate listener keeps the profiler off the service port:
		// exposure is the operator's call, never implied by -addr. The
		// handlers live on http.DefaultServeMux (the pprof import's
		// registration), which the service mux below never serves.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(out, "vadalogd: pprof on %s\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				logger.Warn("pprof server stopped", "error", err)
			}
		}()
	}
	loadFiles := func() error {
		files := fs.Args()
		if len(files) == 0 {
			return nil
		}
		var sb strings.Builder
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			sb.Write(b)
			sb.WriteByte('\n')
		}
		epoch, err := svc.Load(sb.String())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "vadalogd: loaded %d file(s), epoch %d, %d facts\n",
			len(files), epoch, svc.Stats().Facts)
		return nil
	}
	if *dataDir == "" {
		if err := loadFiles(); err != nil {
			return err
		}
	} else {
		// Recover in the background so the listener comes up immediately
		// with /healthz reporting "recovering" (503) until replay finishes.
		// Recovered durable state is authoritative: command-line files load
		// only into a fresh data directory.
		go func() {
			if err := svc.Recover(context.Background()); err != nil {
				logger.Error("recovery failed, serving 503 broken", "error", err)
				return
			}
			if st := svc.Stats(); st.Loaded {
				fmt.Fprintf(out, "vadalogd: recovered epoch %d, %d facts, %d wal record(s) replayed\n",
					st.Epoch, st.Facts, st.Durability.ReplayedRecords)
				if len(fs.Args()) > 0 {
					logger.Warn("ignoring command-line file(s): durable state recovered",
						"files", len(fs.Args()), "data_dir", *dataDir)
				}
				return
			}
			if err := loadFiles(); err != nil {
				logger.Error("load", "error", err)
			}
		}()
	}

	var draining atomic.Bool
	srv := &http.Server{Addr: *addr, Handler: buildHandler(svc, handlerOpts{
		adm:      newAdmission(*maxConc, *queue),
		timeout:  *timeout,
		draining: &draining,
		logger:   logger,
	})}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "vadalogd: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "vadalogd: %v, draining\n", sig)
		draining.Store(true) // new requests fast-fail 503 while in-flight ones finish
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain window expired", "error", err)
		}
		svc.Close() // fsyncs and closes the WAL
		fmt.Fprintln(out, "vadalogd: bye")
		return nil
	}
}

// admission is the bounded query-concurrency gate: at most cap queries
// evaluate at once, at most queue more wait for a slot, and everything
// beyond fast-fails with errRejected (HTTP 429). A nil *admission admits
// everything — the in-process test handler and embedders opt in
// explicitly.
type admission struct {
	sem      chan struct{}
	queue    int64
	waiting  atomic.Int64
	rejected atomic.Uint64
}

// errRejected is the admission-control verdict behind every 429.
var errRejected = errors.New("server saturated; retry later")

func newAdmission(capacity, queue int) *admission {
	if capacity <= 0 {
		return nil
	}
	return &admission{sem: make(chan struct{}, capacity), queue: int64(queue)}
}

// acquire takes an evaluation slot, waiting in the bounded queue if none
// is free. It fails fast with errRejected when the queue is full, and
// with the context's error when the client gives up while queued.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	if a.waiting.Add(1) > a.queue {
		a.waiting.Add(-1)
		a.rejected.Add(1)
		return errRejected
	}
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) release() {
	if a != nil {
		<-a.sem
	}
}

// handlerOpts is the daemon's robustness configuration. The zero value
// (no admission gate, no timeout, no drain flag) reproduces the
// pre-hardening handler.
type handlerOpts struct {
	adm     *admission
	timeout time.Duration
	// draining, when set and true, fast-fails every request except
	// /healthz with 503 — the graceful-shutdown admission stop.
	draining *atomic.Bool
	// logger receives the handler's structured log lines; nil falls back
	// to slog.Default().
	logger *slog.Logger
}

func (o handlerOpts) log() *slog.Logger {
	if o.logger != nil {
		return o.logger
	}
	return slog.Default()
}

// errDraining is the shutdown fast-fail behind 503 "draining".
var errDraining = errors.New("server draining; shutting down")

// daemonStats is the /stats payload: the service counters plus the
// daemon-level admission counter.
type daemonStats struct {
	service.Stats
	Rejected uint64 `json:"queries_rejected"`
}

// newHandler wires the service endpoints with no admission gate or
// timeout. Split out so tests drive the daemon in-process through
// httptest.
func newHandler(svc *service.Service) http.Handler {
	return buildHandler(svc, handlerOpts{})
}

func buildHandler(svc *service.Service, opts handlerOpts) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /load", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Program string `json:"program"`
		}
		if !decode(w, r, &req) {
			return
		}
		epoch, err := svc.LoadCtx(r.Context(), req.Program)
		if err != nil {
			failErr(w, err)
			return
		}
		reply(w, map[string]any{"epoch": epoch, "facts": svc.Stats().Facts})
	})
	mux.HandleFunc("POST /load/csv", func(w http.ResponseWriter, r *http.Request) {
		pred := r.URL.Query().Get("pred")
		if pred == "" {
			fail(w, http.StatusBadRequest, errors.New("missing ?pred="))
			return
		}
		staged, epoch, err := svc.LoadCSV(pred, r.Body)
		if err != nil {
			failErr(w, err)
			return
		}
		reply(w, map[string]any{"epoch": epoch, "staged": staged})
	})
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req service.QueryRequest
		if !decode(w, r, &req) {
			return
		}
		if v := r.URL.Query().Get("explain"); v == "1" || v == "true" {
			req.Explain = true
		}
		req.RequestID = w.Header().Get(requestIDHeader)
		// Admission control before any evaluation work: a saturated
		// daemon answers 429 in O(1) instead of queueing unboundedly.
		if err := opts.adm.acquire(r.Context()); err != nil {
			failErr(w, err)
			return
		}
		defer opts.adm.release()
		sink := &jsonSink{w: w, explain: req.Explain}
		sink.flusher, _ = w.(http.Flusher)
		// The request context cancels when the client disconnects; the
		// service checks it inside the enumeration loops, so an abandoned
		// stream stops consuming the snapshot promptly.
		if err := svc.QueryStream(r.Context(), &req, sink); err != nil {
			if !sink.begun {
				failErr(w, err)
				return
			}
			// A drain has put the status and part of the body on the wire;
			// the truncated (invalid) JSON tells the client the stream died.
			opts.log().Warn("query stream aborted", "request_id", req.RequestID, "error", err)
		}
	})
	update := func(apply func(context.Context, string) (uint64, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Facts string `json:"facts"`
			}
			if !decode(w, r, &req) {
				return
			}
			epoch, err := apply(r.Context(), req.Facts)
			if err != nil {
				failErr(w, err)
				return
			}
			reply(w, map[string]any{"epoch": epoch})
		}
	}
	mux.HandleFunc("POST /insert", update(svc.InsertCtx))
	mux.HandleFunc("POST /delete", update(svc.DeleteCtx))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := daemonStats{Stats: svc.Stats()}
		if opts.adm != nil {
			st.Rejected = opts.adm.rejected.Load()
		}
		reply(w, st)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := string(svc.Health())
		if opts.draining != nil && opts.draining.Load() {
			status = "draining"
		}
		w.Header().Set("Content-Type", "application/json")
		if status != string(service.HealthOK) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "{\"status\":%q}\n", status)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.Default.WritePrometheus(w); err != nil {
			opts.log().Warn("metrics exposition", "error", err)
		}
	})
	registerQueueGauge(opts.adm)
	registerServiceSeries(svc)
	return logRecover(opts.log(), withRequestID(withObs(withDraining(opts.draining, withTimeout(opts.timeout, mux)))))
}

// withDraining fast-fails every request except /healthz once the drain
// flag flips: the shutdown path stops admitting work while letting
// already-admitted requests run out inside http.Server.Shutdown's grace
// window. /healthz stays answerable so load balancers observe the
// "draining" state instead of a refused connection.
func withDraining(d *atomic.Bool, next http.Handler) http.Handler {
	if d == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d.Load() && r.URL.Path != "/healthz" {
			failErr(w, errDraining)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withTimeout bounds every request's wall clock by deriving a deadline
// context — plain context plumbing, NOT http.TimeoutHandler, whose
// response buffering would break /query streaming. The service's budget
// machinery observes the deadline inside the evaluation hot loops.
func withTimeout(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// errStatus maps a request error to its HTTP status and structured code.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, errRejected):
		return http.StatusTooManyRequests, "rejected"
	case errors.Is(err, plan.ErrOverBudget):
		return http.StatusUnprocessableEntity, "over_budget"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "canceled"
	case errors.Is(err, service.ErrNotLoaded):
		return http.StatusConflict, "not_loaded"
	case errors.Is(err, service.ErrRecovering):
		return http.StatusServiceUnavailable, "recovering"
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge, "too_large"
	default:
		return http.StatusUnprocessableEntity, "error"
	}
}

// drainAt is the encoded size at which the /query buffer is handed to the
// ResponseWriter mid-answer: far above net/http's 4 KiB bufio, so each
// drain goes to the connection as one chunk, and small enough that a bulk
// answer's first bytes leave while the enumeration is still young.
const drainAt = 32 << 10

// jsonSink encodes a QueryResponse-shaped JSON object into one buffer —
// header on Begin, one array element per row, the closing flags on End —
// and hands the buffer to the ResponseWriter in a single Write + Flush
// whenever it reaches drainAt, and in a single Write when the object
// closes: an answer that never drained leaves with its Content-Length, as
// one write when the handler returns, instead of as a flushed chunk plus
// the chunked terminator. The bytes are exactly what json.Marshal of the
// equivalent QueryResponse produces (plus the trailing newline). Rows
// arrive as terms (service.TermSink), each constant copied from the JSON
// literal its store encoded when it was interned; the sink owns its
// buffer, so AppendJSON may write past the row into its spare capacity. A
// failed Write (client gone) propagates back into the service, which
// stops the enumeration.
//
// The buffer comes from sinkBufs in Begin and goes back after the final
// Write; a stream that dies mid-answer leaves its buffer to the collector.
type jsonSink struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     []byte
	pooled  *[]byte // sinkBufs entry buf came from
	// begun reports that bytes were handed to w: the status line is
	// committed and an error can only truncate the body. Until then the
	// handler may still answer with an error status.
	begun bool
	rows  int
	sent  int // body bytes handed to w so far
	// explain leaves the object open at End: the trace arrives through
	// Trace AFTER End (the service closes the enumeration, then attaches
	// the trace), which appends "explain" and closes the object.
	explain bool
}

// sinkBufs recycles response buffers across requests. A bulk answer's
// buffer settles just past drainAt; one a huge row grew beyond twice that
// is dropped instead of pooled.
var sinkBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

func (s *jsonSink) Begin(epoch uint64, columns int) error {
	s.w.Header().Set("Content-Type", "application/json")
	s.pooled = sinkBufs.Get().(*[]byte)
	s.buf = append((*s.pooled)[:0], `{"epoch":`...)
	s.buf = strconv.AppendUint(s.buf, epoch, 10)
	s.buf = append(s.buf, `,"columns":`...)
	s.buf = strconv.AppendInt(s.buf, int64(columns), 10)
	s.buf = append(s.buf, `,"tuples":[`...)
	return nil
}

func (s *jsonSink) Row(tuple []string) error {
	b := s.openRow()
	for i, v := range tuple {
		if i > 0 {
			b = append(b, ',')
		}
		b = term.AppendJSONString(b, v)
	}
	return s.closeRow(b)
}

func (s *jsonSink) RowTerms(st *term.Store, tuple []term.Term) error {
	b := s.openRow()
	for i, t := range tuple {
		if i > 0 {
			b = append(b, ',')
		}
		b = st.AppendJSON(b, t)
	}
	return s.closeRow(b)
}

func (s *jsonSink) openRow() []byte {
	b := s.buf
	if s.rows > 0 {
		b = append(b, ',')
	}
	return append(b, '[')
}

func (s *jsonSink) closeRow(b []byte) error {
	s.buf = append(b, ']')
	s.rows++
	if len(s.buf) >= drainAt {
		return s.drain()
	}
	return nil
}

func (s *jsonSink) End(truncated bool, boolAns *bool) error {
	s.buf = append(s.buf, ']')
	if truncated {
		s.buf = append(s.buf, `,"truncated":true`...)
	}
	if boolAns != nil {
		s.buf = strconv.AppendBool(append(s.buf, `,"bool":`...), *boolAns)
	}
	if s.explain {
		return nil
	}
	return s.finish()
}

func (s *jsonSink) Trace(tr *service.QueryTrace) error {
	b, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	s.buf = append(append(s.buf, `,"explain":`...), b...)
	return s.finish()
}

// finish closes the object, writes what is left, returns the buffer to
// sinkBufs, and records the response's size — once per response, never
// per row. Nothing is flushed: the handler's return sends it.
func (s *jsonSink) finish() error {
	s.buf = append(s.buf, "}\n"...)
	if !s.begun {
		s.w.Header().Set("Content-Length", strconv.Itoa(len(s.buf)))
	}
	err := s.write()
	if cap(s.buf) <= 2*drainAt {
		*s.pooled = s.buf
		sinkBufs.Put(s.pooled)
	}
	s.buf, s.pooled = nil, nil
	if obs.On() {
		obsQueryBytes.Add(uint64(s.sent))
	}
	return err
}

// drain hands a mid-answer buffer to the connection in one Write and
// flushes it, so a bulk answer's first bytes leave while the enumeration
// is still running.
func (s *jsonSink) drain() error {
	if err := s.write(); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

func (s *jsonSink) write() error {
	s.begun = true
	n, err := s.w.Write(s.buf)
	s.sent += n
	s.buf = s.buf[:0]
	return err
}

// logRecover turns handler panics into 500s so one bad request cannot
// take the daemon down.
func logRecover(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				logger.Error("panic serving request",
					"method", r.Method, "path", r.URL.Path,
					"request_id", w.Header().Get(requestIDHeader), "panic", fmt.Sprint(p))
				fail(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// maxBody bounds a JSON request body; a variable so a test can lower it.
var maxBody int64 = 64 << 20

func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(into); err != nil {
		err = fmt.Errorf("bad request body: %w", err)
		if errors.As(err, new(*http.MaxBytesError)) {
			failErr(w, err) // 413 too_large
		} else {
			fail(w, http.StatusBadRequest, err)
		}
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		slog.Warn("encode response", "error", err)
	}
}

// fail / failErr echo the request ID (set on the response headers by
// withRequestID before the handler ran) into the error body, so a
// client-side error report carries the correlation key for the daemon's
// logs without any extra plumbing.
func fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error()}
	if id := w.Header().Get(requestIDHeader); id != "" {
		body["request_id"] = id
	}
	json.NewEncoder(w).Encode(body)
}

// failErr writes a structured error: {"error": ..., "code": ...} under
// the HTTP status errStatus maps the error to. The machine-readable code
// distinguishes over_budget / timeout / canceled / rejected without
// string-matching the message.
func failErr(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := map[string]string{"error": err.Error(), "code": code}
	if id := w.Header().Get(requestIDHeader); id != "" {
		body["request_id"] = id
	}
	json.NewEncoder(w).Encode(body)
}
