package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/gen"
)

// layers are this repository's modules, in ladder order.
var layers = []string{"http", "service", "plan", "incremental", "datalog", "storage", "parser", "relio", "wal"}

// traceResult is one workload's traced run: the per-layer metrics.
type traceResult struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Failures  []string           `json:"failures,omitempty"`
	Sampled   int                `json:"ops_sampled"`
	Values    map[string]float64 `json:"metrics"`
	TraceFile string             `json:"trace_file"`
}

func (t *traceResult) fail(err error) {
	t.Failed++
	if len(t.Failures) < 5 {
		t.Failures = append(t.Failures, err.Error())
	}
}

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A metric that does not apply to a
// workload reads 0 there.
func layerMetrics() [][2]string {
	var m [][2]string
	for _, l := range layers {
		m = append(m, [2]string{l + ".self_us_per_op", "us/op"}, [2]string{l + ".share", "frac"})
		if l != "http" {
			m = append(m, [2]string{l + ".allocs_per_op", "count"}, [2]string{l + ".alloc_bytes_per_op", "B"})
		}
	}
	for _, l := range []string{"http", "service", "relio", "incremental", "storage", "parser", "datalog", "wal"} {
		m = append(m, [2]string{"setup." + l + "_ms", "ms"})
	}
	return append(m,
		[2]string{"http.bytes_per_op", "B"},
		[2]string{"service.rows_per_op", "count"},
		[2]string{"plan.probes_per_row", "ratio"},
		[2]string{"service.view_builds_per_read", "ratio"},
		[2]string{"incremental.overdeleted_per_delete", "ratio"},
		[2]string{"incremental.rederived_frac", "frac"},
		[2]string{"incremental.derived_per_insert", "ratio"},
		[2]string{"storage.compacted_per_write", "ratio"},
		[2]string{"datalog.rounds_per_load", "count"},
		[2]string{"datalog.derived_per_load", "count"},
		[2]string{"wal.bytes_per_write", "B"},
		[2]string{"wal.syncs_per_write", "ratio"},
		[2]string{"wal.checkpoints", "count"},
		[2]string{"wal.disk_bytes_per_fact", "B"},
		[2]string{"storage.rss_bytes_per_fact", "B"},
		[2]string{"daemon.cpu_s_per_kop", "s/kop"},
		[2]string{"driver.cpu_frac", "frac"},
		[2]string{"trace.overhead_frac", "frac"},
		[2]string{"recovery_s", "s"},
		[2]string{"recovery.service_s", "s"},
		[2]string{"recovery.wal_s", "s"},
	)
}

func (t *traceResult) metrics() map[string]metric {
	out := map[string]metric{}
	for _, m := range layerMetrics() {
		out[m[0]] = metric{t.Values[m[0]], m[1]}
	}
	return out
}

func (t *traceResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (traced, 1 client, %d ops sampled) ==\n", t.Workload, t.Sampled)
	fmt.Fprintf(w, "%-36s %14d count\n", "ops_attempted", t.Attempted)
	fmt.Fprintf(w, "%-36s %14d count\n", "ops_failed", t.Failed)
	for _, f := range t.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, m := range layerMetrics() {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", m[0], t.Values[m[0]], m[1])
	}
	fmt.Fprintf(w, "%-36s %s\n", "trace_file", t.TraceFile)
}

// trace is the traced run: one client, the workload's set-up ops and a
// fixed sample of its window ops, each replayed down the ladder.
func (r *runner) trace(name string) (*traceResult, error) {
	defer r.close()
	w, err := gen.New(name, r.cfg.seed, r.cfg.size)
	if err != nil {
		return nil, err
	}
	res := &traceResult{Workload: name, Sampled: w.TraceOps, Values: map[string]float64{}}
	tr := &tracer{t0: time.Now()}

	// Set-up, with an http span per request.
	dataDir := ""
	if w.Durable {
		if dataDir, err = r.tempDir("data-*"); err != nil {
			return nil, err
		}
	}
	d, err := r.start(w, dataDir)
	if err != nil {
		return nil, err
	}
	c := newConn(d.base)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.waitHealthy(ctx, c.hc); err != nil {
		return nil, err
	}
	rep, err := r.newReplica(w, tr)
	if err != nil {
		return nil, err
	}
	defer func() { rep.close() }()

	var (
		opID     int
		setupOps = map[int]bool{}
		httpErr  error
		bytesOut int
	)
	post := func(kind, path, ctype string, body []byte) int {
		return tr.remote(opID, kind, noParent, "http", "POST "+path, func() {
			var status int
			if status, httpErr = c.post(path, ctype, body); httpErr == nil && status != http.StatusOK {
				httpErr = fmt.Errorf("%s: status %d: %s", path, status, clip(c.buf.Bytes()))
			}
		})
	}
	rules, err := json.Marshal(map[string]string{"program": w.Rules})
	if err != nil {
		return nil, err
	}
	sp := post("setup.load", "/load", "application/json", rules)
	if httpErr != nil {
		return nil, httpErr
	}
	if err := rep.setupLoad(opID, sp); err != nil {
		return nil, err
	}
	setupOps[opID] = true
	for i := range w.Relations {
		opID++
		rel := &w.Relations[i]
		sp := post("setup.csv", "/load/csv?pred="+rel.Pred, "text/csv", rel.CSV)
		if httpErr != nil {
			return nil, httpErr
		}
		if err := rep.setupCSV(opID, sp, rel); err != nil {
			return nil, err
		}
		setupOps[opID] = true
	}
	// replay sends one op at the http rung, checks it in full, and
	// descends.
	replay := func(op *gen.Op) error {
		var checkErr error
		sp := tr.remote(opID, op.Kind, noParent, "http", "POST "+op.Path, func() { checkErr = c.send(op) })
		if checkErr == nil {
			checkErr = c.check(op, true)
		}
		res.Attempted++
		if checkErr != nil {
			res.fail(checkErr)
		}
		bytesOut += c.buf.Len()
		if op.Write {
			return rep.write(opID, sp, op)
		}
		return rep.read(opID, sp, op)
	}
	opID++
	if err := replay(&w.Probe); err != nil {
		return nil, err
	}
	setupOps[opID] = true
	bytesOut = 0
	if st, err := d.stats(); err != nil || st.Facts != w.Facts {
		return nil, fmt.Errorf("set-up: daemon materialized %d facts, oracle has %d (%v)", st.Facts, w.Facts, err)
	}
	rss, err := d.rss()
	if err != nil {
		return nil, err
	}
	res.Values["storage.rss_bytes_per_fact"] = float64(rss) / float64(w.Facts)

	// Warm-up, as the untraced run has one: a few rounds of every client's
	// stream plus one read of every kind go down the whole ladder with
	// their spans thrown away, so plan caches are filled and fixed-shape
	// views built on every replica before the first recorded op.
	const warmRounds = 8
	warm := w.Sample(0, warmRounds*len(w.Clients))
	warmed := map[string]bool{}
	for _, op := range warm {
		warmed[op.Kind] = true
	}
	for i := range w.Clients {
		for k := range w.Clients[i].Ops {
			if op := &w.Clients[i].Ops[k]; !op.Write && !warmed[op.Kind] {
				warmed[op.Kind] = true
				warm = append(warm, op)
			}
		}
	}
	recorded, attempted := tr.spans, res.Attempted
	warmWrites := 0
	for _, op := range warm {
		if err := replay(op); err != nil {
			return nil, err
		}
		if op.Write {
			warmWrites++
		}
	}
	tr.spans, res.Attempted, bytesOut = recorded[:len(recorded):len(recorded)], attempted, 0
	rep.rows, rep.reads = 0, 0
	// Loads so far were set-up's and warm-up's; they stand in for the
	// sample's only on a workload whose sample has none.
	before := [3]int{rep.loads, rep.rounds, rep.derive}
	rep.loads, rep.rounds, rep.derive = 0, 0, 0
	st0, err := d.stats()
	if err != nil {
		return nil, err
	}

	// The traced pass over the sample.
	sample := w.Sample(warmRounds, w.TraceOps)
	var reads, writes, deletes, loads int
	for _, op := range sample {
		opID++
		if err := replay(op); err != nil {
			return nil, err
		}
		switch {
		case !op.Write:
			reads++
		case op.Kind == "load":
			loads++
		default:
			writes++
			if op.Kind == "delete" {
				deletes++
			}
		}
	}
	st1, err := d.stats()
	if err != nil {
		return nil, err
	}
	v := res.Values
	v["http.bytes_per_op"] = float64(bytesOut) / float64(len(sample))
	v["service.rows_per_op"] = ratio(rep.rows, rep.reads)
	v["service.view_builds_per_read"] = ratio(int(st1.ViewBuilds-st0.ViewBuilds), reads)
	// Loads reset the engine's counters, so they only make deltas on
	// workloads without loads — which are the ones with updates.
	if loads == 0 {
		e0, e1 := st0.Engine, st1.Engine
		v["incremental.overdeleted_per_delete"] = ratio(e1.Overdeleted-e0.Overdeleted, e1.Deleted-e0.Deleted)
		v["incremental.rederived_frac"] = ratio(e1.Rederived-e0.Rederived, e1.Overdeleted-e0.Overdeleted)
		v["storage.compacted_per_write"] = ratio(e1.Compacted-e0.Compacted, writes)
	}
	// Insertions count set-up's bulk load too: it is where most facts are
	// derived, and what setup_s pays for.
	v["incremental.derived_per_insert"] = ratio(st1.Engine.DerivedNew, st1.Engine.Inserted)
	if rep.loads == 0 {
		rep.loads, rep.rounds, rep.derive = before[0], before[1], before[2]
	}
	v["datalog.rounds_per_load"] = ratio(rep.rounds, rep.loads)
	v["datalog.derived_per_load"] = ratio(rep.derive, rep.loads)
	if d0, d1 := st0.Durability, st1.Durability; d0 != nil && d1 != nil {
		v["wal.bytes_per_write"] = ratio(int(d1.Bytes-d0.Bytes), writes)
		v["wal.syncs_per_write"] = ratio(int(d1.Syncs-d0.Syncs), writes)
		v["wal.checkpoints"] = float64(d1.Checkpoints)
		v["wal.disk_bytes_per_fact"] = float64(dirBytes(dataDir)) / float64(st1.Facts)
	}
	if err := r.explainSample(c, sample, v); err != nil {
		return nil, err
	}

	// Recovery, on the durable workload: its own op down its own ladder.
	applied := warmWrites
	for _, op := range sample {
		if op.Write {
			applied++
		}
	}
	if w.Final != nil {
		opID++
		d2, err := r.traceRecovery(w, d, dataDir, applied, opID, tr, rep, res)
		if err != nil {
			return nil, err
		}
		d = d2
		c.close()
		c = newConn(d.base)
	}

	// The untraced single-client pass: the same number of ops from the
	// same streams, http rung only, no spans. Workloads with writes
	// continue their streams — a delete replayed twice is a no-op — the
	// others replay the very same sample.
	again := sample
	if writes > 0 {
		again = w.Sample(warmRounds+len(sample), len(sample))
	}
	plain := make([]float64, 0, len(again))
	cpu0, drv0 := cpuNow(d), cpuSelf()
	for _, op := range again {
		t0 := time.Now()
		err := c.do(op, false)
		plain = append(plain, float64(time.Since(t0)))
		res.Attempted++
		if err != nil {
			res.fail(err)
		}
	}
	cpu1, drv1 := cpuNow(d), cpuSelf()
	v["daemon.cpu_s_per_kop"] = (cpu1 - cpu0) / float64(len(again)) * 1000
	if total := (cpu1 - cpu0) + (drv1 - drv0); total > 0 {
		v["driver.cpu_frac"] = (drv1 - drv0) / total
	}

	r.aggregate(tr, setupOps, plain, v)
	res.TraceFile = filepath.Join(r.cfg.outDir, "trace-"+name+".jsonl")
	if err := tr.write(res.TraceFile); err != nil {
		return nil, err
	}
	return res, nil
}

// traceRecovery kills the daemon, restarts it on its data directory and
// waits for the first correct dump (the http rung of the recover op),
// then descends.
func (r *runner) traceRecovery(w *gen.Workload, d *daemon, dataDir string, applied, opID int,
	tr *tracer, rep *replica, res *traceResult) (*daemon, error) {
	wants, err := w.Final(applied)
	if err != nil {
		return nil, err
	}
	d.kill()
	var d2 *daemon
	sp := tr.remote(opID, "recover", noParent, "http", "exec → /healthz → dump", func() {
		if d2, err = r.start(w, dataDir); err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err = d2.waitHealthy(ctx, http.DefaultClient); err != nil {
			return
		}
		c := newConn(d2.base)
		defer c.close()
		res.Attempted++
		for i := range w.Dump {
			op := w.Dump[i]
			op.Want = wants[i]
			if derr := c.do(&op, true); derr != nil {
				res.fail(fmt.Errorf("after SIGKILL recovery (%d writes acknowledged): %w", applied, derr))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := rep.recover(opID, sp); err != nil {
		return nil, err
	}
	for i := range tr.spans[sp:] {
		s := &tr.spans[sp+i]
		switch s.Name {
		case "http":
			res.Values["recovery_s"] = float64(s.dur()) / 1e9
		case "service":
			res.Values["recovery.service_s"] = float64(s.dur()) / 1e9
		case "wal":
			res.Values["recovery.wal_s"] = float64(s.dur()) / 1e9
		}
	}
	return d2, nil
}

// explainSample re-asks up to 32 of the sampled reads with ?explain=1
// and relates the matches the daemon reports to the rows it returned.
func (r *runner) explainSample(c *conn, sample []*gen.Op, v map[string]float64) error {
	var matches, rows, asked int
	for _, op := range sample {
		if op.Write || asked == 32 {
			continue
		}
		asked++
		status, err := c.post("/query?explain=1", "application/json", op.Body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("explain: status %d, err %v: %s", status, err, clip(c.buf.Bytes()))
		}
		var reply struct {
			Explain struct {
				Rows    int `json:"rows"`
				Pattern *struct {
					Matches int `json:"matches"`
				} `json:"pattern"`
				CQ *struct {
					Matches int `json:"matches"`
				} `json:"cq"`
			} `json:"explain"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &reply); err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		rows += reply.Explain.Rows
		if p := reply.Explain.Pattern; p != nil {
			matches += p.Matches
		}
		if q := reply.Explain.CQ; q != nil {
			matches += q.Matches
		}
	}
	v["plan.probes_per_row"] = ratio(matches, rows)
	return nil
}

// aggregate turns spans into the per-layer metrics. Window ops give
// per-op medians and shares; set-up ops give per-layer totals.
func (r *runner) aggregate(tr *tracer, setupOps map[int]bool, plain []float64, v map[string]float64) {
	self := selfCosts(tr.spans)
	root := map[int]int64{} // op → http-rung duration
	kind := map[int]string{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Parent == noParent {
			root[s.OpID] = s.dur()
			kind[s.OpID] = s.Kind
		}
	}
	var (
		perOp  = map[string][][3]float64{} // layer → per-op (ns, allocs, bytes)
		total  = map[string]float64{}      // layer → window self ns
		window float64                     // Σ http rung over window ops
		traced []float64                   // http rung of window ops
	)
	for op, byLayer := range self {
		if kind[op] == "recover" {
			continue
		}
		for layer, c := range byLayer {
			if setupOps[op] {
				v["setup."+layer+"_ms"] += float64(c.ns) / 1e6
				continue
			}
			perOp[layer] = append(perOp[layer], [3]float64{float64(c.ns), float64(c.allocs), float64(c.bytes)})
			total[layer] += float64(c.ns)
		}
		if !setupOps[op] {
			window += float64(root[op])
			traced = append(traced, float64(root[op]))
		}
	}
	for _, layer := range layers {
		ops := perOp[layer]
		if len(ops) == 0 {
			continue
		}
		col := func(i int) float64 {
			vals := make([]float64, len(ops))
			for k := range ops {
				vals[k] = ops[k][i]
			}
			return median(vals)
		}
		v[layer+".self_us_per_op"] = col(0) / 1e3
		v[layer+".share"] = total[layer] / window
		if layer != "http" {
			v[layer+".allocs_per_op"] = col(1)
			v[layer+".alloc_bytes_per_op"] = col(2)
		}
	}
	sort.Float64s(plain)
	sort.Float64s(traced)
	if p := percentile(plain, 50); p > 0 {
		v["trace.overhead_frac"] = (percentile(traced, 50) - p) / p
	}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error { //nolint:errcheck // best effort
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
