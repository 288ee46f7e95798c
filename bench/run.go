package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/bench/gen"
)

// config is what a run is measured under; result.json records it.
type config struct {
	daemonBin string
	outDir    string
	size      gen.Size
	seed      int64
	window    time.Duration
	warmup    time.Duration
}

// Set-up is repeated so setup_s is a median: at least minSetups times,
// then on until setupBudget is spent or maxSetups is reached, so cheap
// set-ups — tens of milliseconds, mostly process start, the noisiest —
// get the most samples.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// instances is how many daemon instances share a run's window.
const instances = 3

// latency summarizes one op class of one run. Values are milliseconds.
type latency struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail_ms"`
}

// summarize applies the percentile rule: the median, p95, and the
// highest percentile with at least ten samples beyond it.
func summarize(ms []float64) *latency {
	if len(ms) == 0 {
		return nil
	}
	sort.Float64s(ms)
	l := &latency{N: len(ms), P50: percentile(ms, 50), P95: percentile(ms, 95)}
	if p, ok := tailPercentile(len(ms)); ok {
		l.TailP, l.Tail = p, percentile(ms, p)
	}
	return l
}

// runResult is one workload's untraced measurement. Metrics that do not
// apply to a workload are nil, never 0.
type runResult struct {
	Workload      string   `json:"workload"`
	Attempted     int      `json:"ops_attempted"`
	Failed        int      `json:"ops_failed"`
	Failures      []string `json:"failures,omitempty"`
	SetupS        float64  `json:"setup_s"`
	SetupSamples  int      `json:"setup_samples"`
	ThroughputRPS float64  `json:"throughput_rps"`
	// Primary is the latency of the workload's primary op class
	// (gen.Workload.Primary): reads on the read workloads, loads on
	// iwarded.materialize, the paced deletes on tc.churn-durable.
	Primary *latency `json:"primary"`
	Read    *latency `json:"read,omitempty"`
	Write   *latency `json:"write,omitempty"`
	// Kinds breaks the classes down by op kind: a class whose kinds sit
	// in different cost modes has a median that means neither.
	Kinds     map[string]*latency `json:"kinds"`
	RecoveryS *float64            `json:"recovery_s"`
	PeakRSSMB float64             `json:"peak_rss_mb"`
	// SetupPeakRSSMB is the high-water mark when the window opens: set-up
	// and warm-up's peak, which peak_rss_mb (restarted there) leaves out.
	SetupPeakRSSMB float64 `json:"setup_peak_rss_mb"`
	// MaxLateMS is how far behind schedule the paced writer ever sent.
	MaxLateMS      *float64 `json:"driver.max_late_ms"`
	DaemonCPUPerOp float64  `json:"daemon.cpu_s_per_kop"`
	DriverCPUFrac  float64  `json:"driver.cpu_frac"`
	Facts          int      `json:"facts"`
	GenS           float64  `json:"gen_s"`
	// Clients and DaemonFlags record how the workload was driven.
	Clients     int      `json:"clients"`
	DaemonFlags []string `json:"daemon_flags"`
}

func (r *runResult) fail(err error) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// runner owns everything a run may leave behind: daemons and temporary
// directories. close releases them on every exit path.
type runner struct {
	cfg     config
	mu      sync.Mutex
	daemons []*daemon
	tmpDirs []string
}

func (r *runner) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.daemons {
		d.kill()
	}
	for _, dir := range r.tmpDirs {
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	}
	r.daemons, r.tmpDirs = nil, nil
}

func (r *runner) start(w *gen.Workload, dataDir string) (*daemon, error) {
	args := append([]string(nil), w.DaemonFlags...)
	if w.Durable {
		args = append(args, "-data-dir", dataDir)
	}
	d, err := startDaemon(r.cfg.daemonBin, args, filepath.Join(r.cfg.outDir, "daemon-"+w.Name+".log"))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.daemons = append(r.daemons, d)
	r.mu.Unlock()
	return d, nil
}

// tempDir makes a scratch directory under the output directory — the
// benchmark writes nowhere else.
func (r *runner) tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp(r.cfg.outDir, pattern)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.tmpDirs = append(r.tmpDirs, dir)
	r.mu.Unlock()
	return dir, nil
}

// setUp is what setup_s times: daemon exec → /healthz ok → POST /load
// (rules) → POST /load/csv for every extensional relation → first
// correct query. The daemon is returned loaded.
func (r *runner) setUp(w *gen.Workload) (*daemon, string, time.Duration, error) {
	dataDir := ""
	if w.Durable {
		var err error
		if dataDir, err = r.tempDir("data-*"); err != nil {
			return nil, "", 0, err
		}
	}
	t0 := time.Now()
	d, err := r.start(w, dataDir)
	if err != nil {
		return nil, "", 0, err
	}
	c := newConn(d.base)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.waitHealthy(ctx, c.hc); err != nil {
		return nil, "", 0, err
	}
	if err := load(c, w); err != nil {
		return nil, "", 0, err
	}
	if err := c.do(&w.Probe, true); err != nil {
		return nil, "", 0, fmt.Errorf("set-up probe: %w", err)
	}
	dur := time.Since(t0)
	// Outside the timed part: the materialization must be the oracle's,
	// fact for fact, before a single window op is sent against it.
	if st, err := d.stats(); err != nil || st.Facts != w.Facts {
		return nil, "", 0, fmt.Errorf("set-up: daemon materialized %d facts, oracle has %d (%v)", st.Facts, w.Facts, err)
	}
	return d, dataDir, dur, nil
}

// load sends the rules and every relation.
func load(c *conn, w *gen.Workload) error {
	body, err := json.Marshal(map[string]string{"program": w.Rules})
	if err != nil {
		return err
	}
	if status, err := c.post("/load", "application/json", body); err != nil || status != http.StatusOK {
		return fmt.Errorf("set-up /load: status %d, err %v: %s", status, err, clip(c.buf.Bytes()))
	}
	for _, rel := range w.Relations {
		status, err := c.post("/load/csv?pred="+rel.Pred, "text/csv", rel.CSV)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("set-up /load/csv %s: status %d, err %v: %s", rel.Pred, status, err, clip(c.buf.Bytes()))
		}
		var reply struct {
			Staged int `json:"staged"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &reply); err != nil || reply.Staged != rel.Rows {
			return fmt.Errorf("set-up /load/csv %s: staged %d of %d rows (%v)", rel.Pred, reply.Staged, rel.Rows, err)
		}
	}
	return nil
}

// sample is one completed operation of the timed window.
type sample struct {
	op  *gen.Op
	ms  float64
	err error
}

// classes are the latencies (ms) of a set of correct samples, by class.
type classes struct{ read, write, primary []float64 }

func classify(samples []sample, primary func(*gen.Op) bool) classes {
	var c classes
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if primary(s.op) {
			c.primary = append(c.primary, s.ms)
		}
		if s.op.Write {
			c.write = append(c.write, s.ms)
		} else {
			c.read = append(c.read, s.ms)
		}
	}
	return c
}

// segment is what one daemon instance contributed to a run.
type segment struct {
	samples        []sample
	lat            classes
	throughput     float64
	peakRSSMB      float64
	setupPeakMB    float64
	recoveryS      float64
	maxLate        time.Duration
	daemonCPU, cpu float64 // daemon and total CPU seconds over warm-up and window
}

// run measures one workload untraced. The window is split evenly over
// `instances` daemon instances — each freshly set up, warmed up, and
// on the durable workload killed and recovered — and every end-to-end
// number is the median over the instances: one process that happened
// to get an unlucky heap layout, hash seed or noisy second shifts one
// instance's numbers, not the run's. Set-ups beyond the instances' own
// follow until setup_s has its samples.
func (r *runner) run(name string) (*runResult, error) {
	defer r.close()
	res := &runResult{Workload: name}
	t0 := time.Now()
	w, err := gen.New(name, r.cfg.seed, r.cfg.size)
	if err != nil {
		return nil, err
	}
	res.GenS, res.Facts = time.Since(t0).Seconds(), w.Facts
	res.Clients, res.DaemonFlags = len(w.Clients), w.DaemonFlags

	var (
		setups []float64
		spent  time.Duration
		segs   []*segment
	)
	for len(segs) < instances || len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		d, dataDir, dur, err := r.setUp(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
		spent += dur
		if len(segs) < instances {
			seg, err := r.measure(w, d, dataDir, res)
			if err != nil {
				return nil, err
			}
			segs = append(segs, seg)
		}
		r.close()
	}
	res.SetupS, res.SetupSamples = median(setups), len(setups)

	over := func(f func(*segment) float64) float64 {
		v := make([]float64, len(segs))
		for i, s := range segs {
			v[i] = f(s)
		}
		return median(v)
	}
	// A class's p50 and p95 are medians of the instances' own; the pooled
	// samples carry the count and the tail percentile.
	class := func(pick func(*classes) []float64) *latency {
		var all, p50, p95 []float64
		for _, seg := range segs {
			if l := summarize(pick(&seg.lat)); l != nil {
				p50, p95 = append(p50, l.P50), append(p95, l.P95)
				all = append(all, pick(&seg.lat)...)
			}
		}
		l := summarize(all)
		if l != nil {
			l.P50, l.P95 = median(p50), median(p95)
		}
		return l
	}
	res.Read = class(func(c *classes) []float64 { return c.read })
	res.Write = class(func(c *classes) []float64 { return c.write })
	if res.Primary = class(func(c *classes) []float64 { return c.primary }); res.Primary == nil {
		return nil, fmt.Errorf("%s: no correct operation of the primary class completed: %v", name, res.Failures)
	}
	kinds := map[string][]float64{}
	var daemonCPU, cpu float64
	for _, seg := range segs {
		for _, s := range seg.samples {
			res.Attempted++
			if s.err != nil {
				res.fail(s.err)
				continue
			}
			kinds[s.op.Kind] = append(kinds[s.op.Kind], s.ms)
		}
		daemonCPU += seg.daemonCPU
		cpu += seg.cpu
	}
	res.Kinds = map[string]*latency{}
	for k, v := range kinds {
		res.Kinds[k] = summarize(v)
	}
	res.ThroughputRPS = over(func(s *segment) float64 { return s.throughput })
	res.PeakRSSMB = over(func(s *segment) float64 { return s.peakRSSMB })
	res.SetupPeakRSSMB = over(func(s *segment) float64 { return s.setupPeakMB })
	// CPU is charged over warm-up and window (the clients never pause
	// between them), so it is scaled to the window's share of both.
	if ops := res.Attempted - res.Failed; ops > 0 && cpu > 0 {
		scale := r.cfg.window.Seconds() / (r.cfg.window + instances*r.cfg.warmup).Seconds()
		res.DaemonCPUPerOp = daemonCPU * scale / float64(ops) * 1000
		res.DriverCPUFrac = (cpu - daemonCPU) / cpu
	}
	if w.Final != nil {
		late := ms(time.Duration(over(func(s *segment) float64 { return float64(s.maxLate) })))
		rec := over(func(s *segment) float64 { return s.recoveryS })
		res.MaxLateMS, res.RecoveryS = &late, &rec
	}
	return res, nil
}

// measure runs warm-up and one instance's share of the window against a
// loaded daemon: one goroutine and one connection per client. Every
// client keeps going through warm-up and window alike; only completions
// inside the window are recorded.
func (r *runner) measure(w *gen.Workload, d *daemon, dataDir string, res *runResult) (*segment, error) {
	var (
		window  = r.cfg.window / instances
		begin   = time.Now()
		from    = begin.Add(r.cfg.warmup)
		until   = from.Add(window)
		wg      sync.WaitGroup
		mu      sync.Mutex
		seg     = &segment{}
		applied int // paced-writer ops acknowledged, warm-up included
	)
	record := func(done time.Time, s sample) {
		if done.Before(from) || done.After(until) {
			return
		}
		mu.Lock()
		seg.samples = append(seg.samples, s)
		mu.Unlock()
	}
	cpu0, drv0 := cpuNow(d), cpuSelf()
	// The resident-set high-water mark so far is set-up's (the bulk load's
	// garbage); restarting it when the window opens makes peak_rss_mb the
	// peak of serving, which set-up's GC timing cannot move.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(from))
		if hwm, err := d.peakRSS(); err == nil {
			seg.setupPeakMB = float64(hwm) / (1 << 20)
		}
		d.resetPeakRSS()
	}()
	for i := range w.Clients {
		cl := &w.Clients[i]
		c := newConn(d.base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			if cl.Rate == 0 {
				for k := 0; ; k++ {
					start := time.Now()
					if !start.Before(until) {
						return
					}
					op := &cl.Ops[k%len(cl.Ops)]
					err := c.send(op)
					done := time.Now()
					if err == nil {
						err = c.check(op, false)
					}
					record(done, sample{op, ms(done.Sub(start)), err})
				}
			}
			var sendErr error
			openLoop(wallClock{}, begin, until, cl.Rate, len(cl.Ops), func(k int) {
				sendErr = c.send(&cl.Ops[k])
			}, func(p paced) {
				op, err := &cl.Ops[p.k], sendErr
				if err == nil {
					err = c.check(op, false)
				}
				record(p.done, sample{op, ms(p.latency()), err})
				mu.Lock()
				if err == nil {
					applied = p.k + 1
				}
				if !p.due.Before(from) {
					seg.maxLate = max(seg.maxLate, p.late())
				}
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	cpu1, drv1 := cpuNow(d), cpuSelf()
	seg.daemonCPU, seg.cpu = cpu1-cpu0, (cpu1-cpu0)+(drv1-drv0)

	seg.lat = classify(seg.samples, w.Primary)
	seg.throughput = float64(len(seg.lat.read)+len(seg.lat.write)) / window.Seconds()
	hwm, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	seg.peakRSSMB = float64(hwm) / (1 << 20)
	if w.Final != nil {
		if seg.recoveryS, err = r.recover(w, d, dataDir, applied, res); err != nil {
			return nil, err
		}
	}
	return seg, nil
}

// recover is the end of a durable run: after quiescence the dump of
// every intensional predicate must equal the oracle's materialization
// of the final base; then SIGKILL, re-exec on the same data directory,
// and the same dump must come back — every acknowledged write visible.
// recovery_s runs from the exec to that first correct answer.
func (r *runner) recover(w *gen.Workload, d *daemon, dataDir string, applied int, res *runResult) (float64, error) {
	wants, err := w.Final(applied)
	if err != nil {
		return 0, err
	}
	dump := func(d *daemon) error {
		c := newConn(d.base)
		defer c.close()
		for i := range w.Dump {
			op := w.Dump[i]
			op.Want = wants[i]
			if err := c.do(&op, true); err != nil {
				return err
			}
		}
		return nil
	}
	res.Attempted++
	if err := dump(d); err != nil {
		res.fail(fmt.Errorf("after quiescence (%d writes applied): %w", applied, err))
	}
	d.kill()
	t0 := time.Now()
	d2, err := r.start(w, dataDir)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d2.waitHealthy(ctx, http.DefaultClient); err != nil {
		return 0, err
	}
	res.Attempted++
	if err := dump(d2); err != nil {
		res.fail(fmt.Errorf("after SIGKILL recovery (%d writes acknowledged): %w", applied, err))
	}
	return time.Since(t0).Seconds(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuNow / cpuSelf read CPU seconds used so far; an unreadable /proc
// yields 0 and with it a meaningless but harmless layer metric.
func cpuNow(d *daemon) float64 {
	s, _ := cpuSeconds(d.cmd.Process.Pid) //nolint:errcheck
	return s
}

func cpuSelf() float64 {
	s, _ := cpuSeconds(os.Getpid()) //nolint:errcheck
	return s
}

// stats fetches the daemon's /stats counters.
type daemonStats struct {
	Epoch      uint64 `json:"epoch"`
	Facts      int    `json:"facts"`
	Queries    uint64 `json:"queries"`
	ViewBuilds uint64 `json:"view_builds"`
	Engine     struct {
		Inserted, Deleted, DerivedNew, Overdeleted, Rederived, Compacted int
	} `json:"engine"`
	Durability *struct {
		Records     uint64 `json:"wal_records"`
		Bytes       uint64 `json:"wal_bytes"`
		Syncs       uint64 `json:"wal_syncs"`
		Checkpoints uint64 `json:"checkpoints"`
	} `json:"durability"`
}

func (d *daemon) stats() (*daemonStats, error) {
	resp, err := http.Get(d.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("/stats: " + resp.Status)
	}
	var st daemonStats
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}
