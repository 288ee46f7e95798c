// Package obs is a dependency-free metrics layer for the vadalog stack.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Collection is globally gated by a single
//     atomic bool (On / SetEnabled). Instrumentation sites use the
//     pattern `t0 := obs.Now()` / `hist.ObserveSince(t0)` — when the
//     gate is off, Now returns the zero Time and ObserveSince is a
//     branch, so the hot path pays one atomic load and no clock reads.
//  2. Allocation-free on the record path. Counters and gauges are
//     single atomics; histograms are fixed-bound int64 bucket arrays
//     observed with a short linear scan. No maps, no interfaces, no
//     boxing per observation.
//  3. No dependencies. Exposition (expose.go) renders the Prometheus
//     text format (version 0.0.4) directly.
//
// Metrics are registered once at package init of the instrumented
// package via the package-level constructors (NewCounter, NewGauge,
// NewGaugeFunc, NewHistogram) against the Default registry. A count
// that a component already keeps for itself is not counted again here:
// NewCounterFunc renders it at scrape time.
// Registration is idempotent: asking for an existing (name, labels)
// pair returns the same metric, so tests that build many services per
// process share series instead of panicking.
//
// Naming scheme: every series is prefixed `vadalog_`; latency
// histograms are `*_seconds` (observed in nanoseconds, scaled at
// exposition), sizes are `*_bytes` or `*_rows`, monotone counts are
// `*_total`. Labels are static per series (a constant string like
// `class="pattern"`), never computed per observation.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates all collection. Off by default: library users (tests,
// benchmarks, embedding programs) run the zero-overhead path unless
// they opt in; vadalogd enables it at startup.
var enabled atomic.Bool

// On reports whether metric collection is enabled.
func On() bool { return enabled.Load() }

// SetEnabled turns metric collection on or off process-wide and
// returns the previous state.
func SetEnabled(v bool) bool { return enabled.Swap(v) }

// Now returns time.Now() when collection is enabled and the zero Time
// otherwise. Pair with Histogram.ObserveSince so disabled runs skip
// the clock read entirely.
func Now() time.Time {
	if enabled.Load() {
		return time.Now()
	}
	return time.Time{}
}

// Scale factors for histogram exposition. Observations are recorded
// as int64 in the metric's native unit; the scale converts to the
// exposed unit only when rendering.
const (
	// Seconds scales nanosecond observations to seconds.
	Seconds = 1e-9
	// Units exposes observations as recorded (rows, bytes, ...).
	Units = 1.0
)

// Shared bucket bounds. Bounds are in the recorded (pre-scale) unit
// and must be strictly increasing. These slices are read-only; they
// are shared across every histogram constructed with them.
var (
	// LatencyBuckets spans 50µs..10s in nanoseconds.
	LatencyBuckets = []int64{
		50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000,
		25_000_000, 50_000_000, 100_000_000, 250_000_000, 500_000_000,
		1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
	}
	// RowsBuckets spans 1..2M rows, ×8 per step.
	RowsBuckets = []int64{1, 8, 64, 512, 4096, 32768, 262144, 2097152}
	// BytesBuckets spans 1KiB..2GiB, ×8 per step.
	BytesBuckets = []int64{1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22, 1 << 25, 1 << 28, 1 << 31}
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations.
// counts[i] holds observations v ≤ bounds[i] (exclusive of earlier
// buckets); counts[len(bounds)] is the +Inf bucket. Buckets are
// rendered cumulatively at exposition.
type Histogram struct {
	bounds []int64
	scale  float64
	counts []atomic.Uint64
	sum    atomic.Int64
}

// Observe records one value in the metric's native unit.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since t0 in nanoseconds, or
// nothing if t0 is the zero Time (see Now).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	h.Observe(int64(time.Since(t0)))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

type metricKind uint8

const (
	counterKind metricKind = iota
	counterFuncKind
	gaugeKind
	gaugeFuncKind
	histogramKind
)

// series is one (name, labels) time series inside a family.
type series struct {
	labels string // rendered label pairs, e.g. `class="pattern"`, or ""
	c      *Counter
	cf     func() uint64
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

func (f *family) find(labels string) *series {
	for _, s := range f.series {
		if s.labels == labels {
			return s
		}
	}
	return nil
}

// Registry holds metric families in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	// scrape runs once per WritePrometheus, under mu, before any series
	// renders (SetScrapeHook).
	scrape func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Default is the process-wide registry served at /metrics.
var Default = NewRegistry()

func (r *Registry) family(name, help string, kind metricKind) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " re-registered with a different type")
	}
	return f
}

// Counter returns the counter series (name, labels), creating it if
// needed. labels is a rendered Prometheus label list without braces
// (e.g. `reason="timeout"`) or "" for none.
func (r *Registry) Counter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, counterKind)
	if s := f.find(labels); s != nil {
		return s.c
	}
	s := &series{labels: labels, c: &Counter{}}
	f.series = append(f.series, s)
	return s.c
}

// Gauge returns the gauge series (name, labels), creating it if needed.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, gaugeKind)
	if s := f.find(labels); s != nil {
		return s.g
	}
	s := &series{labels: labels, g: &Gauge{}}
	f.series = append(f.series, s)
	return s.g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. Re-registering the same (name, labels) replaces fn (last one
// wins), so a freshly opened service owns the series.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, gaugeFuncKind)
	if s := f.find(labels); s != nil {
		s.gf = fn
		return
	}
	f.series = append(f.series, &series{labels: labels, gf: fn})
}

// CounterFunc is the counter twin of GaugeFunc: fn reads, at scrape
// time, a monotone count kept elsewhere, and the series is exposed with
// counter type. Re-registering the same (name, labels) replaces fn.
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, counterFuncKind)
	if s := f.find(labels); s != nil {
		s.cf = fn
		return
	}
	f.series = append(f.series, &series{labels: labels, cf: fn})
}

// SetScrapeHook sets the function WritePrometheus runs once, under the
// registry lock, before it renders any series: scrape-time series that
// read one snapshot taken there agree with each other. Setting it again
// replaces it (last one wins, as for GaugeFunc).
func (r *Registry) SetScrapeHook(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scrape = fn
}

// Histogram returns the histogram series (name, labels), creating it
// with the given bucket bounds and exposition scale if needed. bounds
// must be strictly increasing and is retained without copying.
func (r *Registry) Histogram(name, labels, help string, scale float64, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, histogramKind)
	if s := f.find(labels); s != nil {
		return s.h
	}
	h := &Histogram{bounds: bounds, scale: scale, counts: make([]atomic.Uint64, len(bounds)+1)}
	f.series = append(f.series, &series{labels: labels, h: h})
	return h
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, labels, help string) *Counter {
	return Default.Counter(name, labels, help)
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, labels, help string) *Gauge {
	return Default.Gauge(name, labels, help)
}

// NewGaugeFunc registers a scrape-time gauge in the Default registry.
func NewGaugeFunc(name, labels, help string, fn func() float64) {
	Default.GaugeFunc(name, labels, help, fn)
}

// NewCounterFunc registers a scrape-time counter in the Default registry.
func NewCounterFunc(name, labels, help string, fn func() uint64) {
	Default.CounterFunc(name, labels, help, fn)
}

// SetScrapeHook sets the Default registry's scrape hook.
func SetScrapeHook(fn func()) { Default.SetScrapeHook(fn) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, labels, help string, scale float64, bounds []int64) *Histogram {
	return Default.Histogram(name, labels, help, scale, bounds)
}
