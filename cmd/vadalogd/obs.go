package main

import (
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Daemon-level series: request latency per endpoint plus the two
// saturation gauges (in-flight requests, admission queue depth). Paths
// are a closed label set — anything outside the known endpoints lands in
// path="other", so a scanner probing random URLs cannot mint series.
var (
	httpSeconds = map[string]*obs.Histogram{}

	obsInflight = obs.NewGauge("vadalog_http_inflight", "", "Requests currently being served.")

	// obsQueryBytes is the production-side twin of the benchmark ladder's
	// http.bytes_per_op: divide by the /query request count.
	obsQueryBytes = obs.NewCounter("vadalog_http_response_bytes_total", `path="/query"`,
		"Response body bytes written, by endpoint.")
)

func init() {
	for _, p := range []string{"/load", "/load/csv", "/query", "/insert", "/delete", "/stats", "/healthz", "/metrics", "other"} {
		httpSeconds[p] = obs.NewHistogram("vadalog_http_request_seconds", fmt.Sprintf("path=%q", p),
			"Request latency by endpoint.", obs.Seconds, obs.LatencyBuckets)
	}
}

// withObs times every request into the per-endpoint histogram and tracks
// the in-flight gauge. No ResponseWriter wrapping: /query streaming
// depends on the http.Flusher identity reaching the sink untouched.
func withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !obs.On() {
			next.ServeHTTP(w, r)
			return
		}
		h, ok := httpSeconds[r.URL.Path]
		if !ok {
			h = httpSeconds["other"]
		}
		obsInflight.Add(1)
		t0 := time.Now()
		defer func() {
			h.Observe(int64(time.Since(t0)))
			obsInflight.Add(-1)
		}()
		next.ServeHTTP(w, r)
	})
}

// registerQueueGauge exposes one admission gate's queue depth. Last
// registration wins (GaugeFunc semantics) — the daemon builds one
// handler; tests building several scrape the most recent.
func registerQueueGauge(adm *admission) {
	obs.NewGaugeFunc("vadalog_http_queue_depth", "", "Queries waiting for an admission slot.", func() float64 {
		if adm == nil {
			return 0
		}
		return float64(adm.waiting.Load())
	})
}

// registerServiceSeries exposes the served Service's own numbers, read
// at scrape time: the current epoch's bytes by structure
// (storage.DB.Footprint), the time since its publish, and the counts
// /stats reports, each rendered from the one place that keeps it. The
// scrape hook takes one service.Scrape per scrape — every number of one
// epoch — and every series reads it, so a scrape's series agree with each
// other. Last registration wins, as for the queue gauge.
func registerServiceSeries(svc *service.Service) {
	var sc service.Scrape
	obs.SetScrapeHook(func() { sc = svc.Scrape() })
	for _, structure := range []string{"cols", "global", "dedup", "postings", "liveness"} {
		obs.NewGaugeFunc("vadalog_storage_bytes", fmt.Sprintf("structure=%q", structure),
			"Bytes of the current epoch's instance, by structure (storage.DB.Footprint).", func() float64 {
				return float64(sc.Footprint[structure])
			})
	}
	obs.NewGaugeFunc("vadalog_epoch_seq", "", "Sequence number of the last published epoch.", func() float64 {
		return float64(sc.Stats.Epoch)
	})
	obs.NewGaugeFunc("vadalog_epoch_lag_seconds", "", "Seconds since the served epoch's publish (0 before the first).", func() float64 {
		if sc.Published.IsZero() {
			return 0
		}
		return time.Since(sc.Published).Seconds()
	})
	durability := func(st service.Stats) service.DurabilityStats {
		if st.Durability == nil {
			return service.DurabilityStats{}
		}
		return *st.Durability
	}
	for _, c := range []struct {
		name, help string
		read       func(service.Stats) uint64
	}{
		{"vadalog_queries_total", "Queries served (all classes, including failed ones).", func(st service.Stats) uint64 { return st.Queries }},
		{"vadalog_view_cache_hits_total", "Rule-query view materializations served from the overlay cache.", func(st service.Stats) uint64 { return st.ViewHits }},
		{"vadalog_view_cache_misses_total", "Rule-query view materializations that had to build the full overlay.", func(st service.Stats) uint64 { return st.ViewBuilds - st.ViewDemand }},
		{"vadalog_view_demand_total", "Rule-query views evaluated on demand (magic-set rewriting of a bound goal) instead of building the full overlay.", func(st service.Stats) uint64 { return st.ViewDemand }},
		{"vadalog_view_unfold_total", "Rule-query views answered by their goal's unfolding over the snapshot, with no overlay.", func(st service.Stats) uint64 { return st.ViewUnfold }},
		{"vadalog_incremental_overdeleted_total", "Facts the DRed overestimate deleted.", func(st service.Stats) uint64 { return uint64(st.Engine.Overdeleted) }},
		{"vadalog_incremental_rederived_total", "Overdeleted facts DRed put back.", func(st service.Stats) uint64 { return uint64(st.Engine.Rederived) }},
		{"vadalog_incremental_kept_total", "Facts the DRed overestimate reached but proved before deleting them.", func(st service.Stats) uint64 { return uint64(st.Engine.Kept) }},
		{"vadalog_storage_compaction_reclaimed_rows_total", "Tombstoned rows physically reclaimed by compaction.", func(st service.Stats) uint64 { return uint64(st.Engine.Compacted) }},
		{"vadalog_wal_records_total", "WAL records appended.", func(st service.Stats) uint64 { return durability(st).Records }},
		{"vadalog_wal_bytes_total", "WAL bytes appended (framed).", func(st service.Stats) uint64 { return durability(st).Bytes }},
	} {
		obs.NewCounterFunc(c.name, "", c.help, func() uint64 { return c.read(sc.Stats) })
	}
}

// Request IDs: a process-unique prefix (startup nanos) plus a counter —
// unique without randomness, cheap, and sortable within one process
// lifetime.
var (
	reqIDPrefix = uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano())
	reqIDCtr    atomic.Uint64
)

func nextRequestID() string {
	return fmt.Sprintf("%012x-%x", reqIDPrefix&0xFFFFFFFFFFFF, reqIDCtr.Add(1))
}

// requestIDHeader is set on EVERY response before the handler runs, so
// error writers (failErr) and the query path read the ID back from the
// response headers instead of threading it through each signature.
const requestIDHeader = "X-Request-ID"

// withRequestID assigns each request an ID, honoring one supplied by the
// client (proxies propagating their own correlation IDs).
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}
