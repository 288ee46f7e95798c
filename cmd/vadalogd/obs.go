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

// registerStorageGauges exposes the served instance's bytes by structure,
// read from the current epoch at scrape time. Last registration wins, as
// for the queue gauge.
func registerStorageGauges(svc *service.Service) {
	for _, structure := range []string{"cols", "global", "dedup", "postings", "liveness"} {
		obs.NewGaugeFunc("vadalog_storage_bytes", fmt.Sprintf("structure=%q", structure),
			"Bytes of the current epoch's instance, by structure (storage.DB.Footprint).", func() float64 {
				return float64(svc.Footprint()[structure])
			})
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
