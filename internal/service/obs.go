package service

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Service-level series. Query latency/rows are labeled by query class
// (see queryClass); the epoch gauges track the writer's publish
// cadence so a stalled writer is visible as growing lag.
var (
	obsQueries = obs.NewCounter("vadalog_queries_total", "", "Queries served (all classes, including failed ones).")

	qSeconds = [nClasses]*obs.Histogram{
		classPattern: obs.NewHistogram("vadalog_query_seconds", `class="pattern"`, "Query latency by class.", obs.Seconds, obs.LatencyBuckets),
		classGround:  obs.NewHistogram("vadalog_query_seconds", `class="ground"`, "Query latency by class.", obs.Seconds, obs.LatencyBuckets),
		classCQ:      obs.NewHistogram("vadalog_query_seconds", `class="cq"`, "Query latency by class.", obs.Seconds, obs.LatencyBuckets),
		classView:    obs.NewHistogram("vadalog_query_seconds", `class="view"`, "Query latency by class.", obs.Seconds, obs.LatencyBuckets),
	}
	qRows = [nClasses]*obs.Histogram{
		classPattern: obs.NewHistogram("vadalog_query_rows", `class="pattern"`, "Rows returned per query by class.", obs.Units, obs.RowsBuckets),
		classGround:  obs.NewHistogram("vadalog_query_rows", `class="ground"`, "Rows returned per query by class.", obs.Units, obs.RowsBuckets),
		classCQ:      obs.NewHistogram("vadalog_query_rows", `class="cq"`, "Rows returned per query by class.", obs.Units, obs.RowsBuckets),
		classView:    obs.NewHistogram("vadalog_query_rows", `class="view"`, "Rows returned per query by class.", obs.Units, obs.RowsBuckets),
	}

	obsEpochSeq   = obs.NewGauge("vadalog_epoch_seq", "", "Sequence number of the last published epoch.")
	obsViewHits   = obs.NewCounter("vadalog_view_cache_hits_total", "", "Rule-query view materializations served from the overlay cache.")
	obsViewMisses = obs.NewCounter("vadalog_view_cache_misses_total", "", "Rule-query view materializations that had to build the full overlay.")
	obsViewDemand = obs.NewCounter("vadalog_view_demand_total", "", "Rule-query views evaluated on demand (magic-set rewriting of a bound goal) instead of building the full overlay.")

	// lastPublishNano is the wall time of the last epoch publish across
	// all services in the process (the daemon runs one), read by the
	// epoch-lag gauge at scrape time.
	lastPublishNano atomic.Int64
)

func init() {
	obs.NewGaugeFunc("vadalog_epoch_lag_seconds", "", "Seconds since the last epoch publish (0 before the first).", func() float64 {
		ns := lastPublishNano.Load()
		if ns == 0 {
			return 0
		}
		return time.Since(time.Unix(0, ns)).Seconds()
	})
}
