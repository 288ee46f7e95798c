package service

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Service-level series. Query latency/rows are labeled by query class
// (see queryClass); the lag gauge tracks the writer's publish cadence
// so a stalled writer is visible as growing lag. The service's counts
// (queries, view builds, the epoch number) live in Service and Stats
// only; a daemon renders them at scrape time for the service it serves.
var (
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
