package service

import "repro/internal/obs"

// Service-level series. Query latency/rows are labeled by query class
// (see queryClass). The service's counts (queries, view builds, the epoch
// number) and its epoch's publish time live in Service only; a daemon
// renders them at scrape time for the service it serves (Service.Scrape).
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
)
