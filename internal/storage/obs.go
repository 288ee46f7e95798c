package storage

import "repro/internal/obs"

// Storage maintenance series: bulk merge folds (CSV loads) and tombstone
// compaction. Observed per call, never per row. Reclaimed rows are
// counted by the caller (incremental.Stats.Compacted), not here.
var (
	obsMergeSec   = obs.NewHistogram("vadalog_storage_merge_seconds", "", "MergeBuffers fold duration.", obs.Seconds, obs.LatencyBuckets)
	obsMergeRows  = obs.NewCounter("vadalog_storage_merge_rows_total", "", "Rows accepted by MergeBuffers folds.")
	obsCompactSec = obs.NewHistogram("vadalog_storage_compaction_seconds", "", "Compact/CompactAll duration (when any work ran).", obs.Seconds, obs.LatencyBuckets)
	// Late builds cost a reader the whole position once per view; a
	// steadily rising count means readers keep probing positions the
	// writer does not carry (each build also asks it to).
	obsLateBuilds = obs.NewCounter("vadalog_storage_index_late_builds_total", "", "Posting positions built by a reader on a frozen view.")
	// What sharing costs the write path: bytes a writer copied because a
	// view or overlay holds the original (a tail or bitmap per epoch, a
	// base per fold, the dedup array of an overlay relation that
	// appends), and how often a tail was folded. Counted per copy, never
	// per row.
	obsCowBytes = obs.NewCounter("vadalog_storage_cow_bytes_total", "", "Bytes copied by writers on behalf of snapshot, overlay and clone sharing.")
	obsFolds    = obs.NewCounter("vadalog_storage_index_folds_total", "", "Posting tails folded into a new base.")
)
