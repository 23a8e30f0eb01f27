package servehttp

// metrics.go renders GET /metrics: the Prometheus text exposition format
// (version 0.0.4) of the same server-wide view GET /stats serves as JSON —
// serve.Stats with the front's rate-limit counters folded in, and the
// wal.Stats of a server that logs. Every field of those structs is exactly
// one metric, named for what it counts with its unit in the name; README
// "Metrics" lists them, and TestMetricsTableMatchesEmitted holds the list
// to what is emitted.

import (
	"net/http"
	"strconv"

	"repro/internal/serve"
)

// metric is one exposed Stats field.
type metric struct {
	name string
	// counter or gauge: a counter only rises while the process lives.
	kind  string
	help  string
	value func(*serve.Stats) float64
	// wal marks a metric read from Stats.WAL, emitted only when it is set.
	wal bool
}

var metrics = []metric{
	{name: "nurd_jobs", kind: "gauge", help: "Registered jobs, finished or not; a drop removes one.",
		value: func(s *serve.Stats) float64 { return float64(s.Jobs) }},
	{name: "nurd_active_jobs", kind: "gauge", help: "Registered jobs whose stream has not closed.",
		value: func(s *serve.Stats) float64 { return float64(s.ActiveJobs) }},
	{name: "nurd_events_total", kind: "counter", help: "Events ingested.",
		value: func(s *serve.Stats) float64 { return float64(s.Events) }},
	{name: "nurd_dropped_events_total", kind: "counter", help: "Events ignored as benign: late observations of terminated tasks.",
		value: func(s *serve.Stats) float64 { return float64(s.DroppedEvents) }},
	{name: "nurd_terminations_total", kind: "counter", help: "Tasks terminated as predicted stragglers.",
		value: func(s *serve.Stats) float64 { return float64(s.Terminations) }},
	{name: "nurd_query_verdicts_total", kind: "counter", help: "Task verdicts served by GET /query.",
		value: func(s *serve.Stats) float64 { return float64(s.Queries) }},
	{name: "nurd_refits_total", kind: "counter", help: "Predictor refits applied.",
		value: func(s *serve.Stats) float64 { return float64(s.Refits) }},
	{name: "nurd_refit_seconds_total", kind: "counter", help: "Wall time of the applied refits, on the refit workers.",
		value: func(s *serve.Stats) float64 { return s.RefitTotal.Seconds() }},
	{name: "nurd_refit_max_seconds", kind: "gauge", help: "Longest applied refit.",
		value: func(s *serve.Stats) float64 { return s.RefitMax.Seconds() }},
	{name: "nurd_refit_queue_views", kind: "gauge", help: "Checkpoint views waiting for a refit worker.",
		value: func(s *serve.Stats) float64 { return float64(s.RefitQueue) }},
	{name: "nurd_refit_inflight_fits", kind: "gauge", help: "Fits executing on the refit workers.",
		value: func(s *serve.Stats) float64 { return float64(s.RefitInflight) }},
	{name: "nurd_refit_lag_views", kind: "gauge", help: "Checkpoint views captured but not yet applied, over all jobs.",
		value: func(s *serve.Stats) float64 { return float64(s.RefitLag) }},
	{name: "nurd_warm_fits_total", kind: "counter", help: "Refits that extended the previous ensemble.",
		value: func(s *serve.Stats) float64 { return float64(s.WarmFits) }},
	{name: "nurd_scratch_fits_total", kind: "counter", help: "Refits fitted from scratch.",
		value: func(s *serve.Stats) float64 { return float64(s.ScratchFits) }},
	{name: "nurd_shed_heartbeats_total", kind: "counter", help: "Heartbeats shed at saturated ingest queues.",
		value: func(s *serve.Stats) float64 { return float64(s.Overload.ShedHeartbeats) }},
	{name: "nurd_ingest_waits_total", kind: "counter", help: "Non-sheddable events that waited for an ingest-queue slot.",
		value: func(s *serve.Stats) float64 { return float64(s.Overload.IngestWaits) }},
	{name: "nurd_ingest_queue_slots", kind: "gauge", help: "Ingest-queue slots held, over all shards.",
		value: func(s *serve.Stats) float64 { return float64(s.Overload.IngestQueueDepth) }},
	{name: "nurd_ingest_queue_bound_slots", kind: "gauge", help: "Ingest-queue slots per shard.",
		value: func(s *serve.Stats) float64 { return float64(s.Overload.IngestQueueBound) }},
	{name: "nurd_rate_limited_requests_total", kind: "counter", help: "POST /ingest requests refused whole by a client's token bucket.",
		value: func(s *serve.Stats) float64 { return float64(s.Overload.RateLimited) }},
	{name: "nurd_rate_shed_heartbeats_total", kind: "counter", help: "Heartbeats shed mid-body at an empty token bucket.",
		value: func(s *serve.Stats) float64 { return float64(s.Overload.RateShedHeartbeats) }},
	{name: "nurd_wal_segments", kind: "gauge", help: "Live log segment files.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.Segments) }},
	{name: "nurd_wal_next_lsn", kind: "gauge", help: "Next log sequence number to assign.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.NextLSN) }},
	{name: "nurd_wal_appends_total", kind: "counter", help: "Log records appended by this process.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.Appends) }},
	{name: "nurd_wal_bytes_total", kind: "counter", help: "Framed bytes of the appended records.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.Bytes) }},
	{name: "nurd_wal_syncs_total", kind: "counter", help: "fsync calls.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.Syncs) }},
	{name: "nurd_wal_pending_bytes", kind: "gauge", help: "Bytes written since the last fsync.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.PendingBytes) }},
	{name: "nurd_wal_fsync_lag_seconds", kind: "gauge", help: "Age of the oldest byte not yet synced.", wal: true,
		value: func(s *serve.Stats) float64 { return s.WAL.FsyncLag.Seconds() }},
	{name: "nurd_wal_retired_segments_total", kind: "counter", help: "Segments removed by checkpoints.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.RetiredSegments) }},
	{name: "nurd_wal_checkpoints_total", kind: "counter", help: "Checkpoints completed.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.Checkpoints) }},
	{name: "nurd_wal_checkpoint_failures_total", kind: "counter", help: "Checkpoint attempts that failed.", wal: true,
		value: func(s *serve.Stats) float64 { return float64(s.WAL.CheckpointFailures) }},
	{name: "nurd_wal_wedged", kind: "gauge", help: "1 once a log write or fsync has failed, else 0.", wal: true,
		value: func(s *serve.Stats) float64 {
			if s.WAL.Wedged {
				return 1
			}
			return 0
		}},
}

// appendMetrics appends st's exposition to dst.
func appendMetrics(dst []byte, st *serve.Stats) []byte {
	for i := range metrics {
		m := &metrics[i]
		if m.wal && st.WAL == nil {
			continue
		}
		dst = append(dst, "# HELP "...)
		dst = append(dst, m.name...)
		dst = append(dst, ' ')
		dst = append(dst, m.help...)
		dst = append(dst, "\n# TYPE "...)
		dst = append(dst, m.name...)
		dst = append(dst, ' ')
		dst = append(dst, m.kind...)
		dst = append(dst, '\n')
		dst = append(dst, m.name...)
		dst = append(dst, ' ')
		dst = strconv.AppendFloat(dst, m.value(st), 'f', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}

func (f *front) metrics(w http.ResponseWriter, _ *http.Request) {
	st := f.statsView()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// A failed Write means the client is gone; see writeBody.
	_, _ = w.Write(appendMetrics(nil, &st))
}
