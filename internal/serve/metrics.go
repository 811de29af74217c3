package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// latencyBounds are the request-latency bucket upper bounds in
// microseconds: sub-millisecond resolution where a delegated handler
// normally lands, decade coverage up to 1s for rotation-barrier and
// overload tails.
var latencyBounds = []int64{
	50, 100, 250, 500, 1000, 2500, 5000, 10000,
	25000, 50000, 100000, 250000, 500000, 1000000,
}

// metrics is the serving tier's metric set. Hot-path updates (observe,
// the counters) are single atomic operations on pre-allocated
// histograms — zero allocations per request. Latency is sharded by
// serialization set (set mod shards), bounding exposition cardinality
// under unbounded request keys while keeping skew visible: a hot key
// concentrates in one shard's histogram.
type metrics struct {
	latency [latencyShards]*histogram // per set-shard, microseconds

	served           atomic.Uint64 // requests answered by their backend
	panics           atomic.Uint64 // handler panics contained (each poisons its key)
	droppedJobs      atomic.Uint64 // 500s unrun on a poisoned key (delivery or queue front)
	admissionRejects atomic.Uint64 // 503s: inflight budget, draining
	rateRejects      atomic.Uint64 // 429s: the key's token bucket, at delivery
	expired          atomic.Uint64 // 504s: request budget exhausted (delivery, queue front, backend)
	shedDegraded     atomic.Uint64 // 503s: slow-key watchdog shed at delivery
	retries          atomic.Uint64 // retry attempts armed after backend failures
	degradedKeys     atomic.Uint64 // keys degraded by the watchdog (cumulative trips)

	// Durability (zero unless Config.StateFS is set — see durability.go).
	snapshots        atomic.Uint64 // snapshot generations committed
	snapshotFailures atomic.Uint64 // commits that failed (previous generation retained)
	snapshotSkipped  atomic.Uint64 // hand-offs deferred because the writer was busy (the lists stay; the next rotation hands over both intervals)
	snapLastBytes    atomic.Uint64 // size of the last committed snapshot
	snapLastRecords  atomic.Uint64 // sessions in the last committed snapshot
	snapLastMicros   atomic.Uint64 // commit duration of the last snapshot
	journalRecords   atomic.Uint64 // session records journaled
	journalFailures  atomic.Uint64 // journal appends/swaps that failed
	journalSyncs     atomic.Uint64 // explicit journal fsyncs (per append or per rotation)
}

// latencyShards is the latency-metric shard count: a key's set is metered
// under shard set%latencyShards, bounding metric cardinality under
// unbounded keys.
const latencyShards = 8

func newMetrics() *metrics {
	m := &metrics{}
	for i := range m.latency {
		m.latency[i] = newHistogram(latencyBounds...)
	}
	return m
}

// observe records one answered request's latency under its set's shard.
func (m *metrics) observe(set uint64, lat time.Duration) {
	m.latency[set%latencyShards].Observe(lat.Microseconds())
}

// handleMetrics renders the Prometheus text exposition format by hand
// (text/plain; version 0.0.4) — counters, per-shard latency histograms
// with quantile estimates, per-delegate
// backlog gauges, and the engine counters from the last epoch-rotation
// snapshot. Scrape-path cost is irrelevant; only Observe is hot.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.metrics
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("ss_requests_served_total", "Requests answered by their handler.", m.served.Load())
	counter("ss_panics_total", "Handler panics contained by the tier, each poisoning its key for the epoch.", m.panics.Load())
	counter("ss_requests_dropped_total", "Requests answered 500 unrun because their key was poisoned this epoch.", m.droppedJobs.Load())
	counter("ss_admission_rejects_total", "Requests rejected 503 at admission (budget, draining).", m.admissionRejects.Load())
	counter("ss_ratelimit_rejects_total", "Requests rejected 429 by their key's token bucket.", m.rateRejects.Load())
	counter("ss_requests_expired_total", "Requests answered 504: budget exhausted before a backend answer.", m.expired.Load())
	counter("ss_requests_shed_total", "Requests answered 503 by the slow-key watchdog.", m.shedDegraded.Load())
	counter("ss_retries_total", "Retry attempts armed after backend failures.", m.retries.Load())
	counter("ss_degraded_keys_total", "Keys degraded by the slow-key watchdog.", m.degradedKeys.Load())

	if s.store != nil {
		counter("ss_snapshots_total", "Session snapshot generations committed.", m.snapshots.Load())
		counter("ss_snapshot_failures_total", "Snapshot commits that failed (previous generation retained).", m.snapshotFailures.Load())
		counter("ss_snapshot_skipped_total", "Epoch captures deferred to the next rotation because the snapshot writer was busy.", m.snapshotSkipped.Load())
		counter("ss_journal_records_total", "Session records appended to the intra-epoch journal.", m.journalRecords.Load())
		counter("ss_journal_failures_total", "Journal appends or generation swaps that failed.", m.journalFailures.Load())
		counter("ss_journal_syncs_total", "Explicit journal fsyncs (per append under always, per rotation under rotation).", m.journalSyncs.Load())
		gauge := func(name, help string, v uint64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
		}
		gauge("ss_snapshot_last_bytes", "Size of the last committed snapshot.", m.snapLastBytes.Load())
		gauge("ss_snapshot_last_records", "Sessions in the last committed snapshot.", m.snapLastRecords.Load())
		gauge("ss_snapshot_last_duration_microseconds", "Commit duration of the last snapshot.", m.snapLastMicros.Load())
		gauge("ss_recovered_sessions", "Sessions rebuilt from storage at the last startup.", uint64(s.recovered.sessions))
		gauge("ss_recovered_journal_records", "Journal records replayed on top of the recovered snapshot.", uint64(s.recovered.journalReplayed))
		gauge("ss_journal_truncated_records", "Torn or corrupt journal frames truncated at the last recovery.", uint64(s.recovered.truncatedRecords))
		gauge("ss_recovery_snapshots_skipped", "Invalid snapshot generations skipped at the last recovery.", uint64(s.recovered.snapshotsSkipped))
	}

	writeHistogram := func(name, help, labels string, h *histogram) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		brace := func(extra string) string {
			if extra == "" {
				return "{" + labels + "}"
			}
			return "{" + labels + "," + extra + "}"
		}
		bounds := h.Bounds()
		counts := h.Buckets(make([]uint64, 0, len(bounds)+1))
		var cum uint64
		for i, bound := range bounds {
			cum += counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", name, brace(fmt.Sprintf("le=%q", fmt.Sprint(bound))), cum)
		}
		cum += counts[len(bounds)]
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, brace(`le="+Inf"`), cum)
		fmt.Fprintf(&b, "%s_sum%s %d\n", name, brace(""), h.Sum())
		fmt.Fprintf(&b, "%s_count%s %d\n", name, brace(""), cum)
		for _, q := range [...]float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(&b, "%s_quantile%s %.1f\n", name, brace(fmt.Sprintf("q=\"%g\"", q)), h.Quantile(q))
		}
	}
	for i, h := range m.latency {
		writeHistogram("ss_request_latency_microseconds",
			"Request latency from admission to response decision, by set shard.",
			fmt.Sprintf("shard=\"%d\"", i), h)
	}

	fmt.Fprintf(&b, "# HELP ss_delegate_backlog Outstanding operations per delegate context.\n# TYPE ss_delegate_backlog gauge\n")
	for i, d := range s.rt.QueueDepths(make([]uint64, 0, 16)) {
		fmt.Fprintf(&b, "ss_delegate_backlog{delegate=\"%d\"} %d\n", i+1, d)
	}
	fmt.Fprintf(&b, "# HELP ss_delegates Delegates in the pool, fixed for the server's life.\n# TYPE ss_delegates gauge\nss_delegates %d\n",
		s.rt.NumDelegates())

	fmt.Fprintf(&b, "# HELP ss_poisoned_keys Keys poisoned by a handler panic in the current epoch.\n# TYPE ss_poisoned_keys gauge\nss_poisoned_keys %d\n", s.poisoned.Load())
	fmt.Fprintf(&b, "# HELP ss_degraded_keys Keys currently shed by the slow-key watchdog.\n# TYPE ss_degraded_keys gauge\nss_degraded_keys %d\n", s.degraded.Load())

	st := s.Stats()
	counter("ss_runtime_steals_total", "Whole-set handoffs by the occupancy-aware rebalancer.", st.Steals)
	counter("ss_runtime_helped_ops_total", "Delegated operations the program context executed itself while it waited in a barrier.", st.HelpedOps)
	counter("ss_runtime_sheds_total", "Hand-overs of whole sets from a busy delegate to the waiting program context.", st.Sheds)
	counter("ss_runtime_epochs_total", "Isolation epochs begun (the rotation cadence).", st.Epochs)
	counter("ss_runtime_delegations_total", "Operations delegated to the pool.", st.Delegations)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
