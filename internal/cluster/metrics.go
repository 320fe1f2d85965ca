package cluster

import (
	"io"
	"slices"
	"sync/atomic"

	"satcheck/internal/metrics"
	"satcheck/internal/server"
	"satcheck/internal/store"
)

// Job classes. Interactive jobs jump the dispatch queue ahead of batch
// jobs: a human waiting on a small proof should never sit behind a
// pipeline's bulk backlog.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
)

var classLabels = [...]string{ClassInteractive, ClassBatch}

func classIndex(class string) int {
	if class == ClassInteractive {
		return 0
	}
	return 1
}

// jobStateLabels are the {state=...} values of zcheckd_jobs_total. They
// count *transitions into* each state, so "queued" is total submissions
// and queued == done + failed once the cluster is idle.
var jobStateLabels = [...]string{store.StateQueued, store.StateRunning, store.StateDone, store.StateFailed}

// Metrics is the router's observability surface, rendered like the
// per-shard server metrics by internal/metrics. The ring, the store and
// the per-shard health gauge are read from the router at scrape time;
// everything else is lock-free atomics.
type Metrics struct {
	// Sync proxy path.
	syncChecks    atomic.Int64 // proxied synchronous checks (any verdict)
	syncRejected  atomic.Int64 // turned away: draining, no shards, quota
	quotaRejected atomic.Int64 // of which: per-tenant token bucket dry

	// Async job lifecycle: transitions into each state, by class.
	jobStates [len(jobStateLabels)][len(classLabels)]atomic.Int64

	// Dispatch resilience.
	failovers       atomic.Int64 // attempts moved to the next ring owner
	retries         atomic.Int64 // async re-dispatches after a failed attempt
	webhooksOK      atomic.Int64
	webhooksFailed  atomic.Int64
	jobsRecovered   atomic.Int64 // non-terminal jobs re-queued at startup
	corruptRestarts atomic.Int64 // dispatches aborted by a corrupt blob

	// Ingest.
	bytesIngested atomic.Int64
	badRequests   atomic.Int64

	// Certifications counts the policy=dual certifications merged at the
	// router.
	server.Certifications

	rt *Router // its ring, store and shard table are read at scrape time
}

// ObserveJobState records a transition into state for the job class.
func (m *Metrics) ObserveJobState(state, class string) {
	if i := slices.Index(jobStateLabels[:], state); i >= 0 {
		m.jobStates[i][classIndex(class)].Add(1)
	}
}

// JobsTotal reports the lifetime transition count into state across all
// classes (tests and the drain path use it).
func (m *Metrics) JobsTotal(state string) int64 {
	i := slices.Index(jobStateLabels[:], state)
	if i < 0 {
		return 0
	}
	var total int64
	for c := range classLabels {
		total += m.jobStates[i][c].Load()
	}
	return total
}

// WritePrometheus renders the router metrics.
func (m *Metrics) WritePrometheus(w io.Writer) {
	p := metrics.NewWriter(w)
	p.Counter("zcheckd_router_sync_checks_total", "Synchronous checks proxied to shards.", m.syncChecks.Load())
	p.Counter("zcheckd_router_sync_rejected_total", "Synchronous checks turned away (draining, quota, or no healthy shard).", m.syncRejected.Load())
	p.Counter("zcheckd_quota_rejected_total", "Requests rejected by per-tenant token buckets.", m.quotaRejected.Load())
	p.Counter("zcheckd_failovers_total", "Dispatch attempts moved to the next ring owner after a shard error.", m.failovers.Load())
	p.Counter("zcheckd_job_retries_total", "Async job re-dispatches after a failed attempt.", m.retries.Load())
	p.Counter("zcheckd_webhooks_delivered_total", "Webhook callbacks delivered.", m.webhooksOK.Load())
	p.Counter("zcheckd_webhooks_failed_total", "Webhook callbacks that could not be delivered.", m.webhooksFailed.Load())
	p.Counter("zcheckd_jobs_recovered_total", "Non-terminal jobs re-queued from the store at startup.", m.jobsRecovered.Load())
	p.Counter("zcheckd_store_corrupt_dispatches_total", "Dispatches aborted by a corrupt blob (re-ingest required).", m.corruptRestarts.Load())
	p.Counter("zcheckd_router_bytes_ingested_total", "Formula and proof bytes ingested into the store.", m.bytesIngested.Load())
	m.WriteCertifications(p, "zcheckd_router_certifications_total", "Completed policy=dual certifications merged at the router, by outcome.")
	p.Counter("zcheckd_router_bad_requests_total", "Malformed submissions rejected at the router.", m.badRequests.Load())
	p.Counter("zcheckd_ring_rebalances_total", "Consistent-hash ring membership changes (each remaps ~1/N of the key space).", m.rt.ring.Rebalances())
	p.Family("zcheckd_jobs_total", "counter", "Async job state transitions by state and class.")
	for si, state := range jobStateLabels {
		for ci, class := range classLabels {
			p.Sample(m.jobStates[si][ci].Load(), "state", state, "class", class)
		}
	}
	p.Family("zcheckd_shard_healthy", "gauge", "Shard health as seen by the router prober (1 = on the ring).")
	for _, sh := range m.rt.shardTable() {
		on := int64(0)
		if sh.OnRing {
			on = 1
		}
		p.Sample(on, "shard", sh.ID)
	}
	st := m.rt.store.Stats()
	p.Gauge("zcheckd_store_blobs", "Content-addressed blobs resident in the store.", int64(st.Blobs))
	p.Gauge("zcheckd_store_bytes", "Bytes resident in the content-addressed store.", st.Bytes)
	p.Counter("zcheckd_store_evictions_total", "Blobs evicted by the LRU disk quota.", st.Evictions)
	p.Counter("zcheckd_store_corruptions_total", "Blobs quarantined after a read-side hash mismatch.", st.Corruptions)
	p.Counter("zcheckd_store_dedups_total", "Blob writes answered by an already-resident copy.", st.Dedups)
}
