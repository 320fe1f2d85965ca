package server

import (
	"io"
	"sync/atomic"
	"time"

	"satcheck"
	"satcheck/internal/metrics"
)

// Metrics is the daemon's observability surface, rendered in the
// Prometheus text exposition format by internal/metrics. The handlers and
// workers update its atomics lock-free and /metrics renders a
// consistent-enough snapshot; the queue depth alone is read from the queue.
type Metrics struct {
	// Counters.
	jobsAccepted  atomic.Int64 // admitted to the queue
	jobsCompleted atomic.Int64 // finished with a verdict (valid or rejected)
	jobsFailed    atomic.Int64 // infrastructure failure or deadline
	jobsRejected  atomic.Int64 // turned away: queue full or draining
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	bytesIngested atomic.Int64 // formula + trace bytes read from request bodies
	badRequests   atomic.Int64
	// musExtractions counts the validated MUS extractions performed for
	// mus=1 requests (failed extraction attempts are not counted).
	musExtractions atomic.Int64
	// oocWindows / oocSpilledClauses / oocSpilledBytes accumulate the
	// out-of-core checker's window and spill volume across completed
	// method=ooc checks — the operator's view of how much proof traffic is
	// actually running disk-backed.
	oocWindows        atomic.Int64
	oocSpilledClauses atomic.Int64
	oocSpilledBytes   atomic.Int64

	// Per-job checker statistics, previously dropped on the floor between
	// the facade result and the HTTP response: cumulative build-set and
	// resolution work, so operators can see proof effort, not just latency.
	clausesBuilt    atomic.Int64
	resolutionSteps atomic.Int64

	// checksByFormat counts completed checks per proof encoding, indexed by
	// satcheck.ProofFormat and labelled by its String — the operator's view
	// of how much clausal vs native traffic the service sees.
	checksByFormat [satcheck.FormatTC + 1]atomic.Int64

	// checksByMethod counts completed checks per requested method, indexed
	// by satcheck.Method and labelled by its Name, so bdd-bridge traffic is
	// distinguishable from the native traversals it shares the queue with.
	checksByMethod [satcheck.OOC + 1]atomic.Int64

	Certifications

	// Gauges. queueLen is bound to the queue's Depth by New, so the gauge
	// and /healthz read the same number.
	queueLen    func() int
	jobsRunning atomic.Int64
	// checkerParallelism is the effective worker count of the most recent
	// parallel-method check (0 until one runs).
	checkerParallelism atomic.Int64
	// peakMemWords / peakMemBoundWords snapshot the last completed check's
	// deterministic memory-model peak and, for the parallel checker, its
	// schedule-independent bound.
	peakMemWords      atomic.Int64
	peakMemBoundWords atomic.Int64

	// Checker latency histogram (seconds).
	latency *metrics.Histogram
	// peakMem is the per-check memory-model peak histogram (4-byte words):
	// the distribution zcheckd_peak_mem_words (a last-value gauge) cannot
	// show, and the number the out-of-core checker exists to bound.
	peakMem *metrics.Histogram
}

// ObserveFormat records one completed check's proof encoding.
func (m *Metrics) ObserveFormat(format satcheck.ProofFormat) {
	if format >= 0 && int(format) < len(m.checksByFormat) {
		m.checksByFormat[format].Add(1)
	}
}

// ObserveMethod records one completed check's requested method.
func (m *Metrics) ObserveMethod(method satcheck.Method) {
	if method >= 0 && int(method) < len(m.checksByMethod) {
		m.checksByMethod[method].Add(1)
	}
}

// Certifications counts completed policy=dual certifications by outcome,
// certified then fail: zcheckd those it ran, the router those it merged.
// Fail-closed means both are 200-level answers; the ratio is the
// operator's solver-health signal.
type Certifications struct{ byOutcome [2]atomic.Int64 }

// ObserveCertification records one completed certification.
func (c *Certifications) ObserveCertification(certified bool) {
	i := 1
	if certified {
		i = 0
	}
	c.byOutcome[i].Add(1)
}

// WriteCertifications renders the counts as the counter family name,
// labelled by outcome.
func (c *Certifications) WriteCertifications(p *metrics.Writer, name, help string) {
	p.Family(name, "counter", help)
	p.Sample(c.byOutcome[0].Load(), "outcome", "certified")
	p.Sample(c.byOutcome[1].Load(), "outcome", "fail")
}

// newMetrics builds the histograms; New binds queueLen.
func newMetrics() *Metrics {
	return &Metrics{
		// Checks span sub-millisecond cache-adjacent formulas to
		// minutes-long industrial proofs: 1ms to 5min, in nanoseconds.
		latency: metrics.NewHistogram(true, 1e6, 5e6, 25e6, 1e8, 5e8, 25e8, 1e10, 6e10, 3e11),
		// 4-byte words, 64KiB up to 4GiB by factors of 16: toy formulas to
		// checks that should have been run out of core.
		peakMem: metrics.NewHistogram(false, 1<<14, 1<<18, 1<<22, 1<<26, 1<<30),
	}
}

// ObserveCheck records one completed check's latency.
func (m *Metrics) ObserveCheck(d time.Duration) { m.latency.Observe(int64(d)) }

// ObserveResult records one valid check's result statistics: the peak
// memory-model distribution, and for out-of-core runs the window and spill
// accumulators.
func (m *Metrics) ObserveResult(peakMemWords, oocWindows, spilledClauses, spilledBytes int64) {
	m.peakMem.Observe(peakMemWords)
	if oocWindows > 0 {
		m.oocWindows.Add(oocWindows)
		m.oocSpilledClauses.Add(spilledClauses)
		m.oocSpilledBytes.Add(spilledBytes)
	}
}

// WritePrometheus renders every metric in the text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	p := metrics.NewWriter(w)
	p.Counter("zcheckd_jobs_accepted_total", "Jobs admitted to the queue.", m.jobsAccepted.Load())
	p.Counter("zcheckd_jobs_completed_total", "Jobs that produced a verdict (valid or rejected).", m.jobsCompleted.Load())
	p.Counter("zcheckd_jobs_failed_total", "Jobs that failed on infrastructure errors or deadlines.", m.jobsFailed.Load())
	p.Counter("zcheckd_jobs_rejected_total", "Requests turned away by backpressure (queue full or draining).", m.jobsRejected.Load())
	p.Counter("zcheckd_cache_hits_total", "Checks answered from the result cache.", m.cacheHits.Load())
	p.Counter("zcheckd_cache_misses_total", "Checks that missed the result cache.", m.cacheMisses.Load())
	p.Counter("zcheckd_bytes_ingested_total", "Formula and trace bytes read from request bodies.", m.bytesIngested.Load())
	p.Counter("zcheckd_bad_requests_total", "Requests rejected as malformed (HTTP 4xx other than 429).", m.badRequests.Load())
	p.Counter("zcheckd_clauses_built_total", "Learned clauses rebuilt by resolution across all completed checks.", m.clausesBuilt.Load())
	p.Counter("zcheckd_resolution_steps_total", "Resolution steps performed across all completed checks.", m.resolutionSteps.Load())
	p.Counter("zcheckd_mus_extractions_total", "Validated MUS extractions performed for mus=1 requests.", m.musExtractions.Load())
	p.Counter("zcheckd_ooc_windows_total", "Proof windows shifted through by completed method=ooc checks.", m.oocWindows.Load())
	p.Counter("zcheckd_ooc_spilled_clauses_total", "Boundary-crossing clauses written to the out-of-core spill index.", m.oocSpilledClauses.Load())
	p.Counter("zcheckd_ooc_spilled_bytes_total", "Bytes written to the out-of-core spill index.", m.oocSpilledBytes.Load())
	p.Family("zcheckd_checks_by_format_total", "counter", "Completed checks by proof encoding.")
	for i := range m.checksByFormat {
		p.Sample(m.checksByFormat[i].Load(), "format", satcheck.ProofFormat(i).String())
	}
	p.Family("zcheckd_checks_by_method_total", "counter", "Completed checks by requested method.")
	for i := range m.checksByMethod {
		p.Sample(m.checksByMethod[i].Load(), "method", satcheck.Method(i).Name())
	}
	m.WriteCertifications(p, "zcheckd_certifications_total", "Completed policy=dual certifications by outcome.")
	p.Gauge("zcheckd_queue_depth", "Jobs waiting in the queue.", int64(m.queueLen()))
	p.Gauge("zcheckd_jobs_running", "Jobs currently being checked by workers.", m.jobsRunning.Load())
	p.Gauge("zcheckd_checker_parallelism", "Effective worker count of the most recent parallel-method check.", m.checkerParallelism.Load())
	p.Gauge("zcheckd_peak_mem_words", "Memory-model peak (4-byte words) of the last completed check.", m.peakMemWords.Load())
	p.Gauge("zcheckd_peak_mem_bound_words", "Schedule-independent memory bound of the last parallel check.", m.peakMemBoundWords.Load())
	p.Histogram("zcheckd_check_seconds", "Checker wall-clock latency.", m.latency)
	p.Histogram("zcheckd_check_peak_mem_words", "Per-check memory-model peak (4-byte words).", m.peakMem)
}
