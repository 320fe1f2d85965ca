package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"satcheck"
)

// Metrics is the daemon's observability surface, hand-rolled in the
// Prometheus text exposition format (stdlib only — no client library). All
// fields are atomics; the handlers and workers update them lock-free and
// /metrics renders a consistent-enough snapshot.
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
	checksByFormat [satcheck.FormatER + 1]atomic.Int64

	// checksByMethod counts completed checks per requested method, indexed
	// by satcheck.Method and labelled by its Name, so bdd-bridge traffic is
	// distinguishable from the native traversals it shares the queue with.
	checksByMethod [satcheck.OOC + 1]atomic.Int64

	// certifications counts completed policy=dual certifications by
	// outcome, indexed by certOutcomeLabels. Fail-closed means both cells
	// are 200-level answers; the ratio is the operator's solver-health
	// signal.
	certifications [len(certOutcomeLabels)]atomic.Int64

	// Gauges.
	queueDepth  atomic.Int64
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
	latency histogram
	// peakMem is the per-check memory-model peak histogram (4-byte words):
	// the distribution zcheckd_peak_mem_words (a last-value gauge) cannot
	// show, and the number the out-of-core checker exists to bound.
	peakMem valueHistogram
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

// certOutcomeLabels are the {outcome=...} label values of
// zcheckd_certifications_total.
var certOutcomeLabels = [...]string{"certified", "fail"}

// ObserveCertification records one completed dual-policy certification.
func (m *Metrics) ObserveCertification(certified bool) {
	i := 1
	if certified {
		i = 0
	}
	m.certifications[i].Add(1)
}

// latencyBuckets are the histogram upper bounds in seconds; checks span
// sub-millisecond cache-adjacent formulas to minutes-long industrial proofs.
var latencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}

// histogram is a fixed-bucket Prometheus-style histogram. Counts are made
// cumulative only at render time; each cell holds its own bucket.
type histogram struct {
	counts  [len(latencyBuckets) + 1]atomic.Int64 // last cell is +Inf
	sumNano atomic.Int64
	total   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if s <= latencyBuckets[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNano.Add(int64(d))
	h.total.Add(1)
}

// ObserveCheck records one completed check's latency.
func (m *Metrics) ObserveCheck(d time.Duration) { m.latency.observe(d) }

// peakMemBuckets are the peak-memory histogram upper bounds in 4-byte
// words: 64KiB up to 4GiB by factors of 16, spanning toy formulas to
// checks that should have been run out of core.
var peakMemBuckets = [...]float64{1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30}

// valueHistogram is histogram for plain int64 observations (no time unit).
type valueHistogram struct {
	counts [len(peakMemBuckets) + 1]atomic.Int64 // last cell is +Inf
	sum    atomic.Int64
	total  atomic.Int64
}

func (h *valueHistogram) observe(v int64) {
	i := 0
	for ; i < len(peakMemBuckets); i++ {
		if float64(v) <= peakMemBuckets[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveResult records one valid check's result statistics: the peak
// memory-model distribution, and for out-of-core runs the window and spill
// accumulators.
func (m *Metrics) ObserveResult(peakMemWords, oocWindows, spilledClauses, spilledBytes int64) {
	m.peakMem.observe(peakMemWords)
	if oocWindows > 0 {
		m.oocWindows.Add(oocWindows)
		m.oocSpilledClauses.Add(spilledClauses)
		m.oocSpilledBytes.Add(spilledBytes)
	}
}

// WritePrometheus renders every metric in the text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("zcheckd_jobs_accepted_total", "Jobs admitted to the queue.", m.jobsAccepted.Load())
	counter("zcheckd_jobs_completed_total", "Jobs that produced a verdict (valid or rejected).", m.jobsCompleted.Load())
	counter("zcheckd_jobs_failed_total", "Jobs that failed on infrastructure errors or deadlines.", m.jobsFailed.Load())
	counter("zcheckd_jobs_rejected_total", "Requests turned away by backpressure (queue full or draining).", m.jobsRejected.Load())
	counter("zcheckd_cache_hits_total", "Checks answered from the result cache.", m.cacheHits.Load())
	counter("zcheckd_cache_misses_total", "Checks that missed the result cache.", m.cacheMisses.Load())
	counter("zcheckd_bytes_ingested_total", "Formula and trace bytes read from request bodies.", m.bytesIngested.Load())
	counter("zcheckd_bad_requests_total", "Requests rejected as malformed (HTTP 4xx other than 429).", m.badRequests.Load())
	counter("zcheckd_clauses_built_total", "Learned clauses rebuilt by resolution across all completed checks.", m.clausesBuilt.Load())
	counter("zcheckd_resolution_steps_total", "Resolution steps performed across all completed checks.", m.resolutionSteps.Load())
	counter("zcheckd_mus_extractions_total", "Validated MUS extractions performed for mus=1 requests.", m.musExtractions.Load())
	counter("zcheckd_ooc_windows_total", "Proof windows shifted through by completed method=ooc checks.", m.oocWindows.Load())
	counter("zcheckd_ooc_spilled_clauses_total", "Boundary-crossing clauses written to the out-of-core spill index.", m.oocSpilledClauses.Load())
	counter("zcheckd_ooc_spilled_bytes_total", "Bytes written to the out-of-core spill index.", m.oocSpilledBytes.Load())
	fmt.Fprintf(w, "# HELP zcheckd_checks_by_format_total Completed checks by proof encoding.\n# TYPE zcheckd_checks_by_format_total counter\n")
	for i := range m.checksByFormat {
		fmt.Fprintf(w, "zcheckd_checks_by_format_total{format=%q} %d\n", satcheck.ProofFormat(i).String(), m.checksByFormat[i].Load())
	}
	fmt.Fprintf(w, "# HELP zcheckd_checks_by_method_total Completed checks by requested method.\n# TYPE zcheckd_checks_by_method_total counter\n")
	for i := range m.checksByMethod {
		fmt.Fprintf(w, "zcheckd_checks_by_method_total{method=%q} %d\n", satcheck.Method(i).Name(), m.checksByMethod[i].Load())
	}
	fmt.Fprintf(w, "# HELP zcheckd_certifications_total Completed policy=dual certifications by outcome.\n# TYPE zcheckd_certifications_total counter\n")
	for i, label := range certOutcomeLabels {
		fmt.Fprintf(w, "zcheckd_certifications_total{outcome=%q} %d\n", label, m.certifications[i].Load())
	}
	gauge("zcheckd_queue_depth", "Jobs waiting in the queue.", m.queueDepth.Load())
	gauge("zcheckd_jobs_running", "Jobs currently being checked by workers.", m.jobsRunning.Load())
	gauge("zcheckd_checker_parallelism", "Effective worker count of the most recent parallel-method check.", m.checkerParallelism.Load())
	gauge("zcheckd_peak_mem_words", "Memory-model peak (4-byte words) of the last completed check.", m.peakMemWords.Load())
	gauge("zcheckd_peak_mem_bound_words", "Schedule-independent memory bound of the last parallel check.", m.peakMemBoundWords.Load())

	fmt.Fprintf(w, "# HELP zcheckd_check_seconds Checker wall-clock latency.\n# TYPE zcheckd_check_seconds histogram\n")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += m.latency.counts[i].Load()
		fmt.Fprintf(w, "zcheckd_check_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += m.latency.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "zcheckd_check_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "zcheckd_check_seconds_sum %g\n", time.Duration(m.latency.sumNano.Load()).Seconds())
	fmt.Fprintf(w, "zcheckd_check_seconds_count %d\n", m.latency.total.Load())

	fmt.Fprintf(w, "# HELP zcheckd_check_peak_mem_words Per-check memory-model peak (4-byte words).\n# TYPE zcheckd_check_peak_mem_words histogram\n")
	cum = 0
	for i, ub := range peakMemBuckets {
		cum += m.peakMem.counts[i].Load()
		fmt.Fprintf(w, "zcheckd_check_peak_mem_words_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += m.peakMem.counts[len(peakMemBuckets)].Load()
	fmt.Fprintf(w, "zcheckd_check_peak_mem_words_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "zcheckd_check_peak_mem_words_sum %d\n", m.peakMem.sum.Load())
	fmt.Fprintf(w, "zcheckd_check_peak_mem_words_count %d\n", m.peakMem.total.Load())
}
