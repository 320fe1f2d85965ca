package server

import (
	"bytes"
	"testing"
	"time"

	"satcheck"
)

// TestMetricsExpositionGolden drives every zcheckd metric with fixed calls
// and pins the /metrics text byte for byte: family order, HELP text, label
// quoting, cumulative buckets, and number formatting (the latency sum in
// seconds as %g, the peak-memory sum as an integer).
func TestMetricsExpositionGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	m := s.metrics

	for i, c := range []interface{ Add(int64) int64 }{
		&m.jobsAccepted, &m.jobsCompleted, &m.jobsFailed, &m.jobsRejected,
		&m.cacheHits, &m.cacheMisses, &m.bytesIngested, &m.badRequests,
		&m.musExtractions, &m.clausesBuilt, &m.resolutionSteps,
	} {
		c.Add(int64(i + 1))
	}
	m.jobsRunning.Store(2)
	m.checkerParallelism.Store(4)
	m.peakMemWords.Store(123456)
	m.peakMemBoundWords.Store(654321)

	for f := satcheck.ProofFormat(0); f <= satcheck.FormatTC+1; f++ {
		for n := 0; n <= int(f); n++ {
			m.ObserveFormat(f)
		}
	}
	m.ObserveFormat(-1)
	for meth := satcheck.Method(0); meth <= satcheck.OOC+1; meth++ {
		for n := 0; n <= 2*int(meth); n++ {
			m.ObserveMethod(meth)
		}
	}
	m.ObserveMethod(-1)
	m.ObserveCertification(true)
	m.ObserveCertification(true)
	m.ObserveCertification(false)

	// Latencies on both sides of every bucket bound, plus either end.
	m.ObserveCheck(0)
	for _, b := range []time.Duration{
		time.Millisecond, 5 * time.Millisecond, 25 * time.Millisecond,
		100 * time.Millisecond, 500 * time.Millisecond, 2500 * time.Millisecond,
		10 * time.Second, time.Minute, 5 * time.Minute,
	} {
		m.ObserveCheck(b)
		m.ObserveCheck(b + time.Nanosecond)
	}
	m.ObserveCheck(time.Hour + 1234567*time.Nanosecond)

	// Peak memory on both sides of every bound up to 1<<30 and beyond; the
	// out-of-core accumulators move only when a check shifted windows.
	m.ObserveResult(0, 0, 0, 0)
	for _, b := range []int64{1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30} {
		m.ObserveResult(b, 0, 0, 0)
		m.ObserveResult(b+1, 0, 0, 0)
	}
	m.ObserveResult(1<<40, 0, 0, 0)
	m.ObserveResult(1000, 3, 17, 4096)
	m.ObserveResult(2000, 2, 5, 1024)
	m.ObserveResult(5, 0, 9, 9)

	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	if got := buf.String(); got != metricsGolden {
		t.Errorf("exposition differs from the golden text; got:\n%s", got)
	}
}

const metricsGolden = `# HELP zcheckd_jobs_accepted_total Jobs admitted to the queue.
# TYPE zcheckd_jobs_accepted_total counter
zcheckd_jobs_accepted_total 1
# HELP zcheckd_jobs_completed_total Jobs that produced a verdict (valid or rejected).
# TYPE zcheckd_jobs_completed_total counter
zcheckd_jobs_completed_total 2
# HELP zcheckd_jobs_failed_total Jobs that failed on infrastructure errors or deadlines.
# TYPE zcheckd_jobs_failed_total counter
zcheckd_jobs_failed_total 3
# HELP zcheckd_jobs_rejected_total Requests turned away by backpressure (queue full or draining).
# TYPE zcheckd_jobs_rejected_total counter
zcheckd_jobs_rejected_total 4
# HELP zcheckd_cache_hits_total Checks answered from the result cache.
# TYPE zcheckd_cache_hits_total counter
zcheckd_cache_hits_total 5
# HELP zcheckd_cache_misses_total Checks that missed the result cache.
# TYPE zcheckd_cache_misses_total counter
zcheckd_cache_misses_total 6
# HELP zcheckd_bytes_ingested_total Formula and trace bytes read from request bodies.
# TYPE zcheckd_bytes_ingested_total counter
zcheckd_bytes_ingested_total 7
# HELP zcheckd_bad_requests_total Requests rejected as malformed (HTTP 4xx other than 429).
# TYPE zcheckd_bad_requests_total counter
zcheckd_bad_requests_total 8
# HELP zcheckd_clauses_built_total Learned clauses rebuilt by resolution across all completed checks.
# TYPE zcheckd_clauses_built_total counter
zcheckd_clauses_built_total 10
# HELP zcheckd_resolution_steps_total Resolution steps performed across all completed checks.
# TYPE zcheckd_resolution_steps_total counter
zcheckd_resolution_steps_total 11
# HELP zcheckd_mus_extractions_total Validated MUS extractions performed for mus=1 requests.
# TYPE zcheckd_mus_extractions_total counter
zcheckd_mus_extractions_total 9
# HELP zcheckd_ooc_windows_total Proof windows shifted through by completed method=ooc checks.
# TYPE zcheckd_ooc_windows_total counter
zcheckd_ooc_windows_total 5
# HELP zcheckd_ooc_spilled_clauses_total Boundary-crossing clauses written to the out-of-core spill index.
# TYPE zcheckd_ooc_spilled_clauses_total counter
zcheckd_ooc_spilled_clauses_total 22
# HELP zcheckd_ooc_spilled_bytes_total Bytes written to the out-of-core spill index.
# TYPE zcheckd_ooc_spilled_bytes_total counter
zcheckd_ooc_spilled_bytes_total 5120
# HELP zcheckd_checks_by_format_total Completed checks by proof encoding.
# TYPE zcheckd_checks_by_format_total counter
zcheckd_checks_by_format_total{format="native"} 1
zcheckd_checks_by_format_total{format="drat"} 2
zcheckd_checks_by_format_total{format="lrat"} 3
zcheckd_checks_by_format_total{format="er"} 4
zcheckd_checks_by_format_total{format="tc"} 5
# HELP zcheckd_checks_by_method_total Completed checks by requested method.
# TYPE zcheckd_checks_by_method_total counter
zcheckd_checks_by_method_total{method="df"} 1
zcheckd_checks_by_method_total{method="bf"} 3
zcheckd_checks_by_method_total{method="hybrid"} 5
zcheckd_checks_by_method_total{method="parallel"} 7
zcheckd_checks_by_method_total{method="bdd"} 9
zcheckd_checks_by_method_total{method="kernel"} 11
zcheckd_checks_by_method_total{method="ooc"} 13
# HELP zcheckd_certifications_total Completed policy=dual certifications by outcome.
# TYPE zcheckd_certifications_total counter
zcheckd_certifications_total{outcome="certified"} 2
zcheckd_certifications_total{outcome="fail"} 1
# HELP zcheckd_queue_depth Jobs waiting in the queue.
# TYPE zcheckd_queue_depth gauge
zcheckd_queue_depth 0
# HELP zcheckd_jobs_running Jobs currently being checked by workers.
# TYPE zcheckd_jobs_running gauge
zcheckd_jobs_running 2
# HELP zcheckd_checker_parallelism Effective worker count of the most recent parallel-method check.
# TYPE zcheckd_checker_parallelism gauge
zcheckd_checker_parallelism 4
# HELP zcheckd_peak_mem_words Memory-model peak (4-byte words) of the last completed check.
# TYPE zcheckd_peak_mem_words gauge
zcheckd_peak_mem_words 123456
# HELP zcheckd_peak_mem_bound_words Schedule-independent memory bound of the last parallel check.
# TYPE zcheckd_peak_mem_bound_words gauge
zcheckd_peak_mem_bound_words 654321
# HELP zcheckd_check_seconds Checker wall-clock latency.
# TYPE zcheckd_check_seconds histogram
zcheckd_check_seconds_bucket{le="0.001"} 2
zcheckd_check_seconds_bucket{le="0.005"} 4
zcheckd_check_seconds_bucket{le="0.025"} 6
zcheckd_check_seconds_bucket{le="0.1"} 8
zcheckd_check_seconds_bucket{le="0.5"} 10
zcheckd_check_seconds_bucket{le="2.5"} 12
zcheckd_check_seconds_bucket{le="10"} 14
zcheckd_check_seconds_bucket{le="60"} 16
zcheckd_check_seconds_bucket{le="300"} 18
zcheckd_check_seconds_bucket{le="+Inf"} 20
zcheckd_check_seconds_sum 4346.263234576
zcheckd_check_seconds_count 20
# HELP zcheckd_check_peak_mem_words Per-check memory-model peak (4-byte words).
# TYPE zcheckd_check_peak_mem_words histogram
zcheckd_check_peak_mem_words_bucket{le="16384"} 5
zcheckd_check_peak_mem_words_bucket{le="262144"} 7
zcheckd_check_peak_mem_words_bucket{le="4.194304e+06"} 9
zcheckd_check_peak_mem_words_bucket{le="6.7108864e+07"} 11
zcheckd_check_peak_mem_words_bucket{le="1.073741824e+09"} 13
zcheckd_check_peak_mem_words_bucket{le="+Inf"} 15
zcheckd_check_peak_mem_words_sum 1101802277826
zcheckd_check_peak_mem_words_count 15
`
