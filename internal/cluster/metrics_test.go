package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"satcheck/internal/server"
	"satcheck/internal/store"
)

// TestRouterMetricsGolden pins the router's GET /metrics text byte for
// byte after fixed counter adds and job-state transitions, with one joined
// shard on the ring and one whose /healthz answers 503.
func TestRouterMetricsGolden(t *testing.T) {
	rt, ts := newTestRouter(t, Config{StoreQuotaBytes: 32})
	stub := func(code int, status string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(&server.HealthResponse{Status: status})
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	if err := rt.JoinShard("stub-up", stub(http.StatusOK, "ok").URL); err != nil {
		t.Fatal(err)
	}
	if err := rt.JoinShard("stub-down", stub(http.StatusServiceUnavailable, "draining").URL); err != nil {
		t.Fatal(err)
	}

	m := rt.Metrics()
	for i, c := range []interface{ Add(int64) int64 }{
		&m.syncChecks, &m.syncRejected, &m.quotaRejected, &m.failovers,
		&m.retries, &m.webhooksOK, &m.webhooksFailed, &m.jobsRecovered,
		&m.corruptRestarts, &m.bytesIngested, &m.badRequests,
	} {
		c.Add(int64(i + 1))
	}
	for i, state := range []string{store.StateQueued, store.StateRunning, store.StateDone, store.StateFailed} {
		for n := 0; n <= i; n++ {
			m.ObserveJobState(state, ClassInteractive)
		}
		for n := 0; n <= 2*i+1; n++ {
			m.ObserveJobState(state, ClassBatch)
		}
	}
	m.ObserveJobState("unknown", ClassBatch)
	m.ObserveCertification(true)
	m.ObserveCertification(false)
	m.ObserveCertification(false)
	// An eviction past the quota, a dedup and a quarantined corrupt blob.
	for _, blob := range []string{"twenty bytes of lrat", "formula bytes", "proof bytes", "formula bytes"} {
		if _, _, err := rt.Store().PutBytes([]byte(blob)); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := store.HashBytes([]byte("proof bytes"))
	corruptBlobOnDisk(t, rt.Store(), corrupt)
	if _, err := rt.Store().ReadAll(corrupt); err == nil {
		t.Fatal("corrupt blob read back")
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != routerMetricsGolden {
		t.Errorf("exposition differs from the golden text; got:\n%s", got)
	}
}

// TestJoinRefusesUnsafeShardIDs refuses, with a 400, every join whose
// shard ID a label value cannot carry as is, accepts IDs that need only
// the text format's escapes, and then parses the router's whole /metrics
// exposition line by line: each joined ID must read back as its label.
func TestJoinRefusesUnsafeShardIDs(t *testing.T) {
	rt, ts := newTestRouter(t, Config{Shards: 1})
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&server.HealthResponse{Status: "ok"})
	}))
	t.Cleanup(shard.Close)
	join := func(id string) int {
		body, _ := json.Marshal(JoinRequest{ID: id, URL: shard.URL})
		resp, err := ts.Client().Post(ts.URL+"/cluster/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, id := range []string{"", "tab\tid", "line\nfeed", "nul\x00", "del\x7f", "next-line\u0085",
		strings.Repeat("x", maxShardIDLen+1)} {
		if code := join(id); code != http.StatusBadRequest {
			t.Errorf("join %q: HTTP %d, want 400", id, code)
		}
	}
	// JSON turns invalid UTF-8 into U+FFFD on the wire, so only a direct
	// call can hand JoinShard one.
	if err := rt.JoinShard("bad\xffutf8", shard.URL); err == nil {
		t.Error("JoinShard accepted an ID that is not valid UTF-8")
	}
	joined := []string{`quote"back\slash`, "ünïcode shard", strings.Repeat("x", maxShardIDLen),
		"shard-127.0.0.1:8347", "shard-[::1]:8347"}
	for _, id := range joined {
		if code := join(id); code != http.StatusOK {
			t.Errorf("join %q: HTTP %d, want 200", id, code)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var shards []string
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, labels, err := parseExpositionLine(line)
		if err != nil {
			t.Fatalf("line %d %q: %v", i+1, line, err)
		}
		if name == "zcheckd_shard_healthy" {
			shards = append(shards, labels["shard"])
		}
	}
	for _, id := range append(joined, "shard-1") {
		if !slices.Contains(shards, id) {
			t.Errorf("shard %q has no zcheckd_shard_healthy series; parsed %q", id, shards)
		}
	}
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*`)
	familyLine = regexp.MustCompile(`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))$`)
)

// parseExpositionLine parses one line of the text exposition format
// strictly: a HELP or TYPE line, or a sample whose label values use only
// the escapes \\, \" and \n. It returns a sample's name and labels.
func parseExpositionLine(line string) (string, map[string]string, error) {
	if strings.HasPrefix(line, "#") {
		if !familyLine.MatchString(line) {
			return "", nil, fmt.Errorf("bad HELP or TYPE line")
		}
		return "", nil, nil
	}
	name := metricName.FindString(line)
	if name == "" {
		return "", nil, fmt.Errorf("no metric name")
	}
	rest := line[len(name):]
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			ln := labelName.FindString(rest)
			if ln == "" || !strings.HasPrefix(rest[len(ln):], `="`) {
				return "", nil, fmt.Errorf("bad label at %q", rest)
			}
			rest = rest[len(ln)+2:]
			var v strings.Builder
			for {
				if rest == "" {
					return "", nil, fmt.Errorf("unterminated value of label %s", ln)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\n' {
					return "", nil, fmt.Errorf("raw line feed in label %s", ln)
				}
				if c == '\\' {
					switch {
					case strings.HasPrefix(rest, `\`), strings.HasPrefix(rest, `"`):
						c = rest[0]
					case strings.HasPrefix(rest, "n"):
						c = '\n'
					default:
						return "", nil, fmt.Errorf("undefined escape in label %s at %q", ln, rest)
					}
					rest = rest[1:]
				}
				v.WriteByte(c)
			}
			labels[ln] = v.String()
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
		rest = rest[1:]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return "", nil, fmt.Errorf("no space before the value")
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return "", nil, fmt.Errorf("bad value %q", value)
	}
	return name, labels, nil
}

const routerMetricsGolden = `# HELP zcheckd_router_sync_checks_total Synchronous checks proxied to shards.
# TYPE zcheckd_router_sync_checks_total counter
zcheckd_router_sync_checks_total 1
# HELP zcheckd_router_sync_rejected_total Synchronous checks turned away (draining, quota, or no healthy shard).
# TYPE zcheckd_router_sync_rejected_total counter
zcheckd_router_sync_rejected_total 2
# HELP zcheckd_quota_rejected_total Requests rejected by per-tenant token buckets.
# TYPE zcheckd_quota_rejected_total counter
zcheckd_quota_rejected_total 3
# HELP zcheckd_failovers_total Dispatch attempts moved to the next ring owner after a shard error.
# TYPE zcheckd_failovers_total counter
zcheckd_failovers_total 4
# HELP zcheckd_job_retries_total Async job re-dispatches after a failed attempt.
# TYPE zcheckd_job_retries_total counter
zcheckd_job_retries_total 5
# HELP zcheckd_webhooks_delivered_total Webhook callbacks delivered.
# TYPE zcheckd_webhooks_delivered_total counter
zcheckd_webhooks_delivered_total 6
# HELP zcheckd_webhooks_failed_total Webhook callbacks that could not be delivered.
# TYPE zcheckd_webhooks_failed_total counter
zcheckd_webhooks_failed_total 7
# HELP zcheckd_jobs_recovered_total Non-terminal jobs re-queued from the store at startup.
# TYPE zcheckd_jobs_recovered_total counter
zcheckd_jobs_recovered_total 8
# HELP zcheckd_store_corrupt_dispatches_total Dispatches aborted by a corrupt blob (re-ingest required).
# TYPE zcheckd_store_corrupt_dispatches_total counter
zcheckd_store_corrupt_dispatches_total 9
# HELP zcheckd_router_bytes_ingested_total Formula and proof bytes ingested into the store.
# TYPE zcheckd_router_bytes_ingested_total counter
zcheckd_router_bytes_ingested_total 10
# HELP zcheckd_router_certifications_total Completed policy=dual certifications merged at the router, by outcome.
# TYPE zcheckd_router_certifications_total counter
zcheckd_router_certifications_total{outcome="certified"} 1
zcheckd_router_certifications_total{outcome="fail"} 2
# HELP zcheckd_router_bad_requests_total Malformed submissions rejected at the router.
# TYPE zcheckd_router_bad_requests_total counter
zcheckd_router_bad_requests_total 11
# HELP zcheckd_ring_rebalances_total Consistent-hash ring membership changes (each remaps ~1/N of the key space).
# TYPE zcheckd_ring_rebalances_total counter
zcheckd_ring_rebalances_total 1
# HELP zcheckd_jobs_total Async job state transitions by state and class.
# TYPE zcheckd_jobs_total counter
zcheckd_jobs_total{state="queued",class="interactive"} 1
zcheckd_jobs_total{state="queued",class="batch"} 2
zcheckd_jobs_total{state="running",class="interactive"} 2
zcheckd_jobs_total{state="running",class="batch"} 4
zcheckd_jobs_total{state="done",class="interactive"} 3
zcheckd_jobs_total{state="done",class="batch"} 6
zcheckd_jobs_total{state="failed",class="interactive"} 4
zcheckd_jobs_total{state="failed",class="batch"} 8
# HELP zcheckd_shard_healthy Shard health as seen by the router prober (1 = on the ring).
# TYPE zcheckd_shard_healthy gauge
zcheckd_shard_healthy{shard="stub-down"} 0
zcheckd_shard_healthy{shard="stub-up"} 1
# HELP zcheckd_store_blobs Content-addressed blobs resident in the store.
# TYPE zcheckd_store_blobs gauge
zcheckd_store_blobs 1
# HELP zcheckd_store_bytes Bytes resident in the content-addressed store.
# TYPE zcheckd_store_bytes gauge
zcheckd_store_bytes 13
# HELP zcheckd_store_evictions_total Blobs evicted by the LRU disk quota.
# TYPE zcheckd_store_evictions_total counter
zcheckd_store_evictions_total 1
# HELP zcheckd_store_corruptions_total Blobs quarantined after a read-side hash mismatch.
# TYPE zcheckd_store_corruptions_total counter
zcheckd_store_corruptions_total 1
# HELP zcheckd_store_dedups_total Blob writes answered by an already-resident copy.
# TYPE zcheckd_store_dedups_total counter
zcheckd_store_dedups_total 1
`
