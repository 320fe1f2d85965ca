package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"satcheck"
	"satcheck/internal/certify"
	"satcheck/internal/cnf"
	"satcheck/internal/gen"
	"satcheck/internal/server"
	"satcheck/internal/store"
	"satcheck/internal/trace"
)

// unsatPayload solves one generated UNSAT instance into DIMACS + ASCII
// trace bytes (the same helper shape the server tests use).
func unsatPayload(t testing.TB, ins gen.Instance) (formula, traceASCII []byte) {
	t.Helper()
	run, err := satcheck.SolveWithProof(ins.F, satcheck.SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Status != satcheck.StatusUnsat {
		t.Fatalf("%s: expected UNSAT, got %v", ins.Name, run.Status)
	}
	var fb, tb bytes.Buffer
	if err := cnf.WriteDimacs(&fb, ins.F); err != nil {
		t.Fatal(err)
	}
	if err := run.Trace.Replay(trace.NewASCIIWriter(&tb)); err != nil {
		t.Fatal(err)
	}
	return fb.Bytes(), tb.Bytes()
}

func multipartBody(t testing.TB, formula, traceBytes []byte) (string, *bytes.Buffer) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, err := mw.CreateFormFile("formula", "formula.cnf")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(formula)
	tw, err := mw.CreateFormFile("trace", "proof.trace")
	if err != nil {
		t.Fatal(err)
	}
	tw.Write(traceBytes)
	mw.Close()
	return mw.FormDataContentType(), &body
}

// newTestRouter builds an N-shard local cluster with fast probes and a
// frontend httptest server.
func newTestRouter(t testing.TB, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = 20 * time.Millisecond
	}
	if cfg.ShardConfig.Workers == 0 {
		cfg.ShardConfig.Workers = 2
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, ts
}

func postSync(t testing.TB, ts *httptest.Server, query string, formula, traceBytes []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	ct, body := multipartBody(t, formula, traceBytes)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check"+query, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// formPart is one field of a hand-built multipart body.
type formPart struct {
	field string
	data  []byte
}

// postParts POSTs the parts, in order, as one multipart body to target (a
// path with its query).
func postParts(t testing.TB, ts *httptest.Server, target string, parts ...formPart) (*http.Response, []byte) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, p := range parts {
		w, err := mw.CreateFormFile(p.field, p.field+".bin")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(p.data)
	}
	mw.Close()
	resp, err := ts.Client().Post(ts.URL+target, mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func submitJob(t testing.TB, ts *httptest.Server, query string, formula, traceBytes []byte) string {
	t.Helper()
	ct, body := multipartBody(t, formula, traceBytes)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs"+query, ct, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.State != store.StateQueued {
		t.Fatalf("bad submit response: %s", data)
	}
	return sub.ID
}

// pollJob polls until the job is terminal or the deadline passes.
func pollJob(t testing.TB, ts *httptest.Server, id string, deadline time.Duration) *JobStatusResponse {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, resp.StatusCode, data)
		}
		var js JobStatusResponse
		if err := json.Unmarshal(data, &js); err != nil {
			t.Fatal(err)
		}
		if js.State == store.StateDone || js.State == store.StateFailed {
			return &js
		}
		if time.Now().After(end) {
			t.Fatalf("job %s not terminal after %v (state %s)", id, deadline, js.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSyncCheckThroughCluster proxies a real check through a 3-shard
// cluster and verifies the single-zcheckd wire contract is preserved.
func TestSyncCheckThroughCluster(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(5))
	rt, ts := newTestRouter(t, Config{Shards: 3})

	resp, data := postSync(t, ts, "?method=df&analyze=1", formula, traceBytes, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var cr server.CheckResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Verdict != server.VerdictValid {
		t.Fatalf("verdict %q: %s", cr.Verdict, data)
	}
	if cr.Stats == nil {
		t.Fatalf("analyze=1 lost in proxying: %s", data)
	}
	shard := resp.Header.Get("X-Zcheckd-Shard")
	if shard == "" {
		t.Fatal("missing X-Zcheckd-Shard header")
	}

	// Same payload again: must route to the same shard (cache affinity) and
	// hit its result cache.
	resp2, data2 := postSync(t, ts, "?method=df&analyze=1", formula, traceBytes, nil)
	if got := resp2.Header.Get("X-Zcheckd-Shard"); got != shard {
		t.Fatalf("repeat payload routed to %s, first went to %s", got, shard)
	}
	var cr2 server.CheckResponse
	if err := json.Unmarshal(data2, &cr2); err != nil {
		t.Fatal(err)
	}
	if !cr2.Cached {
		t.Fatalf("repeat check not served from shard cache: %s", data2)
	}
	if rt.Metrics().syncChecks.Load() != 2 {
		t.Fatalf("syncChecks = %d, want 2", rt.Metrics().syncChecks.Load())
	}
	if st := rt.Store().Stats(); st.Dedups == 0 {
		t.Fatalf("repeat payload should dedup in the store: %+v", st)
	}
}

// TestSyncRejectedProofProxied confirms an invalid proof comes back as a
// 200 + rejected verdict through the router, exactly like a single shard.
func TestSyncRejectedProofProxied(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(4))
	// Corrupt the trace textually: swap every antecedent list separator —
	// a trivially broken proof the shard must reject, not error on.
	bad := bytes.Replace(traceBytes, []byte(" 0 "), []byte(" 0 0 "), 1)
	_, ts := newTestRouter(t, Config{Shards: 2})
	resp, data := postSync(t, ts, "", formula, bad, nil)
	// Either a structured rejection (200 + verdict) or a 400 parse error is
	// a correct non-trusting outcome; a "valid" verdict is the only failure.
	if resp.StatusCode == http.StatusOK {
		var cr server.CheckResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Verdict == server.VerdictValid {
			t.Fatalf("mutated proof validated: %s", data)
		}
	} else if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unexpected status %d: %s", resp.StatusCode, data)
	}
}

// TestAsyncJobLifecycle runs a job through submit → poll → done and checks
// the embedded shard response plus jobs_total accounting.
func TestAsyncJobLifecycle(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(5))
	rt, ts := newTestRouter(t, Config{Shards: 2})

	id := submitJob(t, ts, "?method=hybrid&class=interactive", formula, traceBytes)
	js := pollJob(t, ts, id, 30*time.Second)
	if js.State != store.StateDone {
		t.Fatalf("job failed: %+v", js)
	}
	if js.Class != ClassInteractive || js.Shard == "" {
		t.Fatalf("bad terminal job: %+v", js)
	}
	var cr server.CheckResponse
	if err := json.Unmarshal(js.Check, &cr); err != nil {
		t.Fatalf("embedded check response: %v", err)
	}
	if cr.Verdict != server.VerdictValid {
		t.Fatalf("verdict %q", cr.Verdict)
	}
	if rt.Metrics().JobsTotal(store.StateDone) != 1 {
		t.Fatal("jobs_total{state=done} not incremented")
	}

	// Unknown job and invalid ID shapes 404 (not a path traversal).
	for _, bad := range []string{"deadbeefdeadbeefdeadbeef", "..%2F..%2Fetc"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("job %q: status %d, want 404", bad, resp.StatusCode)
		}
	}
}

// TestAsyncWebhookDelivery registers a webhook and expects the terminal
// status POSTed to it.
func TestAsyncWebhookDelivery(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(4))
	got := make(chan *JobStatusResponse, 1)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var js JobStatusResponse
		if err := json.NewDecoder(r.Body).Decode(&js); err == nil {
			select {
			case got <- &js:
			default:
			}
		}
	}))
	defer hook.Close()

	rt, ts := newTestRouter(t, Config{Shards: 1})
	id := submitJob(t, ts, "?webhook="+hook.URL, formula, traceBytes)
	select {
	case js := <-got:
		if js.ID != id || js.State != store.StateDone {
			t.Fatalf("webhook carried %+v", js)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("webhook never delivered")
	}
	waitFor(t, 5*time.Second, func() bool { return rt.Metrics().webhooksOK.Load() == 1 })
}

// TestJobRecoveryAcrossRestart persists queued jobs, tears the router
// down without running them, and expects a fresh router over the same
// store to finish them.
func TestJobRecoveryAcrossRestart(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(5))
	dir := t.TempDir()

	// Router #1: no dispatch capacity to speak of — enqueue and kill. Use
	// zero shards so jobs stay queued.
	cfg := Config{StoreDir: dir, Shards: 0, ProbeInterval: 50 * time.Millisecond,
		MaxAttempts: 100, RetryBase: 10 * time.Millisecond}
	rt1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(rt1.Handler())
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitJob(t, ts1, "", formula, traceBytes))
	}
	ts1.Close()
	// Simulate a crash: no Shutdown — just stop the workers abruptly by
	// closing the queue so nothing drains cleanly.
	rt1.queue.close()
	close(rt1.stopProbe)

	// Router #2 over the same store: must recover all three jobs and run
	// them to done.
	rt2, ts2 := newTestRouter(t, Config{StoreDir: dir, Shards: 2})
	if rec := rt2.Metrics().jobsRecovered.Load(); rec != 3 {
		t.Fatalf("recovered %d jobs, want 3", rec)
	}
	for _, id := range ids {
		js := pollJob(t, ts2, id, 30*time.Second)
		if js.State != store.StateDone {
			t.Fatalf("recovered job %s ended %s: %s", id, js.State, js.Error)
		}
	}
}

// TestSyncFailoverOnShardDeath kills the owning shard and expects the
// next request for the same payload to be answered by another shard.
func TestSyncFailoverOnShardDeath(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(5))
	rt, ts := newTestRouter(t, Config{Shards: 3})

	resp, data := postSync(t, ts, "", formula, traceBytes, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	owner := resp.Header.Get("X-Zcheckd-Shard")
	if err := rt.KillShard(owner); err != nil {
		t.Fatal(err)
	}

	resp2, data2 := postSync(t, ts, "", formula, traceBytes, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after kill: status %d: %s", resp2.StatusCode, data2)
	}
	second := resp2.Header.Get("X-Zcheckd-Shard")
	if second == owner {
		t.Fatalf("request answered by killed shard %s", owner)
	}
	var cr server.CheckResponse
	if err := json.Unmarshal(data2, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Verdict != server.VerdictValid {
		t.Fatalf("failover verdict %q", cr.Verdict)
	}
	waitFor(t, 5*time.Second, func() bool { return rt.Ring().Len() == 2 })
}

// TestFailoverPastBackpressuringShard puts a shard that probes healthy
// but answers every check with 503 first in the payload's owner list. The
// sync check and the kernel certification pipeline must each fail over
// past it, counting one failover, and no answer may come from it.
func TestFailoverPastBackpressuringShard(t *testing.T) {
	formula, traceBytes, dratBytes := dualPayload(t, gen.Pigeonhole(4))
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			json.NewEncoder(w).Encode(&server.HealthResponse{Status: "ok"})
			return
		}
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer stub.Close()
	rt, ts := newTestRouter(t, Config{Shards: 2})

	// Sync checks and the kernel pipeline share this key; keep the first
	// candidate ID the ring puts at the head of its owners.
	key := JobKey(store.HashBytes(formula), store.HashBytes(traceBytes))
	stubID := ""
	for i := 0; stubID == "" && i < 100; i++ {
		id := fmt.Sprintf("stub-%d", i)
		if err := rt.JoinShard(id, stub.URL); err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owners(key, 0)[0] == id {
			stubID = id
		} else {
			rt.RemoveShard(id)
		}
	}
	if stubID == "" {
		t.Fatal("no candidate ID heads the owner list")
	}

	resp, data := postSync(t, ts, "", formula, traceBytes, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Zcheckd-Shard") == stubID {
		t.Fatalf("sync check: status %d from %q: %s", resp.StatusCode, resp.Header.Get("X-Zcheckd-Shard"), data)
	}
	if n := rt.Metrics().failovers.Load(); n != 1 {
		t.Fatalf("failovers after the sync check = %d, want 1", n)
	}

	resp, data = postDual(t, ts, "?policy=dual", map[string][]byte{
		"formula": formula, "trace": traceBytes, "drat": dratBytes,
	})
	bundle, err := certify.ParseBundle(data)
	if resp.StatusCode != http.StatusOK || err != nil || !bundle.Certified() {
		t.Fatalf("certification: status %d (%v): %s", resp.StatusCode, err, data)
	}
	for _, v := range bundle.Checkers {
		if v.Shard == stubID {
			t.Errorf("%s verdict came from the backpressuring shard", v.Pipeline)
		}
	}
	if n := rt.Metrics().failovers.Load(); n != 2 {
		t.Fatalf("failovers after the certification = %d, want 2", n)
	}
}

// TestTenantQuota429 drives one tenant over its token bucket and expects
// 429 with Retry-After while another tenant still passes.
func TestTenantQuota429(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(4))
	rt, ts := newTestRouter(t, Config{Shards: 1, TenantRate: 0.001, TenantBurst: 2})

	greedy := map[string]string{"X-Tenant": "greedy"}
	for i := 0; i < 2; i++ {
		resp, data := postSync(t, ts, "", formula, traceBytes, greedy)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	resp, data := postSync(t, ts, "", formula, traceBytes, greedy)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.RetryAfterSec < 1 {
		t.Fatalf("bad 429 body: %s", data)
	}
	// The bucket is per-tenant: someone else still gets through.
	resp2, data2 := postSync(t, ts, "", formula, traceBytes, map[string]string{"X-Tenant": "patient"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other tenant hit the greedy tenant's limit: %d: %s", resp2.StatusCode, data2)
	}
	if rt.Metrics().quotaRejected.Load() != 1 {
		t.Fatalf("quotaRejected = %d", rt.Metrics().quotaRejected.Load())
	}
}

// TestInteractiveJumpsBatch pins the dispatch queue's priority contract:
// an interactive job pushed after a batch backlog still pops first, FIFO
// within each class, and close() drains cleanly.
func TestInteractiveJumpsBatch(t *testing.T) {
	q := newDispatchQueue()
	for i := 0; i < 3; i++ {
		q.push(fmt.Sprintf("batch-%d", i), ClassBatch)
	}
	q.push("inter-0", ClassInteractive)
	q.push("inter-1", ClassInteractive)

	want := []string{"inter-0", "inter-1", "batch-0", "batch-1", "batch-2"}
	for _, w := range want {
		id, ok := q.pop()
		if !ok || id != w {
			t.Fatalf("pop = %q,%v, want %q", id, ok, w)
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth %d after drain", q.depth())
	}

	// pop blocks until a push arrives; a concurrent pusher must wake it.
	got := make(chan string, 1)
	go func() {
		id, _ := q.pop()
		got <- id
	}()
	time.Sleep(20 * time.Millisecond)
	q.push("late", ClassBatch)
	select {
	case id := <-got:
		if id != "late" {
			t.Fatalf("blocked pop got %q", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop never woke")
	}

	q.close()
	if _, ok := q.pop(); ok {
		t.Fatal("pop after close on empty queue must report !ok")
	}
	q.push("dropped", ClassBatch) // push after close is a silent no-op
	if q.depth() != 0 {
		t.Fatal("push after close enqueued")
	}
}

// TestJoinLeaveExternalShard registers a real external zcheckd over HTTP
// join, routes through it, and removes it via leave.
func TestJoinLeaveExternalShard(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(4))
	// External shard: a standalone server.Server on a loopback port.
	ext := server.New(server.Config{Addr: "127.0.0.1:0", Workers: 2})
	addr, err := ext.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go ext.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ext.Shutdown(ctx)
	}()

	rt, ts := newTestRouter(t, Config{Shards: 0})
	body, _ := json.Marshal(JoinRequest{ID: "ext-1", URL: "http://" + addr.String()})
	resp, err := ts.Client().Post(ts.URL+"/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, func() bool { return rt.Ring().Len() == 1 })

	cresp, data := postSync(t, ts, "", formula, traceBytes, nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("check via joined shard: %d: %s", cresp.StatusCode, data)
	}
	if got := cresp.Header.Get("X-Zcheckd-Shard"); got != "ext-1" {
		t.Fatalf("answered by %q, want ext-1", got)
	}

	leave, _ := json.Marshal(JoinRequest{ID: "ext-1"})
	resp2, err := ts.Client().Post(ts.URL+"/cluster/leave", "application/json", bytes.NewReader(leave))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if rt.Ring().Len() != 0 {
		t.Fatal("shard still on ring after leave")
	}
	// With no shards, sync checks get 503 + Retry-After, not hangs.
	cresp3, _ := postSync(t, ts, "", formula, traceBytes, nil)
	if cresp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty cluster answered %d, want 503", cresp3.StatusCode)
	}
}

// TestRouterMetricsEndpoint scrapes /metrics and spot-checks the cluster
// metric families, including per-shard health labels.
func TestRouterMetricsEndpoint(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(4))
	_, ts := newTestRouter(t, Config{Shards: 2})
	postSync(t, ts, "", formula, traceBytes, nil)
	id := submitJob(t, ts, "", formula, traceBytes)
	pollJob(t, ts, id, 30*time.Second)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"zcheckd_router_sync_checks_total 1",
		`zcheckd_jobs_total{state="done",class="batch"} 1`,
		`zcheckd_shard_healthy{shard="shard-1"} 1`,
		`zcheckd_shard_healthy{shard="shard-2"} 1`,
		"zcheckd_ring_rebalances_total 2",
		"zcheckd_store_blobs",
		"zcheckd_store_dedups_total",
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestRouterHealthz checks the shard table in /healthz.
func TestRouterHealthz(t *testing.T) {
	rt, ts := newTestRouter(t, Config{Shards: 2})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.RingSize != 2 || len(h.Shards) != 2 {
		t.Fatalf("healthz: %+v", h)
	}
	for _, sh := range h.Shards {
		if !sh.Healthy || !sh.OnRing || !sh.Local {
			t.Fatalf("shard row: %+v", sh)
		}
	}
	_ = rt
}

// TestBadRequestsAtRouter exercises router-side validation: bad options,
// bad class, bad webhook, missing parts.
func TestBadRequestsAtRouter(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(4))
	_, ts := newTestRouter(t, Config{Shards: 1})

	cases := []struct {
		name, path, query string
	}{
		{"bad method", "/v1/check", "?method=nope"},
		{"bad class", "/v1/jobs", "?class=vip"},
		{"bad webhook", "/v1/jobs", "?webhook=not-a-url"},
	}
	for _, tc := range cases {
		ct, body := multipartBody(t, formula, traceBytes)
		resp, err := ts.Client().Post(ts.URL+tc.path+tc.query, ct, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Missing trace part.
	var b bytes.Buffer
	mw := multipart.NewWriter(&b)
	fw, _ := mw.CreateFormFile("formula", "f.cnf")
	fw.Write(formula)
	mw.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/check", mw.FormDataContentType(), &b)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing part: status %d, want 400", resp.StatusCode)
	}
	// The router takes exactly zcheckd's fields: "proof" is not one.
	resp, data := postParts(t, ts, "/v1/check", formPart{"formula", formula}, formPart{"proof", traceBytes})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("proof part: status %d, want 400: %s", resp.StatusCode, data)
	}
	_ = traceBytes
}

// TestRouterBodyTooLarge requires zcheckd's 413 from every submission
// endpoint of the router, counted as a bad request.
func TestRouterBodyTooLarge(t *testing.T) {
	rt, ts := newTestRouter(t, Config{Shards: 1, MaxBodyBytes: 512})
	big := formPart{"formula", bytes.Repeat([]byte("c padding\n"), 100)}
	for _, target := range []string{"/v1/check", "/v1/jobs", "/v1/check?policy=dual"} {
		resp, data := postParts(t, ts, target, big)
		var er server.ErrorResponse
		json.Unmarshal(data, &er)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Error != "request body exceeds 512 bytes" {
			t.Errorf("%s: status %d: %s", target, resp.StatusCode, data)
		}
	}
	if n := rt.Metrics().badRequests.Load(); n != 3 {
		t.Errorf("bad requests = %d, want 3", n)
	}
}

// TestIngestReleasesPins ends a submission every way it can end, refused
// mid-ingest or answered, and then overflows the store quota: the formula
// blob must be evicted, since a leaked pin would keep it resident.
func TestIngestReleasesPins(t *testing.T) {
	formula, traceBytes, dratBytes := dualPayload(t, gen.Pigeonhole(4))
	const quota, limit = 4 << 10, 8 << 10
	rt, ts := newTestRouter(t, Config{Shards: 1, StoreQuotaBytes: quota, MaxBodyBytes: limit})
	f := formPart{"formula", formula}
	refused := func(target string, parts ...formPart) {
		t.Helper()
		if resp, data := postParts(t, ts, target, parts...); resp.StatusCode/100 != 4 {
			t.Fatalf("%s: status %d, want a 4xx refusal: %s", target, resp.StatusCode, data)
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"duplicate part", func() { refused("/v1/check", f, f) }},
		{"missing part", func() { refused("/v1/check?policy=dual", f, formPart{"trace", traceBytes}) }},
		{"oversize body", func() { refused("/v1/jobs", f, formPart{"trace", make([]byte, limit)}) }},
		{"sync check", func() {
			if resp, data := postSync(t, ts, "", formula, traceBytes, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
		}},
		{"dual certification", func() {
			resp, data := postDual(t, ts, "?policy=dual", map[string][]byte{
				"formula": formula, "trace": traceBytes, "drat": dratBytes,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
		}},
		{"async job", func() {
			if js := pollJob(t, ts, submitJob(t, ts, "", formula, traceBytes), 30*time.Second); js.State != store.StateDone {
				t.Fatalf("job ended %s: %s", js.State, js.Error)
			}
		}},
	} {
		tc.run()
		if _, _, err := rt.Store().PutBytes(bytes.Repeat([]byte{'x'}, quota+1)); err != nil {
			t.Fatal(err)
		}
		if rt.Store().Has(store.HashBytes(formula)) {
			t.Errorf("%s: formula blob outlived the quota; its pin leaked", tc.name)
		}
	}
}

// TestDispatchAfterQuarantine dispatches parts whose trace blob an earlier
// dispatch quarantined. A pinned blob leaves the store only that way, so
// the walk must end at once as it does for a corrupt read: no failover
// past shards that are fine, one corrupt dispatch counted, and an async
// job over the blob fails on its first attempt without a retry.
func TestDispatchAfterQuarantine(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(4))
	rt, _ := newTestRouter(t, Config{Shards: 3})
	var parts []storePart
	for _, p := range []formPart{{"formula", formula}, {"trace", traceBytes}} {
		h, _, err := rt.Store().PutPinned(bytes.NewReader(p.data))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, storePart{p.field, h})
	}
	corruptBlobOnDisk(t, rt.Store(), parts[1].hash)
	owners := rt.Ring().Owners(JobKey(parts[0].hash, parts[1].hash), 0)
	for i := 1; i <= 2; i++ {
		if _, err := rt.dispatch(context.Background(), owners, "", "", parts); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("dispatch %d: err %v, want store.ErrCorrupt", i, err)
		}
		if n := rt.Metrics().failovers.Load(); n != 0 {
			t.Fatalf("dispatch %d: %d failovers, want 0", i, n)
		}
		if n := rt.Metrics().corruptRestarts.Load(); n != int64(i) {
			t.Fatalf("dispatch %d: %d corrupt dispatches, want %d", i, n, i)
		}
	}
	if rt.Store().Has(parts[1].hash) {
		t.Fatal("corrupt blob still resident")
	}

	now := time.Now().UTC()
	rec := &store.JobRecord{ID: store.NewJobID(), Class: ClassBatch, FormulaHash: parts[0].hash,
		ProofHash: parts[1].hash, State: store.StateQueued, Created: now, Updated: now}
	if err := rt.Store().PutJob(rec); err != nil {
		t.Fatal(err)
	}
	rt.queue.push(rec.ID, rec.Class)
	waitFor(t, 10*time.Second, func() bool {
		got, err := rt.Store().GetJob(rec.ID)
		return err == nil && got.Terminal()
	})
	got, _ := rt.Store().GetJob(rec.ID)
	const want = "stored payload failed hash verification before dispatch; resubmit"
	if got.State != store.StateFailed || got.Error != want || got.Attempts != 0 {
		t.Fatalf("job ended %s after %d retries: %q", got.State, got.Attempts, got.Error)
	}
	if n := rt.Metrics().retries.Load(); n != 0 {
		t.Fatalf("%d job retries, want 0", n)
	}
}

// TestShutdownWaitsOutRetryBackoff shuts the router down while a job waits
// out its retry backoff. The job is neither queued nor running then, but
// Shutdown must still let it reach a terminal state within the deadline.
func TestShutdownWaitsOutRetryBackoff(t *testing.T) {
	formula, traceBytes := unsatPayload(t, gen.Pigeonhole(4))
	// Not newTestRouter: its cleanup shuts the router down, and Shutdown
	// runs once.
	rt, err := New(Config{StoreDir: t.TempDir(), Shards: 1, RetryBase: 200 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond, ShardConfig: server.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	if err := rt.KillShard("shard-1"); err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, ts, "", formula, traceBytes)
	waitFor(t, 5*time.Second, func() bool { return rt.Metrics().retries.Load() == 1 })
	if _, err := rt.AddLocalShard(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	rt.Shutdown(ctx)
	rec, err := rt.Store().GetJob(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != store.StateDone {
		t.Fatalf("Shutdown returned after %v with the job %s, attempts %d: %s",
			time.Since(start), rec.State, rec.Attempts, rec.Error)
	}
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t testing.TB, d time.Duration, cond func() bool) {
	t.Helper()
	end := time.Now().Add(d)
	for !cond() {
		if time.Now().After(end) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
