package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"satcheck"
	"satcheck/internal/cnf"
	"satcheck/internal/faults"
	"satcheck/internal/gen"
	"satcheck/internal/trace"
)

// unsatPayload solves one generated UNSAT instance and returns its DIMACS
// and ASCII-trace bytes, plus the in-memory trace for fault injection.
func unsatPayload(t testing.TB, ins gen.Instance) (formula []byte, traceASCII []byte, mt *satcheck.MemoryTrace, f *satcheck.Formula) {
	t.Helper()
	run, err := satcheck.SolveWithProof(ins.F, satcheck.SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Status != satcheck.StatusUnsat {
		t.Fatalf("%s: expected UNSAT, got %v", ins.Name, run.Status)
	}
	var fb bytes.Buffer
	if err := cnf.WriteDimacs(&fb, ins.F); err != nil {
		t.Fatal(err)
	}
	return fb.Bytes(), traceToASCII(t, run.Trace), run.Trace, ins.F
}

func traceToASCII(t testing.TB, mt *satcheck.MemoryTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mt.Replay(trace.NewASCIIWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// multipartBody builds a formula+trace request body.
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

func postCheck(t testing.TB, ts *httptest.Server, query string, contentType string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/check"+query, contentType, body)
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

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// TestCheckEndToEnd drives every method over a real proof and checks the
// structured verdict, including proofstat analytics and the extracted core.
func TestCheckEndToEnd(t *testing.T) {
	formula, traceBytes, _, f := unsatPayload(t, gen.Pigeonhole(5))
	_, ts := newTestServer(t, Config{Workers: 2})

	for _, method := range []string{"df", "bf", "hybrid"} {
		ct, body := multipartBody(t, formula, traceBytes)
		resp, data := postCheck(t, ts, "?method="+method+"&analyze=1&core=1", ct, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("method %s: status %d: %s", method, resp.StatusCode, data)
		}
		var cr CheckResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatalf("method %s: bad JSON: %v", method, err)
		}
		if cr.Verdict != VerdictValid {
			t.Fatalf("method %s: verdict %q: %s", method, cr.Verdict, data)
		}
		if cr.Result == nil || cr.Result.LearnedTotal == 0 {
			t.Errorf("method %s: missing result stats: %s", method, data)
		}
		if cr.Stats == nil || cr.Stats.NumOriginal != f.NumClauses() {
			t.Errorf("method %s: missing/wrong proof stats: %s", method, data)
		}
		if method != "bf" {
			if cr.Result.CoreSize == 0 || len(cr.Result.CoreClauses) != cr.Result.CoreSize {
				t.Errorf("method %s: core missing: %s", method, data)
			}
		}
	}
}

// TestCheckRejectsFaultInjectedTraces posts fault-injected corruptions.
// Every fault class must come back as HTTP 200 with well-formed JSON —
// never a 500 — and the structural classes (which no checker can mistake
// for a proof; see internal/faults tests) must be rejected with a failure
// kind. Across the whole catalogue at least one rejection per class family
// is required via the all-clauses breadth-first checker.
func TestCheckRejectsFaultInjectedTraces(t *testing.T) {
	formula, _, mt, _ := unsatPayload(t, gen.Pigeonhole(5))
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: -1})

	structural := map[string]bool{
		"truncated-trace": true, "sourceless-learned-clause": true, "drop-learned-clause": true,
	}
	applied, rejectedTotal := 0, 0
	for _, m := range faults.All() {
		rejected := false
		for seed := int64(0); seed < 4; seed++ {
			bad, ok := faults.Inject(m, mt, seed)
			if !ok {
				// Not applicable at this seed: say so rather than letting the
				// skip masquerade as a rejection in the totals below.
				t.Logf("fault %s: seed %d not applicable, skipped", m.Name, seed)
				continue
			}
			applied++
			ct, body := multipartBody(t, formula, traceToASCII(t, bad))
			resp, data := postCheck(t, ts, "?method=bf", ct, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fault %s: status %d (structured rejection, not a 5xx, expected): %s", m.Name, resp.StatusCode, data)
			}
			var cr CheckResponse
			if err := json.Unmarshal(data, &cr); err != nil {
				t.Fatal(err)
			}
			if cr.Verdict == VerdictRejected {
				rejected = true
				rejectedTotal++
				if cr.Failure == nil || cr.Failure.Kind == "" || cr.Failure.Detail == "" {
					t.Errorf("fault %s: rejection lacks structured diagnostic: %s", m.Name, data)
				}
			}
		}
		if structural[m.Name] && !rejected {
			t.Errorf("fault %s: structural corruption was never rejected", m.Name)
		}
	}
	if applied < 8 {
		t.Fatalf("only %d injections applied; corpus too small", applied)
	}
	if rejectedTotal == 0 {
		t.Fatal("no fault-injected trace was rejected at all")
	}
}

// TestCheckCacheHit posts the identical request twice: the second answer
// must come from the cache and the metrics must say so.
func TestCheckCacheHit(t *testing.T) {
	formula, traceBytes, _, _ := unsatPayload(t, gen.CECAdder(8))
	s, ts := newTestServer(t, Config{Workers: 1})

	for i, wantCached := range []bool{false, true} {
		ct, body := multipartBody(t, formula, traceBytes)
		resp, data := postCheck(t, ts, "?method=bf", ct, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
		var cr CheckResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Cached != wantCached {
			t.Fatalf("request %d: cached=%v, want %v", i, cr.Cached, wantCached)
		}
	}
	// Different options must be a different cache key.
	ct, body := multipartBody(t, formula, traceBytes)
	_, data := postCheck(t, ts, "?method=df", ct, body)
	var cr CheckResponse
	json.Unmarshal(data, &cr)
	if cr.Cached {
		t.Errorf("df after bf should miss the cache: %s", data)
	}

	if hits := s.metrics.cacheHits.Load(); hits != 1 {
		t.Errorf("cacheHits = %d, want 1", hits)
	}
	if misses := s.metrics.cacheMisses.Load(); misses != 2 {
		t.Errorf("cacheMisses = %d, want 2", misses)
	}
}

// TestBackpressureQueueFull pins the single worker, fills the one-slot
// queue, and requires the next request to bounce with 429 + Retry-After.
func TestBackpressureQueueFull(t *testing.T) {
	formula, traceBytes, _, _ := unsatPayload(t, gen.Pigeonhole(4))
	s := New(Config{Workers: 1, QueueSize: 1, CacheEntries: -1})
	gate := make(chan struct{})
	s.pool.beforeRun = func(*job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	var wg sync.WaitGroup
	send := func() {
		defer wg.Done()
		ct, body := multipartBody(t, formula, traceBytes)
		resp, _ := postCheck(t, ts, "", ct, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pinned request: status %d", resp.StatusCode)
		}
	}

	// First request: occupies the worker (blocked at the gate).
	wg.Add(1)
	go send()
	waitFor(t, func() bool { return s.metrics.jobsRunning.Load() == 1 })

	// Second request: sits in the queue.
	wg.Add(1)
	go send()
	waitFor(t, func() bool { return s.queue.Depth() == 1 })

	// Third request: queue full — 429 with Retry-After.
	ct, body := multipartBody(t, formula, traceBytes)
	resp, data := postCheck(t, ts, "", ct, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.RetryAfterSec < 1 {
		t.Errorf("429 body lacks retry_after_sec: %s", data)
	}
	if got := s.metrics.jobsRejected.Load(); got != 1 {
		t.Errorf("jobsRejected = %d, want 1", got)
	}
	// The gauge and /healthz both read the one queued request.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mdata), "\nzcheckd_queue_depth 1\n") {
		t.Errorf("/metrics does not read zcheckd_queue_depth 1:\n%s", mdata)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil || h.QueueDepth != 1 {
		t.Errorf("/healthz queue_depth = %d (%v), want 1", h.QueueDepth, err)
	}

	close(gate)
	wg.Wait()
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestCheckDeadline gives a job a 30ms budget and stalls the worker past
// it: the answer must be 504, not a hung connection.
func TestCheckDeadline(t *testing.T) {
	formula, traceBytes, _, _ := unsatPayload(t, gen.Pigeonhole(4))
	s := New(Config{Workers: 1, CacheEntries: -1})
	s.pool.beforeRun = func(j *job) { <-j.ctx.Done() }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	ct, body := multipartBody(t, formula, traceBytes)
	resp, data := postCheck(t, ts, "?timeout_ms=30", ct, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	if got := s.metrics.jobsFailed.Load(); got != 1 {
		t.Errorf("jobsFailed = %d, want 1", got)
	}
}

// TestMetricsEndpoint checks the Prometheus text rendering reflects real
// traffic: completions, cache hits, histogram count.
func TestMetricsEndpoint(t *testing.T) {
	formula, traceBytes, _, _ := unsatPayload(t, gen.Pigeonhole(4))
	_, ts := newTestServer(t, Config{Workers: 1})

	for i := 0; i < 2; i++ {
		ct, body := multipartBody(t, formula, traceBytes)
		if resp, data := postCheck(t, ts, "", ct, body); resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"zcheckd_jobs_completed_total 1",
		"zcheckd_cache_hits_total 1",
		"zcheckd_cache_misses_total 1",
		"zcheckd_check_seconds_count 1",
		"zcheckd_jobs_rejected_total 0",
		"zcheckd_queue_depth 0",
		"zcheckd_bytes_ingested_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHealthzAndDrain covers /healthz in both lifecycle states and the
// draining 503 on new checks.
func TestHealthzAndDrain(t *testing.T) {
	formula, traceBytes, _, _ := unsatPayload(t, gen.Pigeonhole(4))
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != 200 || h.Status != "ok" || h.Workers != 1 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}

	ct, body := multipartBody(t, formula, traceBytes)
	resp2, data := postCheck(t, ts, "", ct, body)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("check while draining: %d, want 503: %s", resp2.StatusCode, data)
	}
}

// TestCheckBadRequests covers the 400 family: missing parts, garbage
// formula, garbage trace, bad options, non-multipart bodies.
func TestCheckBadRequests(t *testing.T) {
	formula, traceBytes, _, _ := unsatPayload(t, gen.Pigeonhole(4))
	_, ts := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name  string
		query string
		build func(t *testing.T) (string, *bytes.Buffer)
	}{
		{"missing trace", "", func(t *testing.T) (string, *bytes.Buffer) {
			var body bytes.Buffer
			mw := multipart.NewWriter(&body)
			fw, _ := mw.CreateFormFile("formula", "f.cnf")
			fw.Write(formula)
			mw.Close()
			return mw.FormDataContentType(), &body
		}},
		{"missing formula", "", func(t *testing.T) (string, *bytes.Buffer) {
			var body bytes.Buffer
			mw := multipart.NewWriter(&body)
			tw, _ := mw.CreateFormFile("trace", "p.trace")
			tw.Write(traceBytes)
			mw.Close()
			return mw.FormDataContentType(), &body
		}},
		{"garbage formula", "", func(t *testing.T) (string, *bytes.Buffer) {
			ct, body := multipartBody(t, []byte("this is not dimacs\n"), traceBytes)
			return ct, body
		}},
		{"garbage trace", "", func(t *testing.T) (string, *bytes.Buffer) {
			ct, body := multipartBody(t, formula, []byte("\x00\x01\x02garbage"))
			return ct, body
		}},
		{"bad method", "?method=quantum", func(t *testing.T) (string, *bytes.Buffer) {
			ct, body := multipartBody(t, formula, traceBytes)
			return ct, body
		}},
		{"bad timeout", "?timeout_ms=-3", func(t *testing.T) (string, *bytes.Buffer) {
			ct, body := multipartBody(t, formula, traceBytes)
			return ct, body
		}},
		{"not multipart", "", func(t *testing.T) (string, *bytes.Buffer) {
			return "application/json", bytes.NewBuffer([]byte(`{}`))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct, body := tc.build(t)
			resp, data := postCheck(t, ts, tc.query, ct, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
			}
			var er ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
				t.Errorf("400 without JSON error body: %s", data)
			}
		})
	}
}

// TestCheckBodyTooLarge enforces MaxBodyBytes with a 413.
func TestCheckBodyTooLarge(t *testing.T) {
	formula, traceBytes, _, _ := unsatPayload(t, gen.Pigeonhole(4))
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})
	ct, body := multipartBody(t, formula, traceBytes)
	if body.Len() <= 512 {
		t.Fatalf("test payload too small (%d bytes) to trip the limit", body.Len())
	}
	resp, data := postCheck(t, ts, "", ct, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
}

// TestConcurrentMixedTraffic hammers one server with distinct formulas,
// repeat requests, and corrupt traces from many goroutines — the race
// detector's view of the whole subsystem.
func TestConcurrentMixedTraffic(t *testing.T) {
	instances := []gen.Instance{
		gen.Pigeonhole(4),
		gen.Pigeonhole(5),
		gen.CECAdder(8),
		gen.TseitinCharge(10, 3),
	}
	type payload struct {
		formula, trace []byte
		corrupt        []byte
	}
	payloads := make([]payload, len(instances))
	for i, ins := range instances {
		formula, tb, mt, _ := unsatPayload(t, ins)
		payloads[i] = payload{formula: formula, trace: tb}
		// truncated-trace is structural: every checker must reject it.
		m, err := faults.ByName("truncated-trace")
		if err != nil {
			t.Fatal(err)
		}
		bad, ok := faults.Inject(m, mt, int64(i))
		if !ok {
			// truncated-trace applies to any non-empty trace; a skip here
			// would silently drop the corrupt payload from the stress mix.
			t.Fatalf("truncated-trace did not apply to %s", ins.Name)
		}
		payloads[i].corrupt = traceToASCII(t, bad)
	}

	_, ts := newTestServer(t, Config{Workers: 4, QueueSize: 128})
	methods := []string{"df", "bf", "hybrid"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				p := payloads[(g+i)%len(payloads)]
				q := "?method=" + methods[(g+i)%len(methods)]
				tb, want := p.trace, VerdictValid
				if p.corrupt != nil && i%3 == 2 {
					tb, want = p.corrupt, VerdictRejected
				}
				ct, body := multipartBody(t, p.formula, tb)
				resp, data := postCheck(t, ts, q, ct, body)
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // backpressure is a legitimate answer
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, data)
					return
				}
				var cr CheckResponse
				if err := json.Unmarshal(data, &cr); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if cr.Verdict != want {
					t.Errorf("goroutine %d: verdict %q, want %q: %s", g, cr.Verdict, want, data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCheckGzipBinaryTrace verifies the service accepts the other trace
// encodings by auto-detection, exactly like the file-based tools.
func TestCheckGzipBinaryTrace(t *testing.T) {
	formula, _, mt, _ := unsatPayload(t, gen.Pigeonhole(4))
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})

	encodings := map[string]func(w io.Writer) trace.Sink{
		"binary": func(w io.Writer) trace.Sink { return trace.NewBinaryWriter(w) },
		"gzip-ascii": func(w io.Writer) trace.Sink {
			return trace.NewGzipSink(w, func(w2 io.Writer) trace.Sink { return trace.NewASCIIWriter(w2) })
		},
		"gzip-binary": func(w io.Writer) trace.Sink {
			return trace.NewGzipSink(w, func(w2 io.Writer) trace.Sink { return trace.NewBinaryWriter(w2) })
		},
	}
	for name, encode := range encodings {
		var buf bytes.Buffer
		if err := mt.Replay(encode(&buf)); err != nil {
			t.Fatal(err)
		}
		ct, body := multipartBody(t, formula, buf.Bytes())
		resp, data := postCheck(t, ts, "?method=hybrid", ct, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		var cr CheckResponse
		json.Unmarshal(data, &cr)
		if cr.Verdict != VerdictValid {
			t.Errorf("%s: verdict %q: %s", name, cr.Verdict, data)
		}
	}
}

// TestServeAndShutdown exercises the real listener path: Listen on :0,
// Serve, answer one request, then drain.
func TestServeAndShutdown(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", Workers: 1})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz over TCP: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// drupPayload solves an instance with a clausal DRUP sink and returns the
// DIMACS formula bytes, the DRUP proof bytes, and the formula.
func drupPayload(t testing.TB, ins gen.Instance) (formula, proof []byte, f *satcheck.Formula) {
	t.Helper()
	var buf bytes.Buffer
	st, _, err := satcheck.SolveWithDRUP(ins.F, satcheck.SolverOptions{}, satcheck.NewDRATWriter(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if st != satcheck.StatusUnsat {
		t.Fatalf("%s: expected UNSAT, got %v", ins.Name, st)
	}
	var fb bytes.Buffer
	if err := cnf.WriteDimacs(&fb, ins.F); err != nil {
		t.Fatal(err)
	}
	return fb.Bytes(), buf.Bytes(), ins.F
}

// TestCheckClausalFormats exercises the daemon's clausal-proof path: DRUP
// bodies checked forward and backward, the LRAT bridge output re-checked by
// the hint-following verifier, clausal analytics, structured rejection of a
// bogus proof, a 400 on an unknown format token, and the per-format
// metrics counter.
func TestCheckClausalFormats(t *testing.T) {
	formula, proof, f := drupPayload(t, gen.Pigeonhole(5))
	s, ts := newTestServer(t, Config{Workers: 2})

	// bf → forward (no core); hybrid → backward (core as a by-product).
	for _, tc := range []struct {
		method   string
		wantCore bool
	}{{"bf", false}, {"hybrid", true}} {
		ct, body := multipartBody(t, formula, proof)
		resp, data := postCheck(t, ts, "?format=drat&method="+tc.method+"&analyze=1&core=1", ct, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("format=drat method=%s: HTTP %d: %s", tc.method, resp.StatusCode, data)
		}
		var cr CheckResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Verdict != VerdictValid {
			t.Fatalf("format=drat method=%s: verdict %q: %s", tc.method, cr.Verdict, data)
		}
		if cr.Format != "drat" {
			t.Errorf("format echo: got %q, want drat", cr.Format)
		}
		if tc.wantCore && cr.Result.CoreSize == 0 {
			t.Errorf("backward DRAT check returned no core: %s", data)
		}
		if cr.Stats == nil || cr.Stats.NumLearned == 0 {
			t.Errorf("analyze=1 returned no clausal stats: %s", data)
		}
	}

	// Bridge the same proof to LRAT and let the daemon's independent
	// hint-following checker re-verify it.
	var lrat bytes.Buffer
	if _, err := satcheck.DRATToLRAT(f, satcheck.ProofBytesSource(proof), &lrat, satcheck.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	ct, body := multipartBody(t, formula, lrat.Bytes())
	resp, data := postCheck(t, ts, "?format=lrat&analyze=1&core=1", ct, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("format=lrat: HTTP %d: %s", resp.StatusCode, data)
	}
	var cr CheckResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Verdict != VerdictValid || cr.Format != "lrat" {
		t.Fatalf("format=lrat: verdict %q format %q: %s", cr.Verdict, cr.Format, data)
	}
	if cr.Stats == nil || cr.Stats.Depth == 0 {
		t.Errorf("LRAT analyze returned no hint-graph stats: %s", data)
	}
	// The kernel's hint closure is the LRAT core; core=1 lists it.
	if r := cr.Result; r.CoreSize == 0 || len(r.CoreClauses) != r.CoreSize || r.CoreVars == 0 {
		t.Errorf("format=lrat&core=1 returned no core list: %s", data)
	}

	// A proof body that never derives the empty clause is a structured
	// rejection — HTTP 200 with verdict "rejected", not a transport error.
	ct, body = multipartBody(t, formula, []byte("1 2 3 0\n"))
	resp, data = postCheck(t, ts, "?format=drat", ct, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bogus DRUP: HTTP %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Verdict != VerdictRejected || cr.Failure == nil || cr.Failure.Kind == "" {
		t.Fatalf("bogus DRUP: want structured rejection, got %s", data)
	}

	// Unknown format tokens are client errors.
	ct, body = multipartBody(t, formula, proof)
	resp, data = postCheck(t, ts, "?format=nope", ct, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=nope: HTTP %d (want 400): %s", resp.StatusCode, data)
	}

	// The per-format counters observed every completed clausal check.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	mresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	mdata, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`zcheckd_checks_by_format_total{format="drat"} 3`,
		`zcheckd_checks_by_format_total{format="lrat"} 1`,
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics missing %q:\n%s", want, mdata)
		}
	}
	_ = s
}

// TestParseJobOptionsPairs pins the checkable (format, method) pairs at
// the query layer: ParseJobOptions refuses bdd with any format but er and
// ooc with er, before a body is read, and accepts every other pair.
func TestParseJobOptionsPairs(t *testing.T) {
	for _, format := range []string{"native", "drat", "lrat", "er", "tc"} {
		for _, method := range []string{"df", "bf", "hybrid", "parallel", "bdd", "kernel", "ooc"} {
			refused := method == "bdd" && format != "er" || method == "ooc" && format == "er"
			o, err := ParseJobOptions(url.Values{"format": {format}, "method": {method}})
			if (err != nil) != refused {
				t.Errorf("format=%s&method=%s: err = %v, want refused=%v", format, method, err, refused)
			}
			if err == nil && (o.Format.String() != format || o.Method.Name() != method) {
				t.Errorf("format=%s&method=%s parsed as %s/%s", format, method, o.Format, o.Method.Name())
			}
		}
	}
}

// TestCheckTraceCheckFormat drives format=tc end to end: a TraceCheck
// export is valid with the kernel's core and no proof_stats even with
// analyze=1, a lone empty original is a structured rejection, and the
// completed checks land in the per-format counter.
func TestCheckTraceCheckFormat(t *testing.T) {
	ins := gen.Pigeonhole(4)
	run, err := satcheck.SolveWithProof(ins.F, satcheck.SolverOptions{})
	if err != nil || run.Status != satcheck.StatusUnsat {
		t.Fatalf("solve: %v, %v", run.Status, err)
	}
	var fb, tc bytes.Buffer
	if err := cnf.WriteDimacs(&fb, ins.F); err != nil {
		t.Fatal(err)
	}
	if err := satcheck.ExportTraceCheck(ins.F, run.Trace, &tc); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	for proof, want := range map[string]string{tc.String(): VerdictValid, "1 0 0\n": VerdictRejected} {
		ct, body := multipartBody(t, fb.Bytes(), []byte(proof))
		resp, data := postCheck(t, ts, "?format=tc&analyze=1", ct, body)
		var cr CheckResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &cr) != nil {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		switch {
		case cr.Verdict != want || cr.Format != "tc" || cr.Stats != nil:
			t.Errorf("verdict %q format %q stats %v, want %q tc nil: %s", cr.Verdict, cr.Format, cr.Stats, want, data)
		case want == VerdictValid && (cr.Result == nil || cr.Result.CoreSize != ins.F.NumClauses()):
			t.Errorf("want the kernel's core of all %d clauses: %s", ins.F.NumClauses(), data)
		case want == VerdictRejected && (cr.Failure == nil || cr.Failure.Kind != "malformed-trace"):
			t.Errorf("want a malformed-trace rejection: %s", data)
		}
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil || !strings.Contains(string(mdata), `zcheckd_checks_by_format_total{format="tc"} 2`) {
		t.Errorf("metrics (%v) miss two tc checks:\n%s", err, mdata)
	}
}

// erPayload solves one UNSAT instance with the BDD backend and returns its
// DIMACS and ER-proof bytes.
func erPayload(t testing.TB, ins gen.Instance) (formula []byte, proof []byte) {
	t.Helper()
	res, err := satcheck.SolveBDD(ins.F, satcheck.BDDOptions{Proof: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != satcheck.StatusUnsat {
		t.Fatalf("%s: expected UNSAT, got %v", ins.Name, res.Status)
	}
	var fb, pb bytes.Buffer
	if err := cnf.WriteDimacs(&fb, ins.F); err != nil {
		t.Fatal(err)
	}
	if err := satcheck.WriteERProof(&pb, res.Proof); err != nil {
		t.Fatal(err)
	}
	return fb.Bytes(), pb.Bytes()
}

// TestCheckERFormat drives the BDD method end to end: an extended-resolution
// proof validated through the ER→LRAT bridge, the format/method echoes, the
// ER-specific analytics, structured rejection of a corrupted proof, the
// method/format parameter contract, and the per-method metric.
func TestCheckERFormat(t *testing.T) {
	formula, proof := erPayload(t, gen.Pigeonhole(4))
	s, ts := newTestServer(t, Config{Workers: 2})

	// method=bdd and format=er are the same check — both spellings must
	// work, and they normalize to the same cache key, so the second
	// spelling is served from cache.
	for i, query := range []string{"?method=bdd&analyze=1", "?format=er&analyze=1"} {
		ct, body := multipartBody(t, formula, proof)
		resp, data := postCheck(t, ts, query, ct, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", query, resp.StatusCode, data)
		}
		var cr CheckResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Verdict != VerdictValid {
			t.Fatalf("%s: verdict %q: %s", query, cr.Verdict, data)
		}
		if cr.Format != "er" {
			t.Errorf("%s: format echo %q, want er", query, cr.Format)
		}
		if cr.Stats == nil || cr.Stats.Extensions == 0 || cr.Stats.ExtDepthMax == 0 {
			t.Errorf("%s: analyze=1 returned no ER analytics: %s", query, data)
		}
		if cr.Cached != (i == 1) {
			t.Errorf("%s: cached=%v, want %v", query, cr.Cached, i == 1)
		}
	}

	// Corrupting a definition line breaks the bridge's candidate groups: a
	// structured rejection, not a transport error.
	mutated := bytes.Replace(proof, []byte(" e "), []byte(" e -"), 1)
	if bytes.Equal(mutated, proof) {
		t.Fatal("proof contains no definition line to corrupt")
	}
	ct, body := multipartBody(t, formula, mutated)
	resp, data := postCheck(t, ts, "?method=bdd", ct, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutated ER proof: HTTP %d: %s", resp.StatusCode, data)
	}
	var cr CheckResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Verdict != VerdictRejected || cr.Failure == nil || cr.Failure.Kind == "" {
		t.Fatalf("mutated ER proof: want structured rejection, got %s", data)
	}

	// method=bdd is the ER bridge check; pairing it with another proof
	// encoding is a client error.
	ct, body = multipartBody(t, formula, proof)
	resp, data = postCheck(t, ts, "?method=bdd&format=drat", ct, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("method=bdd&format=drat: HTTP %d (want 400): %s", resp.StatusCode, data)
	}

	// Completed checks land in both the per-format and per-method counters
	// (cache hits do not).
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`zcheckd_checks_by_format_total{format="er"} 2`,
		`zcheckd_checks_by_method_total{method="bdd"} 2`,
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics missing %q:\n%s", want, mdata)
		}
	}
	_ = s
}
