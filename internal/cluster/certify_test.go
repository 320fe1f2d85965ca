package cluster

import (
	"bytes"
	"context"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"satcheck"
	"satcheck/internal/certify"
	"satcheck/internal/cnf"
	"satcheck/internal/gen"
	"satcheck/internal/store"
)

// dualPayload solves one UNSAT instance twice — once for the native trace
// (kernel pipeline), once for the clausal DRUP proof (rup pipeline) — and
// returns the three artifacts a certification request carries.
func dualPayload(t testing.TB, ins gen.Instance) (formula, traceBytes, dratBytes []byte) {
	t.Helper()
	formula, traceBytes = unsatPayload(t, ins)
	var buf bytes.Buffer
	st, _, err := satcheck.SolveWithDRUP(ins.F, satcheck.SolverOptions{}, satcheck.NewDRATWriter(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if st != satcheck.StatusUnsat {
		t.Fatalf("%s: expected UNSAT, got %v", ins.Name, st)
	}
	// Re-serialize the formula once; both pipelines must see identical bytes.
	var fb bytes.Buffer
	if err := cnf.WriteDimacs(&fb, ins.F); err != nil {
		t.Fatal(err)
	}
	return fb.Bytes(), traceBytes, buf.Bytes()
}

// postDual POSTs a policy=dual certification request with the named parts.
func postDual(t testing.TB, ts *httptest.Server, query string, parts map[string][]byte) (*http.Response, []byte) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, field := range []string{"formula", "trace", "lrat", "drat"} {
		data, ok := parts[field]
		if !ok {
			continue
		}
		w, err := mw.CreateFormFile(field, field+".bin")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
	}
	mw.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/check"+query, mw.FormDataContentType(), &body)
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

// TestClusterDualCertify fans one certification across a 2-shard cluster:
// the two pipelines must land on distinct shards, the merged bundle must be
// HMAC-verifiable under the router's key, and a corrupted DRAT must come
// back as a signed CERTIFY_FAIL at HTTP 200 — never a bare error.
func TestClusterDualCertify(t *testing.T) {
	formula, traceBytes, dratBytes := dualPayload(t, gen.Pigeonhole(5))
	key := []byte("router-deployment-secret")
	_, ts := newTestRouter(t, Config{Shards: 2, CertifySigner: certify.NewHMACSigner(key)})

	resp, data := postDual(t, ts, "?policy=dual", map[string][]byte{
		"formula": formula, "trace": traceBytes, "drat": dratBytes,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	bundle, err := certify.ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bundle.Certified() {
		t.Fatalf("expected CERTIFIED_UNSAT, got %s: %s", bundle.Outcome, bundle.Reason)
	}
	if err := bundle.Verify(key); err != nil {
		t.Fatalf("bundle does not verify under the router key: %v", err)
	}
	if len(bundle.Checkers) != 2 {
		t.Fatalf("want 2 checker verdicts, got %d", len(bundle.Checkers))
	}
	shards := map[string]string{}
	for _, v := range bundle.Checkers {
		if v.Shard == "" {
			t.Fatalf("verdict %s carries no shard attribution: %+v", v.Pipeline, v)
		}
		shards[v.Pipeline] = v.Shard
	}
	// Two healthy shards must host the two pipelines on different machines.
	if shards[certify.PipelineKernel] == shards[certify.PipelineRUP] {
		t.Fatalf("both pipelines ran on shard %s despite 2 healthy shards", shards[certify.PipelineKernel])
	}

	// Corrupt the clausal proof: kernel still accepts, rup must reject, the
	// merge must be a signed disagreement at HTTP 200.
	bad := bytes.Replace(dratBytes, []byte("\n"), []byte(" 99999\n"), 1)
	resp, data = postDual(t, ts, "?policy=dual", map[string][]byte{
		"formula": formula, "trace": traceBytes, "drat": bad,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail-closed answer must be HTTP 200, got %d: %s", resp.StatusCode, data)
	}
	failBundle, err := certify.ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if failBundle.Certified() {
		t.Fatal("corrupted DRAT certified through the cluster")
	}
	if !strings.Contains(failBundle.Reason, "disagreement") && !strings.Contains(failBundle.Reason, "rejected") {
		t.Fatalf("reason does not name the rejection: %q", failBundle.Reason)
	}
	if err := failBundle.Verify(key); err != nil {
		t.Fatalf("CERTIFY_FAIL bundle must be signed too: %v", err)
	}

	// Both outcomes are visible in the router metric.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`zcheckd_router_certifications_total{outcome="certified"} 1`,
		`zcheckd_router_certifications_total{outcome="fail"} 1`,
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("router metrics missing %q", want)
		}
	}
}

// TestClusterDualCorruptBlob flips a bit of a stored DRAT blob and runs the
// rup pipeline over it: the answer must be an error verdict naming hash
// verification, with the blob quarantined and the dispatch counted once.
func TestClusterDualCorruptBlob(t *testing.T) {
	formula, traceBytes, dratBytes := dualPayload(t, gen.Pigeonhole(4))
	rt, ts := newTestRouter(t, Config{Shards: 1})
	resp, data := postDual(t, ts, "?policy=dual", map[string][]byte{
		"formula": formula, "trace": traceBytes, "drat": dratBytes,
	})
	if bundle, err := certify.ParseBundle(data); resp.StatusCode != http.StatusOK || err != nil || !bundle.Certified() {
		t.Fatalf("status %d (%v): %s", resp.StatusCode, err, data)
	}

	fh, dh := store.HashBytes(formula), store.HashBytes(dratBytes)
	corruptBlobOnDisk(t, rt.Store(), dh)
	v := rt.dispatchPipeline(context.Background(), certify.PipelineRUP, url.Values{"policy": {"dual"}},
		[]storePart{{"formula", fh}, {"drat", dh}}, rt.Ring().Owners(JobKey(fh, dh), 0), "")
	if v.Verdict != certify.VerdictError || !strings.Contains(v.Detail, "hash verification") {
		t.Fatalf("corrupt DRAT blob answered %+v", v)
	}
	if rt.Store().Stats().Corruptions == 0 {
		t.Fatal("corruption not detected/quarantined")
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mdata), "\nzcheckd_store_corrupt_dispatches_total 1\n") {
		t.Errorf("router metrics do not read zcheckd_store_corrupt_dispatches_total 1:\n%s", mdata)
	}
}

// TestClusterDualNoShards pins the fail-closed floor: a join-only router
// with zero shards still answers HTTP 200 with a signed CERTIFY_FAIL naming
// the missing capacity — a client must never see a bare 503 it could
// mistake for a retryable near-miss of certification.
func TestClusterDualNoShards(t *testing.T) {
	formula, traceBytes, dratBytes := dualPayload(t, gen.Pigeonhole(4))
	key := []byte("router-key")
	_, ts := newTestRouter(t, Config{Shards: 0, CertifySigner: certify.NewHMACSigner(key)})

	resp, data := postDual(t, ts, "?policy=dual", map[string][]byte{
		"formula": formula, "trace": traceBytes, "drat": dratBytes,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (signed fail): %s", resp.StatusCode, data)
	}
	bundle, err := certify.ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if bundle.Certified() {
		t.Fatal("certified with no shards in the ring")
	}
	if !strings.Contains(bundle.Reason, "no healthy shard") {
		t.Fatalf("reason does not name the capacity failure: %q", bundle.Reason)
	}
	if err := bundle.Verify(key); err != nil {
		t.Fatalf("no-capacity CERTIFY_FAIL must still be signed: %v", err)
	}
}

// TestClusterDualBadRequests pins the router's 400 surface for the policy.
func TestClusterDualBadRequests(t *testing.T) {
	formula, traceBytes, dratBytes := dualPayload(t, gen.Pigeonhole(4))
	_, ts := newTestRouter(t, Config{Shards: 1})

	// Unknown policy token.
	resp, data := postDual(t, ts, "?policy=triple", map[string][]byte{
		"formula": formula, "trace": traceBytes, "drat": dratBytes,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("policy=triple: status %d, want 400: %s", resp.StatusCode, data)
	}
	// Missing parts are a 400 at the router (nothing to fan out yet).
	resp, data = postDual(t, ts, "?policy=dual", map[string][]byte{
		"formula": formula, "trace": traceBytes,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing drat: status %d, want 400: %s", resp.StatusCode, data)
	}
	// Certification is synchronous-only: async submission refuses any policy.
	ct, body := multipartBody(t, formula, traceBytes)
	jresp, err := ts.Client().Post(ts.URL+"/v1/jobs?policy=dual", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	jdata, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("jobs?policy=dual: status %d, want 400: %s", jresp.StatusCode, jdata)
	}
}
