// Command zcheck is the client for the zcheckd proof-checking daemon: it
// uploads a DIMACS formula and a solver trace (any encoding — ASCII,
// binary, either gzipped) and prints the daemon's structured verdict in the
// same shape as the local zverify tool.
//
// Usage:
//
//	zcheck [-addr http://localhost:8347]
//	       [-method df|bf|hybrid|parallel|bdd|kernel|ooc]
//	       [-format native|drat|lrat|er|tc] [-j N] [-mem-limit-mb N]
//	       [-mem-budget 64MiB] [-timeout D] [-analyze] [-core] [-retries N]
//	       formula.cnf proof
//
// Methods and formats mean what they mean to zverify; a pair that
// satcheck.RunCheck refuses (bdd with anything but -format er, ooc with
// -format er) exits 1 before anything is sent.
//
// Backpressure answers (HTTP 429/503) and transport errors are retried up
// to -retries times with jittered exponential backoff, honoring the
// server's Retry-After hint.
//
// Against a cluster router (zcheckd -cluster), -async submits through the
// job API instead of waiting synchronously: the job is queued cluster-side
// and zcheck polls GET /v1/jobs/{id} every -poll until the job is terminal
// (with -poll 0 it just prints the job ID and exits). -class, -tenant, and
// -webhook pass the cluster scheduling knobs through. Poll requests apply
// the same -retries budget: transport errors and 429/503 answers back off
// and retry instead of abandoning a job the cluster is still running.
//
//	zcheck -certify [-format native|lrat] [flags] formula.cnf kernelproof proof.drat
//
// -certify submits three artifacts to the daemon's fail-closed dual-checker
// policy (policy=dual, docs/CERTIFY.md): the formula, a kernel-pipeline
// input (a native resolution trace, or an LRAT proof with -format lrat),
// and a clausal DRAT proof. The answer is a signed verdict bundle, printed
// as JSON; exit 0 only for CERTIFIED_UNSAT, 2 for CERTIFY_FAIL.
//
// Exit status: 0 when the proof is valid (certified, for -certify), 2 when
// the daemon rejected it (the solver or its trace generation is buggy), 3
// when the daemon applied backpressure (HTTP 429/503 — retry later) even
// after -retries attempts, 1 on usage, I/O, or transport errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"satcheck"
	"satcheck/internal/cluster"
	"satcheck/internal/server"
	"satcheck/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://localhost:8347", "zcheckd base URL")
	method := fs.String("method", "df", "checker strategy: df, bf, hybrid, parallel, bdd, kernel, or ooc")
	formatName := fs.String("format", "native", "proof encoding: native, drat, lrat, er, or tc")
	jobs := fs.Int("j", 0, "parallel only: requested worker count (server caps it at its pool size)")
	memLimitMB := fs.Int64("mem-limit-mb", 0, "per-job checker memory budget in MB (0 = unlimited)")
	memBudget := fs.String("mem-budget", "", "ooc only: window-shifting memory budget, e.g. 64MiB (mem_budget= on the wire)")
	timeout := fs.Duration("timeout", 0, "per-job deadline (0 = server default)")
	analyze := fs.Bool("analyze", false, "also request proof-graph statistics")
	core := fs.Bool("core", false, "print the unsatisfiable core clause IDs (every method but bf; not for er proofs)")
	retries := fs.Int("retries", 0, "retry 429/503 and transport errors this many times (jittered exponential backoff)")
	retryBase := fs.Duration("retry-base", 200*time.Millisecond, "first retry delay; doubles per attempt")
	async := fs.Bool("async", false, "submit via the cluster job API and poll instead of waiting synchronously")
	pollEvery := fs.Duration("poll", 500*time.Millisecond, "async: poll interval (0: print the job ID and exit)")
	class := fs.String("class", "", "async: scheduling class, interactive or batch (cluster default: batch)")
	tenant := fs.String("tenant", "", "tenant name for the cluster's per-tenant quotas (X-Tenant header)")
	webhook := fs.String("webhook", "", "async: URL the cluster POSTs the terminal job status to")
	certify := fs.Bool("certify", false, "submit to the fail-closed dual-checker policy (3 file args: formula, trace-or-lrat, drat); exit 0 only for CERTIFIED_UNSAT")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *certify {
		if fs.NArg() != 3 {
			fmt.Fprintln(stderr, "usage: zcheck -certify [flags] formula.cnf kernelproof proof.drat")
			fs.PrintDefaults()
			return 1
		}
	} else if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: zcheck [flags] formula.cnf proof.trace")
		fs.PrintDefaults()
		return 1
	}

	m, err := satcheck.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(stderr, "zcheck:", err)
		return 1
	}
	format, err := satcheck.ParseProofFormat(*formatName)
	if err != nil {
		fmt.Fprintln(stderr, "zcheck:", err)
		return 1
	}
	var memBudgetBytes int64
	if *memBudget != "" {
		if memBudgetBytes, err = satcheck.ParseByteSize(*memBudget); err != nil {
			fmt.Fprintln(stderr, "zcheck:", err)
			return 1
		}
	}
	opts := server.JobOptions{
		Method:         m,
		Format:         format,
		MemLimitMB:     *memLimitMB,
		MemBudgetBytes: memBudgetBytes,
		Timeout:        *timeout,
		Analyze:        *analyze,
		IncludeCore:    *core,
		Parallelism:    *jobs,
	}

	cl := client{
		addr:      *addr,
		tenant:    *tenant,
		retries:   *retries,
		retryBase: *retryBase,
		timeout:   *timeout,
		parts: []filePart{
			{"formula", fs.Arg(0)},
			{"trace", fs.Arg(1)},
		},
		stderr: stderr,
	}

	if *certify {
		if *async {
			fmt.Fprintln(stderr, "zcheck: -certify is synchronous; drop -async")
			return 1
		}
		kernelField := "trace"
		switch format {
		case satcheck.FormatNative:
		case satcheck.FormatLRAT:
			kernelField = "lrat"
		default:
			fmt.Fprintf(stderr, "zcheck: -certify takes -format native (a resolution trace) or lrat for the kernel-pipeline input, not %s\n", format)
			return 1
		}
		cl.parts = []filePart{
			{"formula", fs.Arg(0)},
			{kernelField, fs.Arg(1)},
			{"drat", fs.Arg(2)},
		}
		return cl.runCertify(stdout, opts)
	}
	if err := satcheck.CheckablePair(format, m); err != nil {
		fmt.Fprintln(stderr, "zcheck:", err)
		return 1
	}
	if *async {
		return cl.runAsync(stdout, opts, *class, *webhook, *pollEvery, *core)
	}
	return cl.runSync(stdout, opts, *core)
}

// filePart is one multipart upload: a form field name and the file behind it.
type filePart struct {
	field, path string
}

// client carries one invocation's transport state.
type client struct {
	addr      string
	tenant    string
	retries   int
	retryBase time.Duration
	timeout   time.Duration
	parts     []filePart
	stderr    io.Writer
}

func (c *client) runSync(stdout io.Writer, opts server.JobOptions, wantCore bool) int {
	u := c.addr + "/v1/check?" + opts.Query().Encode()
	resp, err := c.postWithRetry(u)
	if err != nil {
		fmt.Fprintln(c.stderr, "zcheck:", err)
		return 1
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		// Fall through to verdict decoding.
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		var er server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		retry := resp.Header.Get("Retry-After")
		fmt.Fprintf(c.stderr, "zcheck: server busy (%d): %s; retry after %ss\n", resp.StatusCode, er.Error, retry)
		return 3
	default:
		var er server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		fmt.Fprintf(c.stderr, "zcheck: HTTP %d: %s\n", resp.StatusCode, er.Error)
		return 1
	}

	var cr server.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		fmt.Fprintln(c.stderr, "zcheck: decoding response:", err)
		return 1
	}
	return printVerdict(stdout, &cr, wantCore)
}

// runCertify submits the three artifacts to the daemon's fail-closed dual
// policy and prints the signed verdict bundle. Only CERTIFIED_UNSAT exits 0;
// a CERTIFY_FAIL bundle is the solver's problem (exit 2, like a rejection).
func (c *client) runCertify(stdout io.Writer, opts server.JobOptions) int {
	q := opts.Query()
	q.Set("policy", "dual")
	resp, err := c.postWithRetry(c.addr + "/v1/check?" + q.Encode())
	if err != nil {
		fmt.Fprintln(c.stderr, "zcheck:", err)
		return 1
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		var er server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		fmt.Fprintf(c.stderr, "zcheck: server busy (%d): %s; retry after %ss\n",
			resp.StatusCode, er.Error, resp.Header.Get("Retry-After"))
		return 3
	default:
		var er server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		fmt.Fprintf(c.stderr, "zcheck: HTTP %d: %s\n", resp.StatusCode, er.Error)
		return 1
	}

	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(c.stderr, "zcheck: reading bundle:", err)
		return 1
	}
	bundle, err := satcheck.ParseCertifyBundle(body)
	if err != nil {
		fmt.Fprintln(c.stderr, "zcheck: decoding bundle:", err)
		return 1
	}
	pretty, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		fmt.Fprintln(c.stderr, "zcheck:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", pretty)
	if !bundle.Certified() {
		fmt.Fprintf(c.stderr, "zcheck: CERTIFY_FAIL: %s\n", bundle.Reason)
		return 2
	}
	return 0
}

// runAsync submits through POST /v1/jobs and polls the job to a terminal
// state.
func (c *client) runAsync(stdout io.Writer, opts server.JobOptions, class, webhook string, pollEvery time.Duration, wantCore bool) int {
	q := opts.Query()
	if class != "" {
		q.Set("class", class)
	}
	if webhook != "" {
		q.Set("webhook", webhook)
	}
	resp, err := c.postWithRetry(c.addr + "/v1/jobs?" + q.Encode())
	if err != nil {
		fmt.Fprintln(c.stderr, "zcheck:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var er server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			fmt.Fprintf(c.stderr, "zcheck: server busy (%d): %s\n", resp.StatusCode, er.Error)
			return 3
		}
		fmt.Fprintf(c.stderr, "zcheck: HTTP %d: %s\n", resp.StatusCode, er.Error)
		return 1
	}
	var sub cluster.JobSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		fmt.Fprintln(c.stderr, "zcheck: decoding job submit response:", err)
		return 1
	}
	if pollEvery <= 0 {
		fmt.Fprintf(stdout, "job %s %s\n", sub.ID, sub.State)
		return 0
	}
	fmt.Fprintf(c.stderr, "zcheck: job %s queued, polling every %v\n", sub.ID, pollEvery)

	httpc := &http.Client{Timeout: 30 * time.Second}
	attempt := 0
	for {
		js, err := c.pollOnce(httpc, sub.ID)
		if err != nil {
			var te *transientError
			if errors.As(err, &te) && attempt < c.retries {
				// The same jittered backoff as submission: a transient poll
				// failure must not abandon a job the cluster is still
				// running. Retry-After wins when the server asks for more.
				delay := backoffDelay(c.retryBase, attempt)
				if te.hint > delay {
					delay = te.hint
				}
				attempt++
				fmt.Fprintf(c.stderr, "zcheck: poll failed (%v); retrying in %v (attempt %d of %d)\n",
					te, delay.Round(time.Millisecond), attempt, c.retries)
				time.Sleep(delay)
				continue
			}
			fmt.Fprintln(c.stderr, "zcheck:", err)
			if errors.As(err, &te) && te.backpressure {
				return 3
			}
			return 1
		}
		attempt = 0 // a successful poll refills the retry budget
		switch js.State {
		case store.StateDone:
			var cr server.CheckResponse
			if err := json.Unmarshal(js.Check, &cr); err != nil {
				fmt.Fprintln(c.stderr, "zcheck: decoding job result:", err)
				return 1
			}
			return printVerdict(stdout, &cr, wantCore)
		case store.StateFailed:
			fmt.Fprintf(c.stderr, "zcheck: job %s failed: %s\n", js.ID, js.Error)
			return 1
		}
		time.Sleep(pollEvery)
	}
}

// transientError marks a poll failure worth retrying: a transport error, or
// a 429/503 backpressure answer (with the server's Retry-After hint).
type transientError struct {
	err          error
	hint         time.Duration
	backpressure bool
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func (c *client) pollOnce(httpc *http.Client, id string) (*cluster.JobStatusResponse, error) {
	resp, err := httpc.Get(c.addr + "/v1/jobs/" + url.PathEscape(id))
	if err != nil {
		return nil, &transientError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		perr := fmt.Errorf("polling job %s: HTTP %d: %s", id, resp.StatusCode, er.Error)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			var hint time.Duration
			if sec, herr := time.ParseDuration(resp.Header.Get("Retry-After") + "s"); herr == nil {
				hint = sec
			}
			return nil, &transientError{err: perr, hint: hint, backpressure: true}
		}
		return nil, perr
	}
	var js cluster.JobStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		return nil, &transientError{err: err}
	}
	return &js, nil
}

// postWithRetry posts the two files, retrying transport errors and
// backpressure answers (429/503) up to c.retries times. Each retry rebuilds
// the streaming body from the source files and sleeps base·2^attempt with
// ±50% jitter — or the server's Retry-After hint when that is longer — so a
// fleet of zcheck clients backing off never re-arrives in lockstep.
func (c *client) postWithRetry(url string) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.postFiles(url)
		retryable := false
		var hint time.Duration
		if err != nil {
			retryable = true
		} else if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			retryable = true
			if sec, perr := time.ParseDuration(resp.Header.Get("Retry-After") + "s"); perr == nil {
				hint = sec
			}
		}
		if !retryable || attempt >= c.retries {
			return resp, err
		}
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		delay := backoffDelay(c.retryBase, attempt)
		if hint > delay {
			delay = hint
		}
		fmt.Fprintf(c.stderr, "zcheck: retrying in %v (attempt %d of %d)\n", delay.Round(time.Millisecond), attempt+1, c.retries)
		time.Sleep(delay)
	}
}

// backoffDelay is base·2^attempt with ±50% jitter, capped at 10s.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// printVerdict renders the daemon's answer in zverify's output dialect so
// shell pipelines can switch between local and remote checking untouched.
func printVerdict(stdout io.Writer, cr *server.CheckResponse, wantCore bool) int {
	cachedNote := ""
	if cr.Cached {
		cachedNote = " [cached]"
	}
	if cr.Verdict != server.VerdictValid {
		fmt.Fprintf(stdout, "RESULT: CHECK FAILED (%s)%s\n", cr.Failure.Kind, cachedNote)
		fmt.Fprintf(stdout, "kind=%s clause=%d step=%d\n", cr.Failure.Kind, cr.Failure.ClauseID, cr.Failure.Step)
		fmt.Fprintf(stdout, "detail: %s\n", cr.Failure.Detail)
		return 2
	}
	r := cr.Result
	fmt.Fprintf(stdout, "RESULT: PROOF VALID — the formula is unsatisfiable%s\n", cachedNote)
	fmt.Fprintf(stdout, "method=%s server-time=%.1fms learned=%d built=%d (%.1f%%) resolutions=%d peak-mem=%dKB\n",
		cr.Method, cr.ElapsedMS, r.LearnedTotal, r.ClausesBuilt,
		100*r.BuiltFraction, r.ResolutionSteps, r.PeakMemWords*4/1024)
	if r.OOCWindows > 0 {
		fmt.Fprintf(stdout, "ooc: windows=%d spilled-clauses=%d spilled-bytes=%d mem-budget=%dKB\n",
			r.OOCWindows, r.SpilledClauses, r.SpilledBytes, r.PeakMemBoundWords*4/1024)
	}
	if r.CoreSize > 0 {
		fmt.Fprintf(stdout, "core: %d original clauses, %d vars involved\n", r.CoreSize, r.CoreVars)
		if wantCore {
			for _, id := range r.CoreClauses {
				fmt.Fprintln(stdout, id)
			}
		}
	}
	if s := cr.Stats; s != nil {
		switch cr.Format {
		case "drat":
			fmt.Fprintf(stdout, "proof: added=%d deleted=%d avg-clause-len=%.1f proof-ints=%d\n",
				s.NumLearned, s.NumDeleted, s.AvgChain, s.TraceInts)
		case "lrat":
			fmt.Fprintf(stdout, "proof: depth=%d needed=%d/%d deleted=%d avg-hints=%.1f proof-ints=%d\n",
				s.Depth, s.NeededLearned, s.NumLearned, s.NumDeleted, s.AvgChain, s.TraceInts)
		default:
			fmt.Fprintf(stdout, "proof: depth=%d needed-learned=%d/%d avg-chain=%.1f trace-ints=%d\n",
				s.Depth, s.NeededLearned, s.NumLearned, s.AvgChain, s.TraceInts)
		}
	}
	return 0
}

// postFiles streams the part files as one multipart body over an io.Pipe —
// the client never holds a proof in memory, mirroring the server's
// streaming ingest.
func (c *client) postFiles(url string) (*http.Response, error) {
	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	go func() {
		err := writeParts(mw, c.parts)
		if cerr := mw.Close(); err == nil {
			err = cerr
		}
		pw.CloseWithError(err)
	}()

	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		pr.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	client := &http.Client{Timeout: transportTimeout(c.timeout)}
	return client.Do(req)
}

// transportTimeout gives the HTTP client headroom beyond the job deadline;
// with no explicit deadline the transport waits indefinitely (the server
// enforces its own default).
func transportTimeout(jobTimeout time.Duration) time.Duration {
	if jobTimeout <= 0 {
		return 0
	}
	return jobTimeout + 30*time.Second
}

func writeParts(mw *multipart.Writer, parts []filePart) error {
	for _, p := range parts {
		f, err := os.Open(p.path)
		if err != nil {
			return err
		}
		w, err := mw.CreateFormFile(p.field, filepath.Base(p.path))
		if err == nil {
			_, err = io.Copy(w, f)
		}
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
