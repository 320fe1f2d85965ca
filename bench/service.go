package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"satcheck/internal/cluster"
	"satcheck/internal/server"
	"satcheck/internal/store"
)

// buildZcheckd builds ./cmd/zcheckd from the repository at root into dir.
func buildZcheckd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "zcheckd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/zcheckd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building zcheckd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running zcheckd.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	log     string
	setup   time.Duration
	exited  chan struct{}
	waitErr error
}

// startDaemon starts zcheckd and returns once it is ready: /healthz answers
// 200, and for the router every shard is healthy and on the ring.
func startDaemon(ctx context.Context, bin, dir string, routed bool, rep int) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2", "-cache", "0", "-quiet", "-temp-dir", dir}
	if routed {
		args = append(args, "-cluster", "-shards", "1", "-store", filepath.Join(dir, fmt.Sprintf("store-%d", rep)))
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	hygiene(cmd)
	log, err := os.Create(filepath.Join(dir, fmt.Sprintf("zcheckd-%d.log", rep)))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	banner := &bannerWriter{first: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = banner, log
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, log: log.Name(), exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitReady(ctx, banner, routed); err != nil {
		d.stop()
		return nil, fmt.Errorf("zcheckd: %w%s", err, d.logTail())
	}
	d.setup = time.Since(t0)
	return d, nil
}

func (d *daemon) awaitReady(ctx context.Context, banner *bannerWriter, routed bool) error {
	deadline := time.After(60 * time.Second)
	select {
	case line := <-banner.first:
		i := strings.Index(line, "http://")
		if i < 0 {
			return fmt.Errorf("unexpected banner %q", line)
		}
		d.url = strings.Fields(line[i:])[0]
	case <-d.exited:
		return errors.New("exited before listening")
	case <-deadline:
		return errors.New("no listening banner within 60s")
	case <-ctx.Done():
		return ctx.Err()
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	defer probe.CloseIdleConnections()
	for {
		if ready(probe, d.url, routed) {
			return nil
		}
		select {
		case <-d.exited:
			return errors.New("exited before ready")
		case <-deadline:
			return errors.New("not ready within 60s")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(250 * time.Microsecond):
		}
	}
}

func ready(probe *http.Client, url string, routed bool) bool {
	resp, err := probe.Get(url + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if !routed {
		return true
	}
	var h cluster.RouterHealth
	if json.NewDecoder(resp.Body).Decode(&h) != nil || h.RingSize < 1 || len(h.Shards) == 0 {
		return false
	}
	for _, s := range h.Shards {
		if !s.Healthy || !s.OnRing {
			return false
		}
	}
	return true
}

// stop reads the daemon's peak RSS, sends SIGTERM and waits for it to
// drain and exit; it is safe to call more than once.
func (d *daemon) stop() (float64, error) {
	select {
	case <-d.exited:
		return 0, d.waitErr
	default:
	}
	hwm, hwmErr := vmHWM(d.cmd.Process.Pid)
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return 0, errors.New("zcheckd did not drain within 30s")
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("zcheckd exit: %w%s", d.waitErr, d.logTail())
	}
	return hwm, hwmErr
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	if len(b) == 0 {
		return ""
	}
	return "\n" + string(b)
}

// bannerWriter is zcheckd's stdout: it hands over the first line, where
// the daemon prints its listening address, and discards the rest.
type bannerWriter struct {
	buf   []byte
	sent  bool
	first chan string
}

func (b *bannerWriter) Write(p []byte) (int, error) {
	if !b.sent {
		b.buf = append(b.buf, p...)
		if i := bytes.IndexByte(b.buf, '\n'); i >= 0 {
			b.first <- string(b.buf[:i])
			b.sent, b.buf = true, nil
		}
	}
	return len(p), nil
}

// runService times setupReps daemon starts on each side of the window,
// gap apart, and measures against the last start before it.
func runService(ctx context.Context, bin, dir string, c *corpus, routed bool, gap, window time.Duration, traced bool) (*outcome, error) {
	o := &outcome{}
	setupOnly := func(rep int) (time.Duration, error) {
		d, err := startDaemon(ctx, bin, dir, routed, rep)
		if err != nil {
			return 0, err
		}
		_, err = d.stop()
		return d.setup, err
	}
	if err := o.timeStarts(ctx, setupReps-1, gap, setupOnly); err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, bin, dir, routed, len(o.setups))
	if err != nil {
		return nil, err
	}
	o.setups = append(o.setups, d.setup)
	defer d.stop()
	cl, err := newClient(d.url, c)
	if err != nil {
		return nil, err
	}
	defer cl.http.CloseIdleConnections()
	o.m = measure(ctx, c, window, traced, cl.check, cl.tracedCheck, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if traced {
		o.m.Spans = cl.rec.all()
		if err := cl.extras(ctx, o.m, dir, routed); err != nil {
			return nil, err
		}
	}
	if o.rssMiB, err = d.stop(); err != nil {
		return nil, err
	}
	if err := o.timeStarts(ctx, setupReps, gap, setupOnly); err != nil {
		return nil, err
	}
	return o, nil
}

// checkPath is where the client posts every check.
const checkPath = "/v1/check?method=hybrid"

// client posts the corpus to checkPath.
type client struct {
	base   string // daemon URL
	http   *http.Client
	bodies [][]byte
	ctype  string
	c      *corpus
	rec    *recorder
	n429   int
}

// multipartBoundary is fixed so every run sends byte-identical requests.
const multipartBoundary = "satcheck-bench-boundary"

func newClient(url string, c *corpus) (*client, error) {
	cl := &client{
		base: url,
		http: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 1, DisableCompression: true}},
		c:   c,
		rec: newRecorder(),
	}
	for _, it := range c.Items {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		if err := mw.SetBoundary(multipartBoundary); err != nil {
			return nil, err
		}
		for _, part := range []struct{ field, path string }{{"formula", it.CNF}, {"trace", it.Proof}} {
			b, err := os.ReadFile(part.path)
			if err != nil {
				return nil, err
			}
			w, err := mw.CreateFormFile(part.field, filepath.Base(part.path))
			if err != nil {
				return nil, err
			}
			w.Write(b)
		}
		if err := mw.Close(); err != nil {
			return nil, err
		}
		cl.bodies = append(cl.bodies, buf.Bytes())
		cl.ctype = mw.FormDataContentType()
	}
	return cl, nil
}

func (cl *client) check(ctx context.Context, _, i int) (bool, error) {
	return cl.post(ctx, i, nil)
}

// tracedCheck records the request as a root span with two children:
// http.send (until the body is handed to the connection) and server.check
// (the server's own elapsed_ms, placed to end when the response arrived).
func (cl *client) tracedCheck(ctx context.Context, req, i int) (bool, error) {
	root := cl.rec.begin("check", 0, req)
	defer cl.rec.end(root)
	cl.rec.set(root, "trace.mb", float64(cl.c.Items[i].Bytes)/1e6)
	return cl.post(ctx, i, func(sent, answered time.Time, elapsed time.Duration) {
		cl.rec.add("http.send", root, req, cl.rec.startOf(root), sent.Sub(cl.rec.startOf(root)))
		cl.rec.add("server.check", root, req, answered.Add(-elapsed), elapsed)
	})
}

func (cl *client) post(ctx context.Context, i int, traced func(sent, answered time.Time, elapsed time.Duration)) (bool, error) {
	body := &sendTimer{r: bytes.NewReader(cl.bodies[i])}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+checkPath, body)
	if err != nil {
		return false, err
	}
	req.ContentLength = int64(len(cl.bodies[i]))
	req.Header.Set("Content-Type", cl.ctype)
	resp, err := cl.http.Do(req)
	if err != nil {
		return false, err
	}
	answered := time.Now()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			cl.n429++
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var cr server.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return false, fmt.Errorf("decoding response: %w", err)
	}
	if traced != nil {
		sent := answered
		if ns := body.done.Load(); ns != 0 {
			sent = time.Unix(0, ns)
		}
		traced(sent, answered, time.Duration(cr.ElapsedMS*float64(time.Millisecond)))
	}
	switch cr.Verdict {
	case server.VerdictValid:
		return true, nil
	case server.VerdictRejected:
		return false, nil
	}
	return false, fmt.Errorf("unknown verdict %q", cr.Verdict)
}

// sendTimer notes when the transport has read the whole request body. The
// transport reads it on its own goroutine, hence the atomic.
type sendTimer struct {
	r    io.Reader
	done atomic.Int64 // UnixNano
}

func (s *sendTimer) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF {
		s.done.CompareAndSwap(0, time.Now().UnixNano())
	}
	return n, err
}

// extras adds the service metrics that spans do not give: the 429
// answers, and for the router its failovers and the cost of its store
// calls.
func (cl *client) extras(ctx context.Context, m *measurement, dir string, routed bool) error {
	m.Extra = map[string]float64{"server.http_429": float64(cl.n429)}
	if !routed {
		return nil
	}
	n, err := cl.failovers(ctx)
	if err != nil {
		return err
	}
	m.Extra["router.failovers"] = n
	put, get, err := replayStore(filepath.Join(dir, "replay"), cl.c)
	if err != nil {
		return err
	}
	var putMS, getMS, reqMS float64
	for _, s := range m.Samples {
		if s.Phase == phaseTraced && s.Err == "" {
			putMS += put[s.Item]
			getMS += get[s.Item]
			reqMS += s.MS
		}
	}
	m.Extra["store.put_share"] = putMS / reqMS
	m.Extra["store.get_share"] = getMS / reqMS
	return nil
}

// failovers reads zcheckd_failovers_total from the router's /metrics.
func (cl *client) failovers(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "zcheckd_failovers_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, errors.New("no zcheckd_failovers_total in router /metrics")
}

// replayStore repeats the router's store calls for one sync check of each
// item on a store of its own on the same disk: Store.PutBytes of both
// parts (spool, fsync, dedup, as for a request seen before) and
// Store.ReadAll of both (re-hashing read). It returns the median time per
// item in ms; the router's own calls happen inside zcheckd, out of reach
// of the benchmark's spans.
func replayStore(dir string, c *corpus) (put, get []float64, err error) {
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	for _, it := range c.Items {
		var parts [][]byte
		for _, p := range []string{it.CNF, it.Proof} {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, nil, err
			}
			parts = append(parts, b)
		}
		var hashes []store.Hash
		for _, b := range parts {
			h, _, err := st.PutBytes(b)
			if err != nil {
				return nil, nil, err
			}
			hashes = append(hashes, h)
		}
		var puts, gets []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			for _, b := range parts {
				if _, _, err := st.PutBytes(b); err != nil {
					return nil, nil, err
				}
			}
			t1 := time.Now()
			for _, h := range hashes {
				if _, err := st.ReadAll(h); err != nil {
					return nil, nil, err
				}
			}
			puts = append(puts, ms(t1.Sub(t0)))
			gets = append(gets, ms(time.Since(t1)))
		}
		put = append(put, median(puts))
		get = append(get, median(gets))
	}
	return put, get, nil
}
