package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"satcheck"
	"satcheck/internal/checker"
	"satcheck/internal/drat"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/ooc"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// A library workload runs in a child process: the benchmark re-executes
// itself with these variables set, so the child's ru_maxrss covers only
// the checking caller, not the generator.
const (
	childEnv = "SATBENCH_CHILD" // workload name
	dirEnv   = "SATBENCH_DIR"   // directory holding the corpus
)

// setupReps is how many times a run starts the checking process on each
// side of its measured window, setupGap apart; setup_s is the fastest of
// all the starts. Most of a start is first touching fresh memory, whose
// cost per page jumps by up to 1.7× for seconds at a time. Such a spell
// only ever adds time, so the fastest start of two bursts a window apart
// is the start's own cost, where the median of one burst would be the
// spell's.
const (
	setupReps = 6
	setupGap  = 100 * time.Millisecond
)

// timeStarts times n starts of a checking process, gap apart, into
// o.setups. start returns how long one start took to get ready, and stops
// what it started.
func (o *outcome) timeStarts(ctx context.Context, n int, gap time.Duration, start func(rep int) (time.Duration, error)) error {
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(gap):
		}
		d, err := start(len(o.setups))
		if err != nil {
			return err
		}
		o.setups = append(o.setups, d)
	}
	return nil
}

// readyMsg is the child's first line: setup is done.
type readyMsg struct {
	ParseNS int64 `json:"parse_ns"` // time spent parsing formulas
}

// childRequest is the parent's answer to readyMsg.
type childRequest struct {
	Window time.Duration `json:"window_ns"`
	Traced bool          `json:"traced"`
}

// hygiene makes a child process stop with the benchmark: SIGTERM when the
// context is canceled, SIGKILL if it lingers or the benchmark dies.
func hygiene(cmd *exec.Cmd) {
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// child is a started library child that has reported ready.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	setup time.Duration
	ready readyMsg
}

func startChild(ctx context.Context, self, workload, dir string) (*child, error) {
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+workload, dirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	hygiene(cmd)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &child{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if err := ch.read(&ch.ready); err != nil {
		ch.kill()
		return nil, fmt.Errorf("%s child setup: %w", workload, err)
	}
	ch.setup = time.Since(t0)
	return ch, nil
}

func (ch *child) read(v any) error {
	line, err := ch.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

func (ch *child) kill() {
	ch.cmd.Process.Kill()
	ch.cmd.Wait()
}

// quit ends a child that was started only to time its setup.
func (ch *child) quit() error {
	ch.stdin.Close()
	return ch.cmd.Wait()
}

// run hands the child its window and returns its measurement and its
// ru_maxrss.
func (ch *child) run(req childRequest) (*measurement, float64, error) {
	if err := json.NewEncoder(ch.stdin).Encode(req); err != nil {
		ch.kill()
		return nil, 0, err
	}
	m := &measurement{}
	if err := ch.read(m); err != nil {
		ch.kill()
		return nil, 0, fmt.Errorf("reading child result: %w", err)
	}
	ch.stdin.Close()
	if err := ch.cmd.Wait(); err != nil {
		return nil, 0, err
	}
	ru, ok := ch.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("no rusage for the child")
	}
	return m, float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// runLibrary times setupReps child starts on each side of the window, gap
// apart, and measures in the last start before it.
func runLibrary(ctx context.Context, self, workload, dir string, gap, window time.Duration, traced bool) (*outcome, error) {
	o := &outcome{}
	setupOnly := func(int) (time.Duration, error) {
		ch, err := startChild(ctx, self, workload, dir)
		if err != nil {
			return 0, err
		}
		if err := ch.quit(); err != nil {
			return 0, fmt.Errorf("%s child exit: %w", workload, err)
		}
		return ch.setup, nil
	}
	if err := o.timeStarts(ctx, setupReps-1, gap, setupOnly); err != nil {
		return nil, err
	}
	ch, err := startChild(ctx, self, workload, dir)
	if err != nil {
		return nil, err
	}
	o.setups = append(o.setups, ch.setup)
	m, rss, err := ch.run(childRequest{Window: window, Traced: traced})
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", workload, err)
	}
	o.m, o.rssMiB = m, rss
	if m.PeakRSS > 0 {
		o.rssMiB = m.PeakRSS
	}
	if traced {
		if m.Extra == nil {
			m.Extra = map[string]float64{}
		}
		m.Extra["cnf.setup_share"] = float64(ch.ready.ParseNS) / float64(ch.setup)
	}
	if err := o.timeStarts(ctx, setupReps, gap, setupOnly); err != nil {
		return nil, err
	}
	return o, nil
}

// childMain is the checking process of a library workload: it parses the
// corpus formulas, opens the proof files, reports ready, and on request
// measures one window.
func childMain() int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveChild(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

func serveChild(ctx context.Context) error {
	w, err := workloadByName(os.Getenv(childEnv))
	if err != nil {
		return err
	}
	dir := os.Getenv(dirEnv)
	c, err := loadCorpus(dir)
	if err != nil {
		return err
	}
	l := &library{method: w.method, c: c, dir: dir, fs: make([]*satcheck.Formula, len(c.Items)), rec: newRecorder()}
	var parse time.Duration
	for i, it := range c.Items {
		t0 := time.Now()
		if l.fs[i], err = satcheck.ParseDimacsFile(it.CNF); err != nil {
			return err
		}
		parse += time.Since(t0)
		f, err := os.Open(it.Proof)
		if err != nil {
			return err
		}
		f.Close()
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(readyMsg{ParseNS: parse.Nanoseconds()}); err != nil {
		return err
	}
	var req childRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // a setup-only start
		}
		return err
	}
	var rss rssPeaks
	plain := l.check
	if req.Traced {
		// The untraced half of a traced run makes the same layer calls as
		// the traced half, so their difference is the cost of the spans.
		bare := *l
		bare.rec = nil
		plain = bare.layered
	}
	// Each check starts from a collected heap, as a check in a process of
	// its own does, so where the collector runs inside it depends on that
	// check alone and not on the garbage of the checks before it.
	after := func(phase, item int) {
		rss.after(phase, item)
		runtime.GC()
	}
	m := measure(ctx, c, req.Window, req.Traced, plain, l.layered, after)
	if err := ctx.Err(); err != nil {
		return err
	}
	m.PeakRSS = rss.peak()
	if req.Traced {
		m.Spans = l.rec.all()
		if w.method == satcheck.OOC {
			r, err := l.oocKernelRatio(m.Samples)
			if err != nil {
				return err
			}
			m.Extra = map[string]float64{"ooc.kernel_ratio": r}
		}
	}
	return out.Encode(m)
}

// library checks one workload's corpus in-process.
type library struct {
	method satcheck.Method
	c      *corpus
	fs     []*satcheck.Formula
	dir    string
	rec    *recorder
}

func (l *library) options() checker.Options {
	o := checker.Options{TempDir: l.dir}
	if l.method == satcheck.OOC {
		o.MemBudgetBytes = oocBudget
	}
	return o
}

// check is the untraced check: one satcheck.RunCheck call, as a user makes
// it.
func (l *library) check(ctx context.Context, _, i int) (bool, error) {
	it := l.c.Items[i]
	req := satcheck.CheckRequest{Formula: l.fs[i], Method: l.method, Options: l.options()}
	if it.Format == formatLRAT {
		req.Format = satcheck.FormatLRAT
		req.Proof = satcheck.ProofFileSource(it.Proof)
	} else {
		req.Trace = trace.FileSource(it.Proof)
	}
	rep, err := satcheck.RunCheck(ctx, req)
	if err != nil {
		return false, err
	}
	return rep.Valid, nil
}

// layered makes the same check by calling each layer's public function in
// the order the method uses them, with a span around each call when l has
// a recorder. It reconstructs what RunCheck does and must follow it when
// the method's pipeline changes.
func (l *library) layered(_ context.Context, req, i int) (bool, error) {
	it := l.c.Items[i]
	f := l.fs[i]
	opts := l.options()
	root := l.rec.begin("check", 0, req)
	defer l.rec.end(root)
	switch {
	case it.Format == formatTrace && l.method == satcheck.Kernel:
		return l.traceKernel(root, req, f, it, opts)
	case it.Format == formatTrace && l.method == satcheck.Hybrid:
		src := l.source(it)
		sp := l.rec.begin("checker.hybrid", root, req)
		res, err := checker.Hybrid(f, src, opts)
		l.rec.end(sp)
		l.decoded(root, sp, req, src, it)
		if err != nil {
			return verdict(err)
		}
		l.rec.set(root, "checker.built_frac", res.BuiltFraction())
		l.rec.set(root, "checker.resolution_steps", float64(res.ResolutionSteps))
		l.rec.set(root, "checker.peak_mem_words", float64(res.PeakMemWords))
		return true, nil
	case it.Format == formatLRAT && l.method == satcheck.Kernel:
		sp := l.rec.begin("drat.lrat_parse", root, req)
		proof, err := drat.LoadLRAT(drat.FileSource(it.Proof))
		l.rec.end(sp)
		if err != nil {
			return false, nil // kernelcheck.CheckLRAT rejects unparsable proofs
		}
		return l.kernel(root, req, f, proof, opts)
	case it.Format == formatLRAT && l.method == satcheck.OOC:
		sp := l.rec.begin("ooc.check", root, req)
		res, err := ooc.CheckLRAT(f, drat.FileSource(it.Proof), opts)
		l.rec.end(sp)
		if err != nil {
			return verdict(err)
		}
		l.rec.set(root, "ooc.windows", float64(res.OOCWindows))
		l.rec.set(root, "ooc.spilled_clauses", float64(res.SpilledClauses))
		l.rec.set(root, "ooc.spilled_mb", float64(res.SpilledBytes)/1e6)
		l.rec.set(root, "ooc.peak_mem_words", float64(res.PeakMemWords))
		return true, nil
	}
	return false, fmt.Errorf("no traced path for %s proofs with method %v", it.Format, l.method)
}

// traceKernel is kernelcheck.KernelCheckTrace taken apart: TraceCheck
// export, its re-parse, forward hint annotation, and the trusted kernel.
// The kernel runs without the unsat core KernelCheckTrace also extracts,
// because no public function takes a parsed proof and returns a core.
func (l *library) traceKernel(root, req int, f *satcheck.Formula, it item, opts checker.Options) (bool, error) {
	src := l.source(it)
	sp := l.rec.begin("tracecheck.export", root, req)
	var text bytes.Buffer
	_, err := tracecheck.Export(f, src, &text)
	l.rec.end(sp)
	l.decoded(root, sp, req, src, it)
	if err != nil {
		return false, nil // KernelCheckTrace rejects traces the export refuses
	}
	l.rec.set(root, "tracecheck.text_mb", float64(text.Len())/1e6)
	sp = l.rec.begin("tracecheck.parse", root, req)
	clauses, err := tracecheck.Parse(&text)
	l.rec.end(sp)
	if err != nil {
		return false, nil
	}
	proof := &drat.Proof{}
	for _, c := range clauses {
		if c.ID > len(f.Clauses) {
			proof.Steps = append(proof.Steps, drat.Step{Lits: c.Lits})
			proof.Ints += int64(len(c.Lits)) + 1
		}
	}
	sp = l.rec.begin("drat.annotate", root, req)
	_, lines, err := drat.AnnotateForward(f, proof, opts)
	l.rec.end(sp)
	if err != nil {
		return verdict(err)
	}
	return l.kernel(root, req, f, &drat.LRATProof{Lines: lines}, opts)
}

func (l *library) kernel(root, req int, f *satcheck.Formula, proof *drat.LRATProof, opts checker.Options) (bool, error) {
	sp := l.rec.begin("kernel.check", root, req)
	res, err := kernelcheck.CheckLRATProof(f, proof, opts)
	l.rec.end(sp)
	if err != nil {
		return verdict(err)
	}
	l.rec.set(root, "kernel.steps", float64(res.ResolutionSteps))
	l.rec.set(root, "kernel.peak_mem_words", float64(res.PeakMemWords))
	return true, nil
}

// source opens item it's trace, timing its decode when spans are recorded.
func (l *library) source(it item) trace.Source {
	if l.rec == nil {
		return trace.FileSource(it.Proof)
	}
	return &timedSource{src: trace.FileSource(it.Proof)}
}

// decoded records the trace decode time inside the span parent as one
// span, and the trace's size on the check.
func (l *library) decoded(root, parent, req int, src trace.Source, it item) {
	ts, ok := src.(*timedSource)
	if !ok {
		return
	}
	l.rec.add("trace.decode", parent, req, l.rec.startOf(parent), ts.busy)
	l.rec.set(root, "trace.records", float64(ts.records))
	l.rec.set(root, "trace.mb", float64(it.Bytes)/1e6)
}

// verdict maps a checker error to a rejection, or passes an
// infrastructure error on.
func verdict(err error) (bool, error) {
	var ce *checker.CheckError
	if errors.As(err, &ce) {
		return false, nil
	}
	return false, err
}

// oocKernelRatio divides the median traced out-of-core check of the valid
// stress proof by one in-memory kernel check of the same file.
func (l *library) oocKernelRatio(samples []sample) (float64, error) {
	var oocMS []float64
	for _, s := range samples {
		if s.Phase == phaseTraced && s.Item == 0 && s.Err == "" {
			oocMS = append(oocMS, s.MS)
		}
	}
	t0 := time.Now()
	if _, err := kernelcheck.CheckLRAT(l.fs[0], drat.FileSource(l.c.Items[0].Proof), checker.Options{}); err != nil {
		return 0, fmt.Errorf("reference kernel check: %w", err)
	}
	return median(oocMS) / ms(time.Since(t0)), nil
}
