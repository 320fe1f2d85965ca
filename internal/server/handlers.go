package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"runtime"
	"strconv"

	"satcheck"
	"satcheck/internal/cnf"
	"satcheck/internal/trace"
)

// handleCheck is POST /v1/check: multipart parts "formula" (DIMACS) and
// "trace" (any trace encoding — ASCII, binary, either gzipped). The parts
// are *streamed*: the formula is parsed and the trace spooled to a temp
// file as the body arrives, with SHA-256 digests computed on the way
// through; nothing is buffered wholesale in memory and the trace is format-
// sniffed off the spool, never off a rewound body.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.jobsRejected.Add(1)
		s.backpressure(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// policy=dual routes to the fail-closed dual-checker certification
	// pipeline (certify.go); the default (empty) policy is the classic
	// single-checker path below.
	switch pol := r.URL.Query().Get("policy"); pol {
	case "":
	case "dual":
		s.handleDualCheck(w, r)
		return
	default:
		s.badRequest(w, fmt.Sprintf("unknown policy %q (want dual)", pol))
		return
	}

	opts, err := ParseJobOptions(r.URL.Query())
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	// Cap per-job parallelism at the pool size before the cache key is
	// formed: s.cfg.Workers jobs may check concurrently, so one job may not
	// claim more CPUs than one pool slot's fair share of the machine.
	// Clausal checkers are sequential, so parallelism never enters their
	// cache key.
	if opts.Method == satcheck.Parallel && opts.Format == satcheck.FormatNative {
		if opts.Parallelism <= 0 || opts.Parallelism > s.cfg.Workers {
			opts.Parallelism = s.cfg.Workers
		}
		if n := runtime.NumCPU(); opts.Parallelism > n {
			opts.Parallelism = n
		}
	} else {
		opts.Parallelism = 0
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		s.badRequest(w, "expected multipart/form-data with parts \"formula\" and \"trace\": "+err.Error())
		return
	}

	ing, err := s.ingest(mr, opts.Format)
	if ing != nil {
		defer ing.close()
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.badRequests.Add(1)
			s.errorJSON(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), 0)
			return
		}
		s.badRequest(w, err.Error())
		return
	}

	key := makeCacheKey(ing.formulaSum, ing.traceSum, opts.canonical())
	if resp, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		hit := *resp // shallow copy; cached entries are immutable
		hit.Cached = true
		s.writeJSON(w, http.StatusOK, &hit)
		return
	}
	s.metrics.cacheMisses.Add(1)

	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	req := satcheck.CheckRequest{
		Formula: ing.formula,
		Format:  opts.Format,
		Method:  opts.Method,
		Options: satcheck.CheckOptions{
			MemLimitWords:  opts.MemLimitMB << 20 / 4,
			MemBudgetBytes: opts.MemBudgetBytes,
			TempDir:        s.cfg.TempDir,
			Parallelism:    opts.Parallelism,
		},
		Analyze: opts.Analyze,
	}
	if opts.Format == satcheck.FormatNative {
		req.Trace = ing.spool
	} else {
		req.Proof = ing.spool.proofSource()
	}
	j := &job{
		id:   s.nextJob.Add(1),
		ctx:  ctx,
		req:  req,
		opts: opts,
		key:  key,
		done: make(chan jobResult, 1),
	}

	if err := s.queue.Submit(j); err != nil {
		s.metrics.jobsRejected.Add(1)
		switch {
		case errors.Is(err, errQueueFull):
			s.backpressure(w, http.StatusTooManyRequests, "job queue full")
		default:
			s.backpressure(w, http.StatusServiceUnavailable, "server is draining")
		}
		return
	}
	s.metrics.jobsAccepted.Add(1)
	s.log.Info("check accepted", "job", j.id, "method", opts.Method.String(),
		"formula_bytes", ing.formulaBytes, "trace_bytes", ing.traceBytes)

	res := <-j.done
	if res.err != nil {
		if errors.Is(res.err, context.DeadlineExceeded) {
			s.errorJSON(w, http.StatusGatewayTimeout,
				fmt.Sprintf("check exceeded its %v deadline", timeout), 0)
			return
		}
		if errors.Is(res.err, context.Canceled) {
			// Client went away; the connection is dead but answer anyway.
			s.errorJSON(w, http.StatusServiceUnavailable, "request canceled", 0)
			return
		}
		s.errorJSON(w, http.StatusInternalServerError, res.err.Error(), 0)
		return
	}
	s.writeJSON(w, http.StatusOK, res.resp)
}

// ingested is the decoded request payload: the parsed formula and the trace
// spooled to an unlinked temp file that supports the checkers' repeated
// passes.
type ingested struct {
	formula      *cnf.Formula
	formulaSum   [sha256.Size]byte
	formulaBytes int64
	spool        *spoolSource
	traceSum     [sha256.Size]byte
	traceBytes   int64
}

func (in *ingested) close() {
	if in.spool != nil {
		in.spool.f.Close()
	}
}

// ingest walks the multipart parts in body order. Unknown parts are drained
// and ignored for forward compatibility. The format decides how the "trace"
// part is validated at ingest (clausal proofs are sniffed at check time —
// any byte sequence is a plausible binary-DRAT prefix, so there is no cheap
// ingest-side rejection for them).
func (s *Server) ingest(mr *multipart.Reader, format satcheck.ProofFormat) (*ingested, error) {
	in := &ingested{}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return in, fmt.Errorf("reading multipart body: %w", err)
		}
		switch part.FormName() {
		case "formula":
			if in.formula != nil {
				return in, errors.New("duplicate \"formula\" part")
			}
			h := sha256.New()
			cr := &countingReader{r: io.TeeReader(part, h)}
			f, err := cnf.ParseDimacs(cr)
			if err != nil {
				return in, fmt.Errorf("parsing formula: %w", err)
			}
			// ParseDimacs may stop at the declared clause count; drain the
			// remainder so the digest covers the exact bytes sent.
			io.Copy(io.Discard, cr)
			in.formula = f
			h.Sum(in.formulaSum[:0])
			in.formulaBytes = cr.n
			s.metrics.bytesIngested.Add(cr.n)
		case "trace":
			if in.spool != nil {
				return in, errors.New("duplicate \"trace\" part")
			}
			spool, sum, n, err := s.spoolTrace(part, format)
			if err != nil {
				return in, err
			}
			in.spool, in.traceSum, in.traceBytes = spool, sum, n
			s.metrics.bytesIngested.Add(n)
		default:
			io.Copy(io.Discard, part)
		}
	}
	if in.formula == nil {
		return in, errors.New("missing \"formula\" part")
	}
	if in.spool == nil {
		return in, errors.New("missing \"trace\" part")
	}
	return in, nil
}

// spoolTrace streams one trace part to an unlinked temp file, hashing on
// the way. Native traces are additionally encoding-sniffed off the spool so
// a garbage payload is a 400 at ingest rather than a worker-side surprise;
// clausal proofs skip the sniff (see ingest) and malformed ones come back
// as a rejected verdict from the checker instead.
func (s *Server) spoolTrace(part io.Reader, format satcheck.ProofFormat) (*spoolSource, [sha256.Size]byte, int64, error) {
	var sum [sha256.Size]byte
	tmp, err := os.CreateTemp(s.cfg.TempDir, "zcheckd-trace-*")
	if err != nil {
		return nil, sum, 0, fmt.Errorf("spooling trace: %w", err)
	}
	// Unlink immediately: the spool lives exactly as long as its handle.
	os.Remove(tmp.Name())
	h := sha256.New()
	n, err := io.Copy(tmp, io.TeeReader(part, h))
	if err != nil {
		tmp.Close()
		return nil, sum, 0, fmt.Errorf("spooling trace: %w", err)
	}
	h.Sum(sum[:0])
	spool := &spoolSource{f: tmp, size: n}
	if format == satcheck.FormatNative {
		if _, err := spool.Open(); err != nil {
			tmp.Close()
			return nil, sum, 0, fmt.Errorf("unrecognized trace: %w", err)
		}
	}
	return spool, sum, n, nil
}

// spoolSource replays the spooled trace, one independent pass per Open —
// exactly the multi-pass contract the breadth-first and hybrid checkers
// need, over a body that could only be read once.
type spoolSource struct {
	f    *os.File
	size int64
}

// Open implements trace.Source. SectionReader reads via ReadAt, so
// concurrent passes never disturb each other's offsets.
func (sp *spoolSource) Open() (trace.Reader, error) {
	return trace.ReaderAuto(io.NewSectionReader(sp.f, 0, sp.size))
}

// proofSource exposes the same spool as raw bytes — the clausal checkers do
// their own gzip/binary sniffing and want the proof verbatim.
func (sp *spoolSource) proofSource() satcheck.ProofSource { return (*spoolProofSource)(sp) }

type spoolProofSource spoolSource

// Open implements satcheck.ProofSource.
func (sp *spoolProofSource) Open() (io.ReadCloser, error) {
	return io.NopCloser(io.NewSectionReader(sp.f, 0, sp.size)), nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, &HealthResponse{
		Status:     status,
		QueueDepth: s.queue.Depth(),
		Running:    int(s.metrics.jobsRunning.Load()),
		Workers:    s.cfg.Workers,
		CacheSize:  s.cache.Len(),
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.metrics.badRequests.Add(1)
	s.errorJSON(w, http.StatusBadRequest, msg, 0)
}

// backpressure answers 429/503 with a Retry-After hint in both header and
// body.
func (s *Server) backpressure(w http.ResponseWriter, code int, msg string) {
	sec := int(s.cfg.RetryAfter.Seconds())
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	s.errorJSON(w, code, msg, sec)
}

func (s *Server) errorJSON(w http.ResponseWriter, code int, msg string, retrySec int) {
	s.writeJSON(w, code, &ErrorResponse{Error: msg, RetryAfterSec: retrySec})
}
