package satcheck

import (
	"context"
	"errors"
	"fmt"
	"time"

	"satcheck/internal/kernelcheck"
	"satcheck/internal/ooc"
	"satcheck/internal/proofstat"
	"satcheck/internal/trace"
)

// CheckRequest bundles everything one proof validation needs. It is the
// job-level unit of work shared by the zcheckd service, the zcheck client,
// and the zverify CLI: one formula, one trace, one checker configuration.
type CheckRequest struct {
	// Formula is the original CNF formula the trace claims unsatisfiable.
	Formula *Formula
	// Trace replays the solver's resolution trace. Sources must support
	// repeated Open calls (breadth-first and hybrid stream multiple passes).
	// Used when Format == FormatNative; ignored otherwise.
	Trace TraceSource
	// Format selects the proof encoding: FormatNative checks Trace with the
	// resolution checkers, FormatDRAT/FormatLRAT check Proof with the
	// clausal checkers, FormatER checks Proof through the ER→LRAT bridge,
	// and FormatTC checks a TraceCheck Proof in the kernel. Verdict and
	// report semantics are identical across formats: a rejected proof is a
	// report, never an error.
	Format ProofFormat
	// Proof supplies the proof bytes (clausal, ER or TraceCheck) when
	// Format != FormatNative.
	Proof ProofSource
	// Method selects the checker traversal (DepthFirst, BreadthFirst,
	// Hybrid, or Parallel). For FormatDRAT it selects the checking
	// direction instead: BreadthFirst forward-checks (streaming, no core),
	// the others backward-check and produce an unsatisfiable core.
	// Kernel routes either format through the trusted kernel
	// (internal/kernel), the allocation-free hint-following core: a native
	// trace's resolution chains are replayed in memory and its resolve
	// sources become the hints, DRAT proofs are forward-checked with hint
	// recording, and the kernel verifies the hints and extracts the core.
	// OOC runs the kernel out of core. FormatLRAT and FormatTC otherwise
	// verify in the kernel and FormatER through the ER→LRAT bridge,
	// whatever the method.
	// CheckablePair names the pairs RunCheck refuses.
	Method Method
	// Options configures the checker (memory limit, on-disk counts, ...).
	// Options.Interrupt composes with the RunCheck context: both can abort.
	Options CheckOptions
	// Analyze additionally computes proof-graph statistics (AnalyzeProof or
	// its clausal analogues) when the proof is valid; FormatTC has none.
	Analyze bool
}

// CheckReport is the structured outcome of RunCheck. Exactly one of Result
// and Failure is set: a rejected proof is a *report*, not an infrastructure
// error — long-lived services must distinguish "the solver is buggy" from
// "the disk is full".
type CheckReport struct {
	// Valid is true when the trace proves the formula unsatisfiable.
	Valid bool
	// Method names the checker that produced this report: Kernel for LRAT
	// and TraceCheck proofs (OOC when that was asked for) and for ER
	// proofs, whatever the request named; for native traces and DRAT, the
	// requested method, which picks the checker or the checking direction.
	Method Method
	// Result holds checker statistics (and, for DF/hybrid, the core) when
	// Valid.
	Result *CheckResult
	// Failure holds the structured diagnostic when the proof was rejected.
	Failure *CheckError
	// Stats holds proof-graph analytics when requested and Valid.
	Stats *ProofStats
	// Elapsed is the wall-clock checking time (excluding Analyze).
	Elapsed time.Duration
}

// CheckablePair returns nil when RunCheck can check a proof in the given
// format with method m, and the reason it cannot otherwise: BDD checks ER
// proofs only, and OOC checks every format but ER, whose extension
// definitions need the whole clause database. zcheckd applies the same
// rule before it reads a request body.
func CheckablePair(format ProofFormat, m Method) error {
	switch {
	case format < FormatNative || format > FormatTC:
		return fmt.Errorf("satcheck: unknown proof format %d", int(format))
	case m.Name() == "":
		return fmt.Errorf("satcheck: unknown check method %d", int(m))
	case m == BDD && format != FormatER:
		return fmt.Errorf("satcheck: method bdd checks er proofs only, not %s", format)
	case m == OOC && format == FormatER:
		return fmt.Errorf("satcheck: method ooc cannot check er proofs (extension definitions need the full clause database)")
	}
	return nil
}

// RunCheck validates one CheckRequest under a context. It is the one place
// that maps a (format, method) pair to a checker. The context's
// deadline/cancellation is honored mid-check: it is polled inside the
// checker loops and on every proof read, so a hung or oversized job aborts
// promptly with ctx.Err().
//
// The error return is reserved for infrastructure failures (I/O, context
// cancellation, a pair CheckablePair refuses, a missing proof). A rejected
// proof is NOT an error: it comes back as a CheckReport with Valid=false
// and the Failure diagnostic, which is what lets the zcheckd service answer
// "rejected" instead of 500.
func RunCheck(ctx context.Context, req CheckRequest) (*CheckReport, error) {
	if err := CheckablePair(req.Format, req.Method); err != nil {
		return nil, err
	}
	if req.Format == FormatNative && req.Trace == nil || req.Format != FormatNative && req.Proof == nil {
		return nil, fmt.Errorf("satcheck: %s check request has no proof source", req.Format)
	}
	opts := req.Options
	prev := opts.Interrupt
	opts.Interrupt = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if prev != nil {
			return prev()
		}
		return nil
	}
	f, m := req.Formula, req.Method
	traceSrc := ctxSource{ctx: ctx, src: req.Trace}
	proofSrc := ctxProofSource{ctx: ctx, src: req.Proof}

	start := time.Now()
	var res *CheckResult
	var err error
	var analyze func() (*ProofStats, error)
	switch req.Format {
	case FormatNative:
		res, err = Check(f, traceSrc, m, opts)
		analyze = func() (*ProofStats, error) { return proofstat.Analyze(f, traceSrc) }
	case FormatDRAT:
		res, err = CheckDRAT(f, proofSrc, m, opts)
		analyze = func() (*ProofStats, error) { return proofstat.AnalyzeDRAT(f, proofSrc) }
	case FormatLRAT:
		if m == OOC {
			res, err = ooc.CheckLRAT(f, proofSrc, opts)
		} else {
			res, err = CheckLRAT(f, proofSrc, opts)
		}
		analyze = func() (*ProofStats, error) { return proofstat.AnalyzeLRAT(f, proofSrc) }
	case FormatER:
		res, err = CheckER(f, proofSrc, opts)
		analyze = func() (*ProofStats, error) { return proofstat.AnalyzeER(f, proofSrc) }
	case FormatTC:
		if m == OOC {
			res, err = ooc.CheckTraceCheck(f, proofSrc, opts)
		} else {
			res, err = kernelcheck.CheckTraceCheck(f, proofSrc, opts)
		}
	}
	report := &CheckReport{Method: checkerThatRan(req.Format, m), Elapsed: time.Since(start)}
	if err != nil {
		// Context errors win even when a checker wrapped them in a
		// diagnostic (e.g. a CheckError around an aborted trace read).
		var ce *CheckError
		if ctx.Err() == nil && errors.As(err, &ce) {
			report.Failure = ce
			return report, nil
		}
		return nil, ctxErrOr(ctx, err)
	}
	report.Valid, report.Result = true, res
	if req.Analyze && analyze != nil {
		if report.Stats, err = analyze(); err != nil {
			return nil, ctxErrOr(ctx, err)
		}
	}
	return report, nil
}

// checkerThatRan is the method that verifies a proof in format when m is
// requested (see CheckReport.Method).
func checkerThatRan(format ProofFormat, m Method) Method {
	if format == FormatER || (format == FormatLRAT || format == FormatTC) && m != OOC {
		return Kernel
	}
	return m
}

// ctxErrOr returns ctx's error if it is done, err otherwise.
func ctxErrOr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// ctxSource aborts trace reads once the context is done, covering the
// phases that consume the trace outside the checkers' polled loops (e.g.
// the depth-first checker's initial Load).
type ctxSource struct {
	ctx context.Context
	src TraceSource
}

// Open implements TraceSource.
func (c ctxSource) Open() (trace.Reader, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	r, err := c.src.Open()
	if err != nil {
		return nil, err
	}
	return &ctxReader{ctx: c.ctx, r: r}, nil
}

type ctxReader struct {
	ctx context.Context
	r   trace.Reader
	n   int
}

func (cr *ctxReader) Next() (trace.Event, error) {
	// Poll the context every few thousand records; ctx.Err is cheap but not
	// free, and traces run to tens of millions of records.
	if cr.n++; cr.n%4096 == 0 {
		if err := cr.ctx.Err(); err != nil {
			return trace.Event{}, err
		}
	}
	return cr.r.Next()
}
