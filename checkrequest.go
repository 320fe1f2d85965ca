package satcheck

import (
	"context"
	"errors"
	"fmt"
	"time"

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
	// clausal checkers, and FormatER checks Proof through the ER→LRAT
	// bridge. Verdict and report semantics are identical across formats: a
	// rejected proof is a report, never an error.
	Format ProofFormat
	// Proof supplies the clausal proof bytes when Format != FormatNative.
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
	// FormatLRAT and FormatER always verify in the kernel and otherwise
	// ignore Method.
	Method Method
	// Options configures the checker (memory limit, on-disk counts, ...).
	// Options.Interrupt composes with the RunCheck context: both can abort.
	Options CheckOptions
	// Analyze additionally computes proof-graph statistics (AnalyzeProof or
	// its clausal analogues) when the proof is valid.
	Analyze bool
}

// CheckReport is the structured outcome of RunCheck. Exactly one of Result
// and Failure is set: a rejected proof is a *report*, not an infrastructure
// error — long-lived services must distinguish "the solver is buggy" from
// "the disk is full".
type CheckReport struct {
	// Valid is true when the trace proves the formula unsatisfiable.
	Valid bool
	// Method echoes the traversal that produced this report.
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

// RunCheck validates one CheckRequest under a context. The context's
// deadline/cancellation is honored mid-check: it is polled inside the
// checker loops and on every trace read, so a hung or oversized job aborts
// promptly with ctx.Err().
//
// The error return is reserved for infrastructure failures (I/O, context
// cancellation, bad method). A rejected proof is NOT an error: it comes back
// as a CheckReport with Valid=false and the Failure diagnostic, which is
// what lets the zcheckd service answer "rejected" instead of 500.
func RunCheck(ctx context.Context, req CheckRequest) (*CheckReport, error) {
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
	if req.Format != FormatNative {
		return runClausalCheck(ctx, req, opts)
	}
	src := ctxSource{ctx: ctx, src: req.Trace}

	start := time.Now()
	res, err := Check(req.Formula, src, req.Method, opts)
	elapsed := time.Since(start)

	report := &CheckReport{Method: req.Method, Elapsed: elapsed}
	if err != nil {
		// Context errors win even when a checker wrapped them in a
		// diagnostic (e.g. a CheckError around an aborted trace read).
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		var ce *CheckError
		if errors.As(err, &ce) {
			report.Failure = ce
			return report, nil
		}
		return nil, err
	}
	report.Valid = true
	report.Result = res
	if req.Analyze {
		stats, err := proofstat.Analyze(req.Formula, src)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
		report.Stats = stats
	}
	return report, nil
}

// runClausalCheck is the DRAT/LRAT arm of RunCheck; opts already has the
// context composed into Options.Interrupt.
func runClausalCheck(ctx context.Context, req CheckRequest, opts CheckOptions) (*CheckReport, error) {
	if req.Proof == nil {
		return nil, fmt.Errorf("satcheck: %s check request has no proof source", req.Format)
	}
	src := ctxProofSource{ctx: ctx, src: req.Proof}

	start := time.Now()
	var res *CheckResult
	var err error
	switch req.Format {
	case FormatDRAT:
		res, err = CheckDRAT(req.Formula, src, req.Method, opts)
	case FormatLRAT:
		if req.Method == OOC {
			res, err = CheckLRATOOC(req.Formula, src, opts)
		} else {
			res, err = CheckLRAT(req.Formula, src, opts)
		}
	case FormatER:
		if req.Method == OOC {
			return nil, fmt.Errorf("satcheck: the out-of-core checker does not support %s proofs (extension definitions need the full database)", req.Format)
		}
		res, err = CheckER(req.Formula, src, opts)
	default:
		return nil, fmt.Errorf("satcheck: unknown proof format %d", int(req.Format))
	}
	elapsed := time.Since(start)

	report := &CheckReport{Method: req.Method, Elapsed: elapsed}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		var ce *CheckError
		if errors.As(err, &ce) {
			report.Failure = ce
			return report, nil
		}
		return nil, err
	}
	report.Valid = true
	report.Result = res
	if req.Analyze {
		var stats *ProofStats
		switch req.Format {
		case FormatDRAT:
			stats, err = proofstat.AnalyzeDRAT(req.Formula, src)
		case FormatER:
			stats, err = proofstat.AnalyzeER(req.Formula, src)
		default:
			stats, err = proofstat.AnalyzeLRAT(req.Formula, src)
		}
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
		report.Stats = stats
	}
	return report, nil
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
