package kernelcheck

import (
	"io"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// DRATToLRAT checks a DRUP/DRAT proof forward, recording unit-propagation
// hints, and writes the equivalent LRAT proof to w. The emitted lines are
// re-verified by the trusted kernel before anything is written, so a
// successful return certifies the output twice over. The returned Result
// is the forward DRAT check's.
func DRATToLRAT(f *cnf.Formula, src drat.Source, w io.Writer, opts checker.Options) (*checker.Result, error) {
	proof, err := drat.Load(src)
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}
	}
	res, lines, err := drat.AnnotateForward(f, proof, opts)
	if err != nil {
		return nil, err
	}
	if err := emitVerified(f, lines, w, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// TraceToLRAT converts a native satcheck trace to LRAT: tracecheck.Derive
// materializes the learned clause contents (each resolution chain is
// validated on the way), the derived clause sequence, copied out of
// Derive's buffers, is run through the forward RUP engine with hint
// recording, and the emitted LRAT is re-verified independently before
// being written.
func TraceToLRAT(f *cnf.Formula, src trace.Source, w io.Writer, opts checker.Options) (*checker.Result, error) {
	proof := &drat.Proof{}
	err := tracecheck.Derive(f, src, func(c tracecheck.Clause) error {
		proof.Steps = append(proof.Steps, drat.Step{Lits: append(cnf.Clause{}, c.Lits...)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res, lines, err := drat.AnnotateForward(f, proof, opts)
	if err != nil {
		return nil, err
	}
	if err := emitVerified(f, lines, w, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// emitVerified re-verifies freshly generated lines with the trusted kernel
// and only then writes them.
func emitVerified(f *cnf.Formula, lines []drat.LRATLine, w io.Writer, opts checker.Options) error {
	if _, err := CheckLRATProof(f, &drat.LRATProof{Lines: lines}, opts); err != nil {
		return err
	}
	return drat.WriteLines(w, lines)
}
