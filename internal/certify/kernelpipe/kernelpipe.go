// Package kernelpipe is the kernel side of the dual-checker certification
// pipeline (internal/certify): native traces and LRAT proofs verified by
// the trusted flat-array kernel (internal/kernel) without touching any
// code from the watched-literal DRAT engine.
//
// Independence contract: this package must never import internal/drat,
// internal/checker, or internal/kernelcheck — the rup pipeline
// (internal/certify/rupipe) lives there, and the whole point of the dual
// check is that the two verdicts come from disjoint verification code.
// It therefore carries its own small LRAT parser (writing straight into
// the kernel's flat proof form) and its own translation of the resolution
// chains tracecheck.Derive validates into the kernel's flat proof. The
// import-graph guard test in internal/certify enforces the contract.
package kernelpipe

import (
	"bytes"
	"fmt"
	"math"

	"satcheck/internal/cnf"
	"satcheck/internal/kernel"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// Version names this pipeline implementation inside signed verdict
// bundles. Bump on any change to the verification semantics.
const Version = "kernelpipe/2 trusted-kernel LRAT (flat-array hint follower)"

// Options bounds one pipeline run.
type Options struct {
	// MemLimitWords bounds the kernel's live clause database, 0 = none.
	MemLimitWords int64
	// Interrupt, when non-nil, is polled periodically; a non-nil error
	// aborts the run with that error.
	Interrupt func() error
}

// Result reports an accepted run.
type Result struct {
	Adds  int   // proof addition lines
	Steps int64 // kernel hint applications
	Core  []int // 0-based original clause indices in the hint closure
}

// Reject marks a proof rejection (parse error or kernel refusal), as
// opposed to an infrastructure error or interrupt.
type Reject struct {
	Detail string
}

func (r *Reject) Error() string { return r.Detail }

// maxVar mirrors the repo-wide variable cap of the proof parsers.
const maxVar = 1 << 28

// CheckLRAT verifies an LRAT proof (ASCII) of f with the trusted kernel,
// using this package's own parser.
func CheckLRAT(f *cnf.Formula, lrat []byte, opts Options) (*Result, error) {
	var kp kernel.Proof
	if err := parseLRAT(lrat, &kp); err != nil {
		return nil, &Reject{Detail: err.Error()}
	}
	return runKernel(f, &kp, opts)
}

// CheckTrace verifies a native resolution trace of f: tracecheck.Derive
// validates every resolution chain and orders each chain's antecedents
// for replay, and the kernel re-verifies those hints, so the ordering
// needs no trust.
func CheckTrace(f *cnf.Formula, traceBytes []byte, opts Options) (*Result, error) {
	clauses, err := tracecheck.Derive(f, bytesTraceSource(traceBytes))
	if err != nil {
		return nil, &Reject{Detail: fmt.Sprintf("trace export: %v", err)}
	}
	var kp kernel.Proof
	if err := proofFromChains(clauses, &kp); err != nil {
		return nil, &Reject{Detail: err.Error()}
	}
	return runKernel(f, &kp, opts)
}

// runKernel flattens f, runs the kernel over kp, and classifies the error.
func runKernel(f *cnf.Formula, kp *kernel.Proof, opts Options) (*Result, error) {
	var kf kernel.Formula
	if err := flattenFormula(f, &kf); err != nil {
		return nil, &Reject{Detail: err.Error()}
	}
	kres, err := kernel.Check(&kf, kp, kernel.Options{
		MemLimitWords: opts.MemLimitWords,
		Interrupt:     opts.Interrupt,
		WantCore:      true,
	})
	if err != nil {
		if ke, ok := err.(*kernel.Error); ok {
			return nil, &Reject{Detail: ke.Error()}
		}
		return nil, err // interrupt or infrastructure: pass through verbatim
	}
	core := make([]int, len(kres.Core))
	for i, idx := range kres.Core {
		core[i] = int(idx)
	}
	return &Result{Adds: kres.Adds, Steps: kres.Steps, Core: core}, nil
}

// flattenFormula translates f into the kernel's flat int32 form. Original
// clauses are normalized (the verifier contract since PR 3).
func flattenFormula(f *cnf.Formula, kf *kernel.Formula) error {
	kf.Lits = kf.Lits[:0]
	kf.Off = append(kf.Off[:0], 0)
	maxV := f.NumVars
	var norm cnf.Clause
	for _, c := range f.Clauses {
		norm = append(norm[:0], c...)
		w, _ := norm.Normalize()
		for _, l := range w {
			if int(l.Var()) > maxV {
				maxV = int(l.Var())
			}
			kf.Lits = append(kf.Lits, int32(l))
		}
		kf.Off = append(kf.Off, int32(len(kf.Lits)))
	}
	if maxV > (math.MaxInt32-2)/2 {
		return fmt.Errorf("variable range exceeds the kernel's 31-bit literal space")
	}
	kf.NumVars = int32(maxV)
	return nil
}

// proofFromChains converts derived clauses into the empty kernel proof kp.
func proofFromChains(clauses []tracecheck.Clause, kp *kernel.Proof) error {
	pMaxVar := 0
	for _, c := range clauses {
		if c.ID > math.MaxInt32 {
			return fmt.Errorf("clause ID %d exceeds the kernel's 31-bit ID space", c.ID)
		}
		op := kernel.Op{ID: int32(c.ID), LitOff: int32(len(kp.Lits)), HintOff: int32(len(kp.Hints))}
		for _, l := range c.Lits {
			if int(l.Var()) > pMaxVar {
				pMaxVar = int(l.Var())
			}
			kp.Lits = append(kp.Lits, int32(l))
		}
		for _, h := range c.Hints {
			kp.Hints = append(kp.Hints, int32(h)) // hints name earlier clauses: h < c.ID
		}
		op.LitN = int32(len(kp.Lits)) - op.LitOff
		op.HintN = int32(len(kp.Hints)) - op.HintOff
		kp.Ops = append(kp.Ops, op)
		kp.NumAdds++
	}
	if pMaxVar > (math.MaxInt32-2)/2 {
		return fmt.Errorf("variable range exceeds the kernel's 31-bit literal space")
	}
	kp.MaxVar = int32(pMaxVar)
	return nil
}

// bytesTraceSource adapts an in-memory trace to trace.Source; every Open
// starts a fresh pass, as the two-pass breadth-first exporters require.
type bytesTraceSource []byte

func (b bytesTraceSource) Open() (trace.Reader, error) {
	return trace.ReaderAuto(bytes.NewReader(b))
}
