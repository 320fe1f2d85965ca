// Package kernelcheck is the bridge between the untrusted annotators and
// the trusted kernel (internal/kernel). Every proof format terminates here:
// parsed LRAT goes straight in, native traces carry their own hints (each
// learned clause's resolve sources, ordered by tracecheck.Derive), and
// DRAT proofs are first annotated by the forward engine (hint recording,
// internal/drat); the kernel re-verifies every hint, so the only code path
// that can report "verified" is kernel.Check.
//
// This package deliberately lives outside internal/drat: the certification
// pipeline (internal/certify) requires that the watched-literal DRAT engine
// and the kernel path share no verification package, and extracting the
// bridge is what keeps internal/drat free of any internal/kernel import.
package kernelcheck

import (
	"fmt"
	"math"
	"sync"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/kernel"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// noStep fills CheckError.Step for clausal failures, which have no
// within-clause resolution step index (mirrors internal/drat).
const noStep = -1

// kernelRun bundles a reusable kernel checker with the flat translation
// buffers feeding it. Pooled so steady-state service traffic re-verifies
// proofs without re-growing any arrays.
type kernelRun struct {
	ck   kernel.Checker
	kf   kernel.Formula
	kp   kernel.Proof
	norm cnf.Clause
}

var kernelRuns = sync.Pool{New: func() any { return new(kernelRun) }}

// checkLRATKernel flattens (f, proof) and runs the trusted kernel.
// Rejections map onto the exact *checker.CheckError values of the historic
// in-package verifier, so callers and tests see byte-identical diagnostics.
func checkLRATKernel(f *cnf.Formula, proof *drat.LRATProof, opts checker.Options, wantCore bool) (*checker.Result, error) {
	kr := kernelRuns.Get().(*kernelRun)
	defer kernelRuns.Put(kr)
	if err := kr.flatten(f, proof); err != nil {
		return nil, err
	}
	kres, err := kr.ck.Check(&kr.kf, &kr.kp, kernel.Options{
		MemLimitWords: opts.MemLimitWords,
		Interrupt:     opts.Interrupt,
		WantCore:      wantCore,
	})
	if err != nil {
		return nil, kernelError(err)
	}
	res := &checker.Result{
		LearnedTotal:    kres.Adds,
		ClausesBuilt:    kres.Built,
		ResolutionSteps: kres.Steps,
		PeakMemWords:    kres.PeakMemWords,
	}
	if wantCore {
		core := make([]int, len(kres.Core))
		for i, idx := range kres.Core {
			core[i] = int(idx)
		}
		res.CoreClauses = core
		res.CoreVars = kres.CoreVars
	}
	return res, nil
}

// flatten translates the formula and proof into the kernel's flat int32
// form, reusing kr's buffers. Original clauses are normalized (the
// verifier contract since PR 3); proof lits are taken verbatim. cnf.Lit's
// encoding (var<<1 | neg) is already the kernel's, so literals copy
// directly.
func (kr *kernelRun) flatten(f *cnf.Formula, proof *drat.LRATProof) error {
	kf, kp := &kr.kf, &kr.kp
	kf.Lits = kf.Lits[:0]
	kf.Off = append(kf.Off[:0], 0)
	maxVar := f.NumVars
	for _, c := range f.Clauses {
		kr.norm = append(kr.norm[:0], c...)
		w, _ := kr.norm.Normalize()
		for _, l := range w {
			if int(l.Var()) > maxVar {
				maxVar = int(l.Var())
			}
			kf.Lits = append(kf.Lits, int32(l))
		}
		kf.Off = append(kf.Off, int32(len(kf.Lits)))
	}
	kp.Ops = kp.Ops[:0]
	kp.Lits = kp.Lits[:0]
	kp.Hints = kp.Hints[:0]
	kp.Dels = kp.Dels[:0]
	kp.NumAdds = 0
	pMaxVar := 0
	for li := range proof.Lines {
		ln := &proof.Lines[li]
		id, err := kernelID(ln.ID)
		if err != nil {
			return err
		}
		if ln.Del {
			op := kernel.Op{ID: id, Del: true, DelOff: int32(len(kp.Dels))}
			for _, d := range ln.DelIDs {
				di, err := kernelID(d)
				if err != nil {
					return err
				}
				kp.Dels = append(kp.Dels, di)
			}
			op.DelN = int32(len(kp.Dels)) - op.DelOff
			kp.Ops = append(kp.Ops, op)
			continue
		}
		op := kernel.Op{ID: id, LitOff: int32(len(kp.Lits)), HintOff: int32(len(kp.Hints))}
		for _, l := range ln.Lits {
			if int(l.Var()) > pMaxVar {
				pMaxVar = int(l.Var())
			}
			kp.Lits = append(kp.Lits, int32(l))
		}
		for _, h := range ln.Hints {
			if h > math.MaxInt32 || h < -math.MaxInt32 {
				return kernelIDRange(h)
			}
			kp.Hints = append(kp.Hints, int32(h))
		}
		op.LitN = int32(len(kp.Lits)) - op.LitOff
		op.HintN = int32(len(kp.Hints)) - op.HintOff
		kp.Ops = append(kp.Ops, op)
		kp.NumAdds++
	}
	if maxVar > (math.MaxInt32-2)/2 || pMaxVar > (math.MaxInt32-2)/2 {
		return &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep,
			Detail: "variable range exceeds the kernel's 31-bit literal space"}
	}
	kf.NumVars = int32(maxVar)
	kp.MaxVar = int32(pMaxVar)
	return nil
}

// kernelID narrows a clause ID to the kernel's int32 ID space. The LRAT
// tokenizer admits IDs up to ~16× the variable cap, so a hostile proof can
// exceed 31 bits; the kernel rejects such proofs outright rather than
// alias IDs.
func kernelID(id int) (int32, error) {
	if id > math.MaxInt32 || id < -math.MaxInt32 {
		return 0, kernelIDRange(id)
	}
	return int32(id), nil
}

func kernelIDRange(id int) error {
	return &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep,
		Detail: fmt.Sprintf("clause ID %d exceeds the kernel's 31-bit ID space", id)}
}

// kernelError converts a kernel rejection into the historic CheckError
// vocabulary. Non-kernel errors (Options.Interrupt) pass through verbatim —
// the facade detects context cancellation by error identity.
func kernelError(err error) error {
	ke, ok := err.(*kernel.Error)
	if !ok {
		return err
	}
	ce := &checker.CheckError{ClauseID: int(ke.Line), Step: noStep}
	switch ke.Code {
	case kernel.ErrDeleteUnknown:
		ce.Kind = checker.FailTrace
		ce.Detail = fmt.Sprintf("deletion of unknown clause %d", ke.Ref)
	case kernel.ErrIDOrder:
		ce.Kind = checker.FailTrace
		ce.Detail = fmt.Sprintf("clause IDs must increase (previous %d)", ke.Ref)
	case kernel.ErrHintNotLive:
		ce.Kind = checker.FailHint
		ce.Detail = fmt.Sprintf("hint references clause %d, which is not live", ke.Ref)
	case kernel.ErrHintSatisfied:
		ce.Kind = checker.FailHint
		ce.Detail = fmt.Sprintf("hinted clause %d is satisfied, not unit", ke.Ref)
	case kernel.ErrHintTwoUnassigned:
		ce.Kind = checker.FailHint
		ce.Detail = fmt.Sprintf("hinted clause %d has two unassigned literals", ke.Ref)
	case kernel.ErrRUPNoConflict:
		ce.Kind = checker.FailHint
		ce.Detail = "RUP hints end without a conflict"
	case kernel.ErrEmptyRAT:
		ce.Kind = checker.FailHint
		ce.Detail = "empty clause cannot be RAT"
	case kernel.ErrPositiveHint:
		ce.Kind = checker.FailHint
		ce.Detail = "positive hint where a RAT candidate group was expected"
	case kernel.ErrGroupNotCandidate:
		ce.Kind = checker.FailHint
		ce.Detail = fmt.Sprintf("RAT group for clause %d, which does not contain %s", ke.Ref, cnf.Lit(ke.Lit))
	case kernel.ErrGroupDuplicate:
		ce.Kind = checker.FailHint
		ce.Detail = fmt.Sprintf("duplicate RAT group for clause %d", ke.Ref)
	case kernel.ErrGroupNoConflict:
		ce.Kind = checker.FailHint
		ce.Detail = fmt.Sprintf("RAT group for clause %d ends without a conflict", ke.Ref)
	case kernel.ErrMissingCandidates:
		ids := make([]int, len(ke.IDs))
		for i, id := range ke.IDs {
			ids[i] = int(id)
		}
		ce.Kind = checker.FailHint
		ce.Detail = fmt.Sprintf("RAT check misses resolution candidates %v", ids)
	case kernel.ErrNotEmpty:
		ce.Kind = checker.FailNotEmpty
		ce.Detail = "LRAT proof ends without deriving the empty clause"
	case kernel.ErrMemFormula:
		ce.Kind = checker.FailMemoryLimit
		ce.Detail = "formula alone exceeds the memory budget"
	case kernel.ErrMemDB:
		ce.Kind = checker.FailMemoryLimit
		ce.Detail = "clause database exceeded the memory budget"
	default:
		ce.Kind = checker.FailHint
		ce.Detail = ke.Error()
	}
	return ce
}

// TranslateKernelError exposes the kernel→CheckError mapping to the
// out-of-core checker (internal/ooc), which drives kernel windows itself
// but must surface the same diagnostics as the in-memory path.
func TranslateKernelError(err error) error { return kernelError(err) }

// TraceLRATLines turns a native solver trace into the LRAT lines of
// tracecheck.Derive's clauses, sharing their literal and hint slices. A
// malformed trace is a FailTrace rejection, as in every native checker, so
// callers (zverify exit 2, zcheckd "rejected") never see an internal
// failure. KernelCheckTrace and the out-of-core checker both use it.
func TraceLRATLines(f *cnf.Formula, src trace.Source) ([]drat.LRATLine, error) {
	clauses, err := tracecheck.Derive(f, src)
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: trace.NoClause, Step: -1, Err: err}
	}
	lines := make([]drat.LRATLine, len(clauses))
	for i, c := range clauses {
		lines[i] = drat.LRATLine{ID: c.ID, Lits: c.Lits, Hints: c.Hints}
	}
	return lines, nil
}

// CheckLRATCore is CheckLRAT with the kernel's hint-closure unsat core
// computed (CheckLRAT historically reports none; core extraction is wanted
// when cross-checking cores against the out-of-core checker).
func CheckLRATCore(f *cnf.Formula, src drat.Source, opts checker.Options) (*checker.Result, error) {
	proof, err := drat.LoadLRAT(src)
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}
	}
	return checkLRATKernel(f, proof, opts, true)
}

// CheckLRAT verifies an LRAT proof of f with the trusted kernel: a
// deliberately small hint-following verifier (internal/kernel) that shares
// no propagation code with the DRAT engine, so the two implementations
// cross-check each other. Rejections come back as *checker.CheckError
// (FailHint for bad hints).
func CheckLRAT(f *cnf.Formula, src drat.Source, opts checker.Options) (*checker.Result, error) {
	proof, err := drat.LoadLRAT(src)
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}
	}
	return CheckLRATProof(f, proof, opts)
}

// CheckLRATProof verifies an already-parsed LRAT proof with the trusted
// kernel (internal/kernel): the flat-array hint-following core that every
// proof format funnels into. Verdicts and diagnostics are byte-identical
// to the historic in-package verifier, which survives only as a test-time
// cross-check (internal/drat/lrat_legacy.go).
func CheckLRATProof(f *cnf.Formula, proof *drat.LRATProof, opts checker.Options) (*checker.Result, error) {
	return checkLRATKernel(f, proof, opts, false)
}

// KernelCheckTrace verifies a native solver trace end to end through the
// trusted kernel, with the trace's own resolve sources as hints
// (TraceLRATLines). The returned Result is the kernel's, including the
// hint-closure unsat core: the original clauses the trace's chains reach.
func KernelCheckTrace(f *cnf.Formula, src trace.Source, opts checker.Options) (*checker.Result, error) {
	lines, err := TraceLRATLines(f, src)
	if err != nil {
		return nil, err
	}
	return checkLRATKernel(f, &drat.LRATProof{Lines: lines}, opts, true)
}

// KernelCheckDRAT verifies a DRUP/DRAT proof through the trusted kernel:
// forward annotation, then kernel verification of the hinted form. The
// returned Result is the kernel's (LearnedTotal counts the annotated LRAT
// additions), with the hint-closure core.
func KernelCheckDRAT(f *cnf.Formula, src drat.Source, opts checker.Options) (*checker.Result, error) {
	proof, err := drat.Load(src)
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}
	}
	return KernelCheckDRATProof(f, proof, opts)
}

// KernelCheckDRATProof is KernelCheckDRAT over an already-parsed proof.
func KernelCheckDRATProof(f *cnf.Formula, proof *drat.Proof, opts checker.Options) (*checker.Result, error) {
	_, lines, err := drat.AnnotateForward(f, proof, opts)
	if err != nil {
		return nil, err
	}
	return checkLRATKernel(f, &drat.LRATProof{Lines: lines}, opts, true)
}
