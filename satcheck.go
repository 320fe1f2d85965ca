// Package satcheck validates SAT solvers with an independent
// resolution-based checker, implementing Zhang & Malik, "Validating SAT
// Solvers Using an Independent Resolution-Based Checker: Practical
// Implementations and Other Applications" (DATE 2003).
//
// The package bundles:
//
//   - a Chaff-style CDCL SAT solver instrumented to emit a resolution trace
//     when it claims unsatisfiability;
//   - four independent checkers (depth-first, breadth-first, hybrid, and a
//     DAG-scheduled parallel variant of the hybrid) that replay the trace
//     and verify that the empty clause is derivable from the original
//     clauses by resolution;
//   - unsatisfiable-core extraction from the depth-first checker's
//     by-product, with the paper's iterate-to-fixed-point refinement;
//   - DIMACS I/O, a circuit/Tseitin front-end, and generators for the
//     benchmark families of the paper's evaluation.
//
// Quick start:
//
//	f, _ := satcheck.ParseDimacsFile("formula.cnf")
//	run, err := satcheck.SolveWithProof(f, satcheck.SolverOptions{})
//	if err != nil { ... }
//	if run.Status == satcheck.StatusUnsat {
//	    res, err := satcheck.Check(f, run.Trace, satcheck.DepthFirst, satcheck.CheckOptions{})
//	    // err == nil  ==>  the UNSAT claim is proved, independently.
//	    _ = res
//	}
package satcheck

import (
	"fmt"
	"io"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/core"
	"satcheck/internal/incremental"
	"satcheck/internal/interp"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/ooc"
	"satcheck/internal/proofstat"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
	"satcheck/internal/trim"
)

// Re-exported substrate types. The facade is the supported public surface;
// internal packages may change freely.
type (
	// Formula is a CNF formula.
	Formula = cnf.Formula
	// Clause is a disjunction of literals.
	Clause = cnf.Clause
	// Lit is a literal.
	Lit = cnf.Lit
	// Var is a propositional variable (1-based).
	Var = cnf.Var
	// Model is a satisfying assignment.
	Model = cnf.Model
	// SolverOptions configures the CDCL solver.
	SolverOptions = solver.Options
	// SolverStats reports solver counters.
	SolverStats = solver.Stats
	// CheckOptions configures the checkers.
	CheckOptions = checker.Options
	// CheckResult reports a successful validation.
	CheckResult = checker.Result
	// CheckError is the structured diagnostic of a failed validation.
	CheckError = checker.CheckError
	// Status is a solver outcome.
	Status = solver.Status
	// TraceSink receives trace records from the solver.
	TraceSink = trace.Sink
	// TraceSource replays a recorded trace for a checker.
	TraceSource = trace.Source
	// MemoryTrace buffers a trace in memory (both Sink and Source).
	MemoryTrace = trace.MemoryTrace
	// CoreExtraction is one validated unsatisfiable core.
	CoreExtraction = core.Extraction
	// CoreIteration is the result of iterated core refinement.
	CoreIteration = core.IterateResult
)

// Solver outcomes.
const (
	StatusUnknown = solver.StatusUnknown
	StatusSat     = solver.StatusSat
	StatusUnsat   = solver.StatusUnsat
)

// NewFormula returns an empty formula over numVars variables.
func NewFormula(numVars int) *Formula { return cnf.NewFormula(numVars) }

// ParseDimacs reads a DIMACS CNF formula.
func ParseDimacs(r io.Reader) (*Formula, error) { return cnf.ParseDimacs(r) }

// ParseDimacsFile reads a DIMACS CNF file.
func ParseDimacsFile(path string) (*Formula, error) { return cnf.ParseDimacsFile(path) }

// WriteDimacs writes f in DIMACS format.
func WriteDimacs(w io.Writer, f *Formula) error { return cnf.WriteDimacs(w, f) }

// VerifyModel checks a claimed satisfying assignment against the formula —
// the linear-time "SAT side" of solver validation. It returns the index of
// the first unsatisfied clause, or (-1, true).
func VerifyModel(f *Formula, m Model) (badClause int, ok bool) { return cnf.VerifyModel(f, m) }

// Run is the outcome of SolveWithProof.
type Run struct {
	// Status is the solver's claim.
	Status Status
	// Model holds the satisfying assignment when Status == StatusSat.
	Model Model
	// Trace holds the resolution trace when Status == StatusUnsat; it can be
	// handed to Check. Nil for SAT runs.
	Trace *MemoryTrace
	// Stats are the solver counters.
	Stats SolverStats
}

// Solve decides f and returns the model for satisfiable formulas. No trace
// is recorded (use SolveWithProof to validate UNSAT claims).
func Solve(f *Formula, opts SolverOptions) (Status, Model, error) {
	s, err := solver.New(f, opts)
	if err != nil {
		return StatusUnknown, nil, err
	}
	st, err := s.Solve()
	if err != nil {
		return st, nil, err
	}
	return st, s.Model(), nil
}

// SolveWithProof decides f while recording the resolution trace needed to
// independently validate an UNSAT answer.
func SolveWithProof(f *Formula, opts SolverOptions) (*Run, error) {
	s, err := solver.New(f, opts)
	if err != nil {
		return nil, err
	}
	tr := &trace.MemoryTrace{}
	s.SetTrace(tr)
	st, err := s.Solve()
	if err != nil {
		return nil, err
	}
	run := &Run{Status: st, Stats: s.Stats()}
	switch st {
	case StatusSat:
		run.Model = s.Model()
	case StatusUnsat:
		run.Trace = tr
	}
	return run, nil
}

// SolveToSink decides f streaming the trace to the given sink (e.g. a
// trace.ASCIIWriter over a file), the production configuration for proofs
// too large for memory.
func SolveToSink(f *Formula, opts SolverOptions, sink TraceSink) (Status, SolverStats, error) {
	s, err := solver.New(f, opts)
	if err != nil {
		return StatusUnknown, solver.Stats{}, err
	}
	s.SetTrace(sink)
	st, err := s.Solve()
	return st, s.Stats(), err
}

// Method selects a checker traversal strategy.
type Method int

// The checker strategies.
const (
	// DepthFirst builds only the clauses the proof needs and yields an
	// unsatisfiable core; it holds the whole trace in memory (§3.2).
	DepthFirst Method = iota
	// BreadthFirst streams the trace with use-counted eviction and bounded
	// memory (§3.3).
	BreadthFirst
	// Hybrid marks the needed clauses on disk and then builds only those,
	// breadth-first (the paper's proposed best-of-both).
	Hybrid
	// Parallel is the hybrid strategy with the marked clauses built on a
	// worker pool scheduled by the proof's dependency DAG
	// (CheckOptions.Parallelism workers). Verdicts, cores, and failure
	// diagnostics are identical to Hybrid's.
	Parallel
	// BDD is the reduced-ordered-BDD backend (see SolveBDD): as a solving
	// method it emits extended-resolution proofs; as a CheckRequest method it
	// selects the ER→LRAT bridge check (FormatER), which has a single
	// hint-following strategy.
	BDD
	// Kernel routes the proof through the trusted kernel
	// (internal/kernel): the trace's resolution chains are replayed and
	// their resolve sources become LRAT hints, verified by the minimal
	// allocation-free flat-array core every proof format terminates in.
	// Produces an unsatisfiable core (the kernel's backward hint closure;
	// on a native trace, the depth-first core). For FormatDRAT it
	// forward-checks the clausal proof and kernel-verifies the hints.
	Kernel
	// OOC is the out-of-core variant of Kernel (internal/ooc): the proof is
	// partitioned into windows sized to CheckOptions.MemBudgetBytes, each
	// window is verified by the trusted kernel over a bounded working set,
	// and learned clauses crossing window boundaries are spilled to a
	// checksummed disk index (a native trace's hinted clauses are derived
	// in memory first). RUP-only — RAT lemmas are rejected fail-closed —
	// and otherwise verdict- and core-identical to Kernel.
	OOC
)

// String names the method.
func (m Method) String() string {
	switch m {
	case DepthFirst:
		return "depth-first"
	case BreadthFirst:
		return "breadth-first"
	case Hybrid:
		return "hybrid"
	case Parallel:
		return "parallel"
	case BDD:
		return "bdd"
	case Kernel:
		return "kernel"
	case OOC:
		return "ooc"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Check validates an UNSAT trace against the original formula. A nil error
// means the unsatisfiability claim is proved; a *CheckError carries
// structured diagnostics about the first invalid step otherwise.
func Check(f *Formula, src TraceSource, m Method, opts CheckOptions) (*CheckResult, error) {
	switch m {
	case DepthFirst:
		return checker.DepthFirst(f, src, opts)
	case BreadthFirst:
		return checker.BreadthFirst(f, src, opts)
	case Hybrid:
		return checker.Hybrid(f, src, opts)
	case Parallel:
		return checker.Parallel(f, src, opts)
	case Kernel:
		return kernelcheck.KernelCheckTrace(f, src, opts)
	case OOC:
		return ooc.CheckTrace(f, src, opts)
	default:
		return nil, fmt.Errorf("satcheck: unknown check method %d", int(m))
	}
}

// CheckFile validates a trace file produced by SolveToSink.
func CheckFile(f *Formula, tracePath string, m Method, opts CheckOptions) (*CheckResult, error) {
	return Check(f, trace.FileSource(tracePath), m, opts)
}

// ExtractCore solves f, validates the proof, and returns the unsatisfiable
// core (the original clauses involved in the proof).
func ExtractCore(f *Formula, opts SolverOptions) (*CoreExtraction, error) {
	return core.Extract(f, opts)
}

// IterateCore repeatedly re-solves the extracted core until a fixed point
// or maxIter rounds (the paper uses 30), returning per-iteration sizes.
func IterateCore(f *Formula, maxIter int, opts SolverOptions) (*CoreIteration, error) {
	return core.Iterate(f, maxIter, opts)
}

// TrimStats reports the effect of TrimTrace.
type TrimStats = trim.Stats

// TrimTrace rewrites an UNSAT trace keeping only the clauses its
// empty-clause derivation can reach (renumbered), writing the result to
// sink. The output is a valid — usually much smaller — trace for the same
// formula.
func TrimTrace(f *Formula, src TraceSource, sink TraceSink) (*TrimStats, error) {
	return trim.Trace(f.NumClauses(), src, sink)
}

// Interpolant is a Craig interpolant computed from a resolution proof.
type Interpolant = interp.Interpolant

// Interpolate computes the Craig interpolant of the (A,B) clause partition
// from an UNSAT trace: inA[i] marks original clause i as an A-clause. The
// result satisfies A ⊨ I, I ∧ B unsatisfiable, and vars(I) ⊆
// vars(A) ∩ vars(B); Interpolant.VerifyAgainst machine-checks all three.
func Interpolate(f *Formula, src TraceSource, inA []bool) (*Interpolant, error) {
	return interp.Compute(f, src, inA)
}

// ProofStats describes the structure of a resolution trace (proof-graph
// analytics).
type ProofStats = proofstat.Stats

// AnalyzeProof computes resolution-graph statistics for an UNSAT trace:
// needed clauses, core size, proof depth, chain lengths.
func AnalyzeProof(f *Formula, src TraceSource) (*ProofStats, error) {
	return proofstat.Analyze(f, src)
}

// ExportTraceCheck converts an UNSAT trace into the self-contained
// TraceCheck clause format (each derived clause with its literals and
// resolution chain), validating every step while exporting.
func ExportTraceCheck(f *Formula, src TraceSource, w io.Writer) error {
	_, err := tracecheck.Export(f, src, w)
	return err
}

// MinimalCore shrinks all the way to a minimal unsatisfiable subformula
// (MUS): removing any single clause of the result makes it satisfiable.
// Every intermediate UNSAT verdict is proof-checked and every SAT verdict
// model-checked. Expect one solver run per core clause.
func MinimalCore(f *Formula, opts SolverOptions) (*CoreExtraction, error) {
	ext, _, err := core.Minimal(f, opts)
	return ext, err
}

// Incremental solving (assumption-based sessions where every answer is
// independently validated; see internal/incremental).
type (
	// IncrementalSession is a persistent solver session: clauses persist
	// across calls, learned clauses are reused, and each SolveAssuming answer
	// is validated — UNSAT proofs replay through a native checker, SAT models
	// are checked against every clause and assumption.
	IncrementalSession = incremental.Session
	// IncrementalOptions configures an incremental session.
	IncrementalOptions = incremental.Options
	// MUSExtraction is a minimal unsatisfiable subset with provenance.
	MUSExtraction = incremental.MUSResult
	// VerificationError reports an answer that failed its independent check.
	VerificationError = incremental.VerificationError
)

// ErrSatisfiable is returned by ExtractMUS for satisfiable input.
var ErrSatisfiable = incremental.ErrSatisfiable

// checkMethod maps the facade Method to the incremental subsystem's enum.
func checkMethod(m Method) incremental.CheckMethod {
	switch m {
	case BreadthFirst:
		return incremental.CheckBreadthFirst
	case Hybrid:
		return incremental.CheckHybrid
	case Parallel:
		return incremental.CheckParallel
	default:
		return incremental.CheckDepthFirst
	}
}

// NewIncrementalSession returns an empty validated session whose UNSAT
// answers are checked with method m.
func NewIncrementalSession(m Method, opts SolverOptions) *IncrementalSession {
	return incremental.NewSession(incremental.Options{Solver: opts, Check: checkMethod(m)})
}

// SolveIncremental loads f into a fresh validated session and solves it under
// the given assumptions, returning the session for further calls (add more
// clauses, change assumptions, read Core/Model/CheckResult).
func SolveIncremental(f *Formula, assumps []Lit, m Method, opts SolverOptions) (Status, *IncrementalSession, error) {
	s := NewIncrementalSession(m, opts)
	if err := s.AddFormula(f); err != nil {
		return StatusUnknown, nil, err
	}
	st, err := s.SolveAssuming(assumps)
	return st, s, err
}

// ExtractMUS shrinks f to a minimal unsatisfiable subset on one incremental
// session with clause-selector assumptions, validating every intermediate
// answer (UNSAT steps through a native checker, SAT steps by model). It is
// the session-based successor to MinimalCore — same guarantee, one solver
// instance instead of one per deletion test.
func ExtractMUS(f *Formula, opts SolverOptions) (*MUSExtraction, error) {
	return incremental.ExtractMUS(f, incremental.Options{Solver: opts})
}
